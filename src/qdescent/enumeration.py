"""Lazy, budgeted enumerations behind every search.

Each enumeration is one function of its inputs, sized in closed form and
checked against SEARCH_BUDGET before anything is generated, so an
oversized request raises SearchBudgetError first.  _within_budget is the
only comparison with SEARCH_BUDGET in the package:

- box_elements(domain, bound): the elements of one coordinate box, in
  Domain._box_raws order, sized when iteration starts;
- integral_values(q, height, box) and residue_rows(q, height, box): the
  canonical fraction points a/b with numerators a in box^d and b a
  normalized non-unit denominator of norm at most height, gcd(a, b) a
  unit, denominators first, for the form q, whose ring and dimension they
  read; sized when called, as sweep_count(domain, d, height, box)
  candidates (integral_values adds the box^d points at denominator 1).
  Both walk one denominator at a time, in rows of the last coordinate
  (_q2_rows), never a point at a time, with q2 summed one coordinate at a
  time by _q2_prefixes, the package's one q2 walk; _q2_table, the one
  owner of Q2_TABLE_MAX, decides whether those rows are kept for the next
  denominator or summed again.  integral_values yields the raw
  (nums, den, r) where q is integral, every box point at denominator 1
  first with no test; residue_rows splits each denominator's box axis into
  the classes of its rounding residues a - b*round(a/b), taken from
  domains._rounded as the oracle takes them and up to sign when q has no
  cross term, and gives q2 and coprimality once per class, which
  oracle.check_euclidean reads.  Callers build a FractionPoint (through
  FractionPoint._trusted) only for the points they report;
- first_zero: the first integral zero of a polynomial in graded order,
  that is by (sum of coordinate norms, coordinatewise sort key), the order
  of Domain._graded_raws.  It fixes every coordinate but the widest and
  solves that fiber for the last one, by one walk over the domain's raw
  ops for every polynomial over every ring (_first_zero_walk), with exact
  roots where the ring has a square root (Z and Z[i]) and a test of the
  solved axis elsewhere; only a positive diagonal form over Z minus a
  constant takes the pruned integer search _first_zero_z, over the
  nonpositive orthant only, each level cut to one closed-form band.
  _size_first_zero sizes it, and zerotools.verify_adc's witness queries,
  in one step.

The oracle's window scan is sized the same way, by Domain._offset_count,
and sums f2 on _q2_prefixes too, running each last coordinate inline.
A count too costly to take is math.inf (see domains._COUNT_MAX_SIDE and
_COUNT_MAX_BITS), and is refused like any count over the budget.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import partial
from itertools import chain

from .domains import Domain, DomainElement, RationalIntegers, _rounded
from .errors import SearchBudgetError

# Largest count an enumeration may start with.  A Z zero search of this
# many fibers takes seconds; three-squares up to n ~ 2.5e6 stays inside.
SEARCH_BUDGET = 10**7

# _q2_table keeps a q2 table of up to this many values: the whole box
# (box_count^d) for integral_values, summed once for every
# denominator, and the residue classes (classes^d) for residue_rows; past
# it the table is summed again per denominator, one row at a time.
Q2_TABLE_MAX = 1 << 16


def _within_budget(count: int, what: str) -> None:
    # "not <=" also refuses nan, the product of an uncounted (math.inf)
    # factor and an empty one: the enumeration would still build the
    # uncounted axis
    if not count <= SEARCH_BUDGET:
        try:
            amount = f"{int(count)} candidates"
        except (OverflowError, ValueError):
            # math.inf or nan, or an int past Python's int-to-text limit
            amount = "too many candidates to count"
        raise SearchBudgetError(
            f"{what} would enumerate {amount}, over the search budget of {SEARCH_BUDGET}"
        )


def box_elements(domain: Domain, bound: int):
    """The elements of box(bound), in Domain._box_raws order.  A generator:
    it is sized, and refused over SEARCH_BUDGET, when iteration starts."""
    _within_budget(domain._box_count(bound), "an element sweep")
    for r in domain._box_raws(bound):
        yield DomainElement(domain, r)


def sweep_count(domain: Domain, d: int, height: int, box: int) -> int:
    """The (den, nums) candidates the canonical point sweeps examine, kept
    or not: every denominator of Domain._denominator_raws (the non-units of
    norm, or degree for F_p[t], at most height, each drawn normalized) times
    every numerator vector of box^d, in product order.  A pair is kept when
    gcd(nums, den) is a unit, so it is exactly the canonical form
    FractionPoint(domain, nums, den) would compute."""
    return domain._denominator_count(height) * domain._box_count(box) ** d


def integral_values(q, height: int, box: int):
    """The box points at denominator 1, then the canonical points of the
    sweep, at which the form q takes a ring value, as raw (nums, den, r)
    with r = q2(nums)/den^2, in that order.

    Sized as sweep_count + box_count^d and refused like residue_rows,
    before anything is evaluated.  q2 does not depend on den, so its rows
    are summed once and kept for every denominator while the box has at
    most Q2_TABLE_MAX points (_q2_table); a larger box is summed again per
    denominator, in O(d * box) memory.  At denominator 1 every box point
    is yielded with r = q2(nums), with no division and no gcd test, its
    row's axis indices mapped to numerators once per row; past it a row is
    mapped at its first point where den^2 divides q2, and only those points
    go through the gcd filter.
    """
    dom = q.domain
    box_points = dom._box_count(box) ** q.d
    _within_budget(sweep_count(dom, q.d, height, box) + box_points, "a canonical point sweep")
    return _integral_values(q, height, box)


def _integral_values(q, height, box):
    dom = q.domain
    mul, quotient = dom._mul, dom._quotient_or_none
    axis = list(dom._box_raws(box))
    values = [axis] * q.d
    rows = _q2_table(dom, q, values, _square_rows(dom, q, values, {}))
    # denominator 1: every box point, with its own q2 as r, with no
    # division by 1 and no gcd with 1, which is always a unit
    one = dom._ONE
    for pos, vals in rows():
        prefix = tuple(map(axis.__getitem__, pos))
        for u, v in zip(axis, vals):
            yield prefix + (u,), one, v
    for den in dom._denominator_raws(height):
        den2 = mul(den, den)
        for pos, vals in rows():
            prefix = None  # mapped at the row's first passing point
            for u, v in zip(axis, vals):
                r = quotient(v, den2)
                if r is not None:
                    if prefix is None:
                        prefix = tuple(map(axis.__getitem__, pos))
                    nums = prefix + (u,)
                    if _coprime(dom, nums, den):
                        yield nums, den, r


def residue_rows(q, height: int, box: int):
    """The canonical point sweep by residue class, one denominator b at a
    time: (b, axis, residues, members, rows).  axis is the box axis;
    residues holds the distinct rounding residues u - b*round(u/b) of its
    elements, in order of first occurrence, and members[k] the ascending
    axis indices whose residue is residues[k].  When q has no cross term,
    residues are taken up to sign: w and -w share one class, whose residue
    is the one of the two that comes first on the axis, and members[k]
    holds the indices of both.  A class is a tuple of residue indices, one
    per coordinate, and holds the product of their members, the first of
    them in product order at the class residues themselves.  rows yields
    (pos, vals, coprime) per class prefix pos of the first d - 1
    coordinates: for the last coordinate at residues[j], vals[j] = q2 at
    the class residues pos + (j,), and coprime[j] whether the class's
    points are coprime to b.  So vals holds q2(w0) at the vector
    w0 = a - b*round(a/b) the oracle clears every point a/b of the class
    to, up to the signs of its coordinates.

    Taking residues up to sign is exact: with no cross term
    q2 = sum c_ii*w_i^2 does not change when a coordinate is negated, and
    gcd(b, -w) is an associate of gcd(b, w).  (In characteristic 2,
    -w = w and nothing merges.)  Forms with a cross term keep signed
    residues.

    Coprimality is a class property: h_k = gcd(b, residues[k]) is taken
    once per residue, and the prefix gcd g (which divides b) is carried as
    gcd(g, h_k), since gcd(g, u) ~ gcd(g, +-w) ~ gcd(g, h_k) for the
    residue w of u; a unit h_k makes every point through it coprime.  The
    q2 table over residues^d is summed one coordinate at a time
    (_q2_rows), kept by _q2_table while its len(residues)^d values fit in
    Q2_TABLE_MAX, and reused by the next denominator with the same
    residues (every b past the box); otherwise it is summed again per
    denominator.  c_ii*w^2 is taken once per residue for the whole sweep.
    Sized as sweep_count and refused over SEARCH_BUDGET before anything is
    built.
    """
    _within_budget(sweep_count(q.domain, q.d, height, box), "a canonical point sweep")
    return _residue_rows(q, height, box)


def _residue_rows(q, height, box):
    dom = q.domain
    neg = dom._neg
    signed = any(i != j for i, j in q.quad)  # a cross term: no merging by sign
    axis = list(dom._box_raws(box))
    square_memo = {}
    kept = rows = None  # the q2 table of the last residues
    for den in dom._denominator_raws(height):
        classes = {}  # residue -> its axis indices, in order of first occurrence
        for k, w in enumerate(_rounded(dom, axis, den)[1]):
            if not signed and w not in classes and (m := neg(w)) in classes:
                w = m  # the class of -w, which came first on the axis
            classes.setdefault(w, []).append(k)
        residues, members = list(classes), list(classes.values())
        if residues != kept:
            values = [residues] * q.d
            squares = _square_rows(dom, q, values, square_memo)
            kept, rows = residues, _q2_table(dom, q, values, squares)
        yield den, axis, residues, members, _coprime_rows(dom, den, residues, rows())


def _coprime_rows(dom: Domain, den, residues, table):
    gcd, is_unit = dom._gcd, dom._is_unit
    # h_k = gcd(b, residues[k]), and every gcd below, is None for a unit
    hs = [None if is_unit(w) or is_unit(h := gcd(den, w)) else h for w in residues]
    meets = {(den, p): h for p, h in enumerate(hs)}  # gcd(b, h_p) = h_p
    flag_rows = {None: [True] * len(residues)}

    def meet(g, p):
        # gcd(g, h_p) for a non-unit g
        h = hs[p]
        if h is None:
            return None
        if (g, p) not in meets:
            m = gcd(g, h)
            meets[g, p] = None if is_unit(m) else m
        return meets[g, p]

    start = None if is_unit(den) else den
    for pos, vals in table:
        g = start
        for p in pos:
            if g is None:
                break
            g = meet(g, p)
        flags = flag_rows.get(g)
        if flags is None:
            flags = flag_rows[g] = [meet(g, j) is None for j in range(len(residues))]
        yield pos, vals, flags


def _square_rows(dom: Domain, q, values, memo: dict) -> list:
    """Per coordinate i, None when q has no X_i^2 term, else the list of
    c_ii*v^2 over v in values[i]; memo maps (i, v) to the product across calls."""
    mul = dom._mul
    out = []
    for i in range(q.d):
        c = q.quad.get((i, i))
        if c is None:
            out.append(None)
            continue
        row = []
        for v in values[i]:
            t = memo.get((i, v))
            if t is None:
                t = memo[i, v] = mul(c, mul(v, v))
            row.append(t)
        out.append(row)
    return out


def _q2_table(dom: Domain, q, values, squares):
    """rows() yielding _q2_rows(dom, q, values, squares), the one owner of
    Q2_TABLE_MAX: the rows are summed once and kept while the table's
    prod(map(len, values)) values fit in it, and summed again past it."""
    if math.prod(map(len, values)) <= Q2_TABLE_MAX:
        return list(_q2_rows(dom, q, values, squares)).__iter__
    return partial(_q2_rows, dom, q, values, squares)


def _q2_prefixes(dom: Domain, q, values, squares):
    """The one q2 walk, over the product of values[0], ..., values[d-1] in
    product order: (pos, s, lin) per prefix of the first d - 1 coordinates,
    with pos its indices, s = q2 there with the last coordinate at 0, and
    lin (None for 0) the linear coefficient its cross terms give the last
    coordinate.  squares is _square_rows(dom, q, values, ...).

    Coordinate i runs over values[i] with the tabulated c_ii*v^2, and fixing
    it adds c_ij*v to the linear coefficient of each later coordinate j, so
    a diagonal form costs one ring add per value per level.  The last level
    of prefixes is yielded in a loop, not a generator per prefix.
    """
    d = q.d
    add, mul = dom._add, dom._mul
    cross = [[(j, q.quad[i, j]) for j in range(i + 1, d) if (i, j) in q.quad] for i in range(d)]

    def walk(i, pos, s, lins):
        last = i + 2 == d
        sq, lin = squares[i], lins[i]
        for j, w in enumerate(values[i]):
            v = s if sq is None else add(s, sq[j])
            if lin is not None:
                v = add(v, mul(lin, w))
            nxt = lins
            if cross[i]:
                nxt = list(lins)
                for k, c in cross[i]:
                    m = mul(c, w)
                    nxt[k] = m if nxt[k] is None else add(nxt[k], m)
            if last:
                yield pos + (j,), v, nxt[-1]
            else:
                yield from walk(i + 1, pos + (j,), v, nxt)

    if d == 1:
        return iter([((), dom._ZERO, None)])
    return walk(0, (), dom._ZERO, [None] * d)


def _q2_rows(dom: Domain, q, values, squares):
    """q2 over the product of values[0], ..., values[d-1] in product order,
    one row of the last coordinate at a time: (pos, vals) for each prefix
    of _q2_prefixes, with vals[j] = q2 at pos + (j,).  Callers take the
    rows through _q2_table, which decides whether they are kept."""
    add, mul = dom._add, dom._mul
    last, sq = values[-1], squares[-1]
    for pos, s, lin in _q2_prefixes(dom, q, values, squares):
        vals = [s] * len(last) if sq is None else [add(s, t) for t in sq]
        if lin is not None:
            vals = [add(v, mul(lin, w)) for v, w in zip(vals, last)]
        yield pos, vals


def _coprime(dom: Domain, nums, den) -> bool:
    """Whether gcd(den, nums) is a unit, that is nums/den is in lowest
    terms: the content rule of domains._canonical."""
    return dom._is_unit(dom._content(den, nums))


def _fiber_axis(bounds: Sequence[int]) -> int:
    # solving for the widest coordinate leaves the fewest fibers
    return max(range(len(bounds)), key=lambda i: (bounds[i], i))


def _size_first_zero(domain: Domain, bounds: Sequence[int]) -> int:
    """The candidates first_zero is sized by, refused over SEARCH_BUDGET:
    the sizing step of first_zero and of zerotools.verify_adc's witness
    total.  Over Z they are the fibers, the box without its solved
    coordinate; elsewhere the whole box, which bounds what the walk tests
    and keeps the refusals of the box scan it replaced."""
    z = isinstance(domain, RationalIntegers)
    k = _fiber_axis(bounds) if z else None
    count = math.prod(domain._box_count(b) for i, b in enumerate(bounds) if i != k)
    _within_budget(count, "a zero search" if z else "a graded box search")
    return count


def first_zero(f, bounds: Sequence[int]) -> tuple[DomainElement, ...] | None:
    """The first integral zero of f in graded order over the box
    prod_i box(bounds[i]), or None; bounds has one entry per variable.

    A positive diagonal form over Z minus a constant, with a square term on
    every variable, runs the pruned search _first_zero_z; every other
    polynomial, over every ring, runs _first_zero_walk."""
    _size_first_zero(f.domain, bounds)
    if _is_positive_diagonal_z(f) and len(f.quad) == f.d:
        return _first_zero_z(f, list(bounds))
    return _first_zero_walk(f, list(bounds))


def _is_positive_diagonal_z(f) -> bool:
    """Whether f is c_1*y_1^2 + ... + c_d*y_d^2 + const over Z with every
    present c_i > 0: no cross term and no linear part.  A coordinate may
    lack its square term."""
    return (
        isinstance(f.domain, RationalIntegers)
        and not any(f.lin)
        and all(i == j and c > 0 for (i, j), c in f.quad.items())
    )


def _first_zero_z(f, bounds):
    """Graded-first zero over Z of a positive diagonal form minus a
    constant with a square term on every coordinate, by exact fiber solving.

    f(y) depends only on the |y_i|, so for any zero y, -|y| is a zero of
    the same sum that comes no later in coordinate order: the graded-first
    zero is nonpositive.  So each level runs x = |u| from its cap down to 0
    and fixes u = -x, and the fiber of the solved y_k reads a*t^2 = m in
    t = |y_k|: t = r/a when a*m is a square r^2 and a divides r.

    The coordinates left at a level must supply sum c_i*u_i^2 = m, so x is
    capped at isqrt(m // c).  Given a best sum S and a prefix sum s, a child
    at x can reach a sum of at most S only if x <= B = S - s and
    c_next*(B - x)^2 + c*x^2 >= m, c_next being the largest square
    coefficient after this level, the solved one's included.  kept() keeps
    the x outside the roots of that quadratic, isqrt rounding both outward,
    and recomputes them whenever S falls; S starts at sum(bounds) + 1,
    which no zero in the box reaches.  Only a strictly larger sum is cut,
    so ties still go to coordinate order; the search is still sized as
    every fiber.  Memory is O(d): one prefix and one band per level.
    """
    m = -f.const
    if min(bounds) < 0 or m < 0:
        return None
    quad = f.quad
    k = _fiber_axis(bounds)
    bk, a = bounds[k], quad[k, k]
    others = [i for i in range(f.d) if i != k]
    # level p fixes u = y_{others[p]}: its bound, its square coefficient and
    # c_next, the largest square coefficient after it, the solved axis's
    # included
    levels = [
        (bounds[i], quad[i, i], max([quad[j, j] for j in others[p + 1 :]] + [a]))
        for p, i in enumerate(others)
    ]
    best = (sum(bounds) + 1,)  # then (sum of |y_i|, y); compares above every zero

    def offer(prefix, s, r):
        # a*t^2 = m with a*m = r^2: t = r/a when a divides r
        nonlocal best
        t, rem = divmod(r, a)
        if not rem and t <= bk:
            cand = (s + t, prefix[:k] + (-t,) + prefix[k:])
            if cand < best:
                best = cand

    def kept(x, m, s, c, c_next):
        # x = |u| from x down to 0, less the band the best sum cuts
        while x >= 0:
            S = best[0]
            B = S - s
            x = min(x, B)
            cB, cc = c_next * B, c_next + c
            r = math.isqrt(max(cc * m - c_next * c * B * B, 0))
            lo, hi = (cB - r) // cc, (cB + r) // cc
            for x in chain(range(x, max(hi, lo + 1) - 1, -1), range(min(lo, x), -1, -1)):
                yield x
                if best[0] < S:
                    break
            else:
                return
            x -= 1

    def level(p, m, s, prefix):
        bound, c, c_next = levels[p]
        xs = kept(min(bound, math.isqrt(m // c)), m, s, c, c_next)
        if p + 1 < len(levels):
            for x in xs:
                level(p + 1, m - c * x * x, s + x, prefix + (-x,))
            return
        # innermost fibers, the root test inline: a*t^2 = m - c*x^2 needs
        # a*(m - c*x^2) to be a square; offer() decides
        am, ac = a * m, a * c
        for x in xs:
            v = am - ac * x * x
            r = math.isqrt(v)
            if r * r == v:
                offer(prefix + (-x,), s + x, r)

    if levels:
        level(0, m, 0, ())
    elif (r := math.isqrt(a * m)) ** 2 == a * m:
        offer((), 0, r)
    return None if len(best) == 1 else tuple(DomainElement(f.domain, c) for c in best[1])


def _exact_roots(dom: Domain, a, bound: int):
    """roots(L, R, limit): the roots t of a*t^2 + L*t + R with
    _box_radius(t) <= bound and norm at most limit, by the quadratic
    formula t = (-L +- s) / 2a with s = dom._sqrt(L^2 - 4aR) and one exact
    division each; when a = 0, -R/L, or zero for every t when all three
    vanish (t = 0 comes first in graded order).  2a and -4a are taken once."""
    add, mul, neg, norm, is_zero = dom._add, dom._mul, dom._neg, dom._norm, dom._is_zero
    quotient, radius, sqrt = dom._quotient_or_none, dom._box_radius, dom._sqrt
    a2 = add(a, a)
    a4 = None if is_zero(a) else neg(add(a2, a2))
    zero = [] if bound < 0 else [dom._ZERO]

    def roots(L, R, limit):
        if a4 is not None:
            s = sqrt(add(mul(L, L), mul(a4, R)))
            if s is None:
                return []
            nL = neg(L)
            ts = (quotient(add(nL, s), a2), quotient(add(nL, neg(s)), a2))
        elif not is_zero(L):
            ts = (quotient(neg(R), L),)
        else:
            return [] if not is_zero(R) else zero
        return [t for t in ts if t is not None and radius(t) <= bound and norm(t) <= limit]

    return roots


def _fiber_solver(dom: Domain, a, bound: int, shared: bool):
    """roots(L, R, limit): roots t in box(bound) of a*t^2 + L*t + R, for the
    fixed a; a root of norm over limit may be left out.

    A ring with a square root (dom._sqrt, over Z and Z[i]) solves the fiber
    exactly (_exact_roots).  Otherwise the solved axis is walked in graded
    order, with a*t^2 beside each t, and tested one t at a time; its first
    root is the fiber's least in graded order, so no other is returned.
    The axis is materialized once when other coordinates make it shared by
    many fibers; otherwise roots runs once and streams it, so a
    one-variable search holds O(1) elements.
    """
    if dom._sqrt is not None:
        return _exact_roots(dom, a, bound)
    add, mul, neg = dom._add, dom._mul, dom._neg
    axis = ((dom._norm(t), t, mul(a, mul(t, t))) for t in dom._graded_raws(bound))
    if shared:
        axis = list(axis)

    def roots(L, R, limit):
        target = neg(R)  # a*t^2 + L*t = -R, raws being canonical
        for n, t, at2 in axis:
            if n > limit:
                break
            if add(at2, mul(L, t)) == target:
                return [t]
        return []

    return roots


def _first_zero_walk(f, bounds):
    """Graded-first zero by fiber solving, over every ring.

    Fix every coordinate but the widest, y_k.  On that fiber f is
    a*t^2 + L*t + R in t = y_k, with a, L, R in the ring, solved by
    _fiber_solver, and the answer is the least (sum of coordinate norms,
    coordinatewise sort key) over all roots inside the box.  Keys are
    compared, not raws: F_p[t] raws do not sort like their keys.  Each
    other coordinate runs over its axis in graded order, materialized once
    per distinct bound, and a level stops once its norm sum exceeds the
    best sum found; equal sums go on, since the key decides a tie.  Sized
    as the whole box, or over Z as its fibers (_size_first_zero).
    """
    dom = f.domain
    add, mul, norm, key = dom._add, dom._mul, dom._norm, dom._sort_key
    quad, lin, zero = f.quad, f.lin, dom._ZERO
    k = _fiber_axis(bounds)
    others = [i for i in range(f.d) if i != k]
    roots = _fiber_solver(dom, quad.get((k, k), zero), bounds[k], bool(others))
    axes = {b: [(norm(u), u) for u in dom._graded_raws(b)] for b in {bounds[i] for i in others}}
    # level p fixes u = y_{others[p]}: its axis, its square coefficient, the
    # coefficient of u*y_k (None for zero, as on every level of a diagonal
    # form), its linear coefficient and the coefficients of its products
    # with the coordinates fixed before it
    levels = []
    for p, i in enumerate(others):
        kappa = quad.get((min(i, k), max(i, k)))
        levels.append((
            axes[bounds[i]],
            quad.get((i, i), zero),
            None if kappa is None or dom._is_zero(kappa) else kappa,
            lin[i],
            [quad.get((j, i), zero) for j in others[:p]],
        ))
    best_sum, best_keys, best = math.inf, None, None

    def offer(prefix, s, L, R):
        nonlocal best_sum, best_keys, best
        for t in roots(L, R, best_sum - s):
            y = prefix[:k] + (t,) + prefix[k:]
            cand = (s + norm(t), tuple(map(key, y)))
            if cand < (best_sum, best_keys):
                (best_sum, best_keys), best = cand, y

    def level(p, R, L, s, prefix):
        axis, c, kappa, beta, cross = levels[p]
        for cj, yj in zip(cross, prefix):
            beta = add(beta, mul(cj, yj))
        last = p + 1 == len(levels)
        for n, u in axis:
            if s + n > best_sum:
                break
            # R + u*(beta + c*u) and L + kappa*u
            Ru = add(R, mul(u, add(beta, mul(c, u))))
            Lu = L if kappa is None else add(L, mul(kappa, u))
            if last:
                offer(prefix + (u,), s + n, Lu, Ru)
            else:
                level(p + 1, Ru, Lu, s + n, prefix + (u,))

    if levels:
        level(0, f.const, lin[k], 0, ())
    else:
        offer((), 0, lin[k], f.const)
    return None if best is None else tuple(DomainElement(dom, c) for c in best)
