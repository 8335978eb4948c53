"""Lazy, budgeted enumerations behind every search.

Each enumeration has a closed-form count() and is checked against
SEARCH_BUDGET when iteration starts, so an oversized request raises
SearchBudgetError before anything is generated:

- BoxSweep: the elements of one coordinate box, in Domain._box_raws order;
- CanonicalPoints: the canonical fraction points a/b with numerators a in
  a box and b a normalized non-unit denominator, gcd(a, b) a unit,
  denominators first.  It is walked one denominator at a time, in rows of
  the last coordinate, with a form's q2 summed one coordinate at a time
  (_q2_rows), never a point at a time.  integral_values(q) yields the raw
  (nums, den, r) where q is integral, every box point at denominator 1
  first with no test; residue_rows(q) splits each denominator's box axis
  into the classes of its rounding residues a - b*round(a/b) and gives q2
  and coprimality once per class, which oracle.check_euclidean reads.
  Callers build a FractionPoint (through FractionPoint._trusted) only for
  the points they report;
- first_zero: the first integral zero of a polynomial in graded order,
  that is by (sum of coordinate norms, coordinatewise sort key).  It fixes
  every coordinate but the widest and solves that fiber for the last one:
  over Z with inline integers (_first_zero_z), over Z[i] and F_p[t] by one
  walk over the domain's raw ops (_first_zero_walk).

The oracle's window scan is sized the same way, by Domain._offset_count.
A count too costly to take is math.inf (see domains._COUNT_MAX_SIDE and
_COUNT_MAX_BITS), and is refused like any count over the budget.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import partial
from itertools import chain

from .domains import ZI, Domain, DomainElement, GaussianIntegers, RationalIntegers
from .errors import SearchBudgetError

# Largest count() an enumeration may start with.  A Z zero search of this
# many fibers takes seconds; three-squares up to n ~ 2.5e6 stays inside.
SEARCH_BUDGET = 10**7

# CanonicalPoints.integral_values keeps the q2 values of the whole box, summed
# once for every denominator, up to this many points (box_count^d), and
# residue_rows the q2 values of the residue classes (classes^d); past it
# each sums them again per denominator and keeps one row at a time.
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


class BoxSweep:
    """The elements of box(bound), in Domain._box_raws order."""

    def __init__(self, domain: Domain, bound: int):
        self.domain = domain
        self.bound = bound

    def count(self) -> int:
        return self.domain._box_count(self.bound)

    def __iter__(self):
        _within_budget(self.count(), "an element sweep")
        dom = self.domain
        return (DomainElement(dom, r) for r in dom._box_raws(self.bound))


class CanonicalPoints:
    """Canonical fraction points in the box, denominators first, walked one
    denominator at a time.

    Denominators come in Domain._denominator_raws order (non-units of norm,
    or degree for F_p[t], at most height); for each, the numerator vectors
    run over the box in product order and only those with gcd(nums, den) a
    unit are kept.  Every denominator is drawn normalized, so a kept pair
    is exactly the canonical form FractionPoint(domain, nums, den) would
    compute.  count() is the number of (den, nums) candidates examined,
    kept or not.  integral_values also takes denominator 1 first, every
    box point of it, and so examines count() + box_count^d candidates.

    Neither sweep yields a point at a time: both walk one denominator in
    rows of the last coordinate (_q2_rows), with q2 summed one coordinate
    at a time; integral_values over the numerators, residue_rows over the
    residue classes, whose points the caller counts by multiplicity.
    """

    def __init__(self, domain: Domain, d: int, height: int, box: int):
        self.domain = domain
        self.d = d
        self.height = height
        self.box = box

    def count(self) -> int:
        dom = self.domain
        return dom._denominator_count(self.height) * dom._box_count(self.box) ** self.d

    def integral_values(self, q):
        """The box points at denominator 1, then the points of this sweep,
        at which the form q takes a ring value, as raw (nums, den, r) with
        r = q2(nums)/den^2, in that order.

        Sized as count() + box_count^d and refused like residue_rows,
        before anything is evaluated.  q2 does not depend on den, so its
        rows are summed once and kept for every denominator while the box
        has at most Q2_TABLE_MAX points; a larger box is summed again per
        denominator, in O(d * box) memory.  At denominator 1 every box
        point is yielded with r = q2(nums), with no division and no gcd
        test; past it only the points where den^2 divides q2 go through
        the gcd filter.
        """
        box_points = self.domain._box_count(self.box) ** self.d
        _within_budget(self.count() + box_points, "a canonical point sweep")
        return self._integral_values(q)

    def _integral_values(self, q):
        dom = self.domain
        mul, quotient = dom._mul, dom._quotient_or_none
        axis = list(dom._box_raws(self.box))
        squares = _square_rows(dom, q, axis, {})

        def fix(nums, j):
            return nums + (axis[j],)

        rows = partial(_q2_rows, dom, q, axis, squares, (), fix)
        if len(axis) ** q.d <= Q2_TABLE_MAX:
            rows = list(rows()).__iter__
        # denominator 1: every box point, with its own q2 as r, with no
        # division by 1 and no gcd with 1, which is always a unit
        one = dom._ONE
        for prefix, vals in rows():
            for u, v in zip(axis, vals):
                yield prefix + (u,), one, v
        for den in dom._denominator_raws(self.height):
            den2 = mul(den, den)
            for prefix, vals in rows():
                for u, v in zip(axis, vals):
                    r = quotient(v, den2)
                    if r is not None:
                        nums = prefix + (u,)
                        if _coprime(dom, nums, den):
                            yield nums, den, r

    def residue_rows(self, q):
        """This sweep by residue class, one denominator b at a time:
        (b, axis, residues, members, rows).  axis is the box axis;
        residues holds the distinct rounding residues u - b*round(u/b) of
        its elements, in order of first occurrence, and members[k] the
        ascending axis indices whose residue is residues[k].  A class is a
        tuple of residue indices, one per coordinate, and holds the product
        of their members.  rows yields (pos, vals, coprime) per class
        prefix pos of the first d - 1 coordinates: for the last coordinate
        at residues[j], vals[j] = q2 at the class residues pos + (j,), and
        coprime[j] whether the class's points are coprime to b.  So vals
        holds q2(w0) at the vector w0 = a - b*round(a/b) the oracle clears
        every point a/b of the class to.

        Coprimality is a class property: h_k = gcd(b, residues[k]) is taken
        once per residue, and the prefix gcd g (which divides b) is carried
        as gcd(g, h_k), since gcd(g, u) ~ gcd(g, w) ~ gcd(g, h_k) for the
        residue w of u; a unit h_k makes every point through it coprime.
        The q2 table over residues^d is summed one coordinate at a time
        (_q2_rows), kept while its len(residues)^d values fit in
        Q2_TABLE_MAX, and reused by the next denominator with the same
        residues (every b past the box); otherwise it is summed again per
        denominator.  c_ii*w^2 is taken once per residue for the whole
        sweep.  Sized and refused like integral_values, before anything is
        built.
        """
        _within_budget(self.count(), "a canonical point sweep")
        return self._residue_rows(q)

    def _residue_rows(self, q):
        dom = self.domain
        add, neg, mul, rq = dom._add, dom._neg, dom._mul, dom._round_quotient
        axis = list(dom._box_raws(self.box))
        square_memo = {}
        kept = kept_table = None  # the last materialized table, by residues

        def fix(pos, j):
            return pos + (j,)

        for den in dom._denominator_raws(self.height):
            index, residues, members = {}, [], []
            for k, u in enumerate(axis):
                w = add(u, neg(mul(den, rq(u, den))))
                p = index.get(w)
                if p is None:
                    p = index[w] = len(residues)
                    residues.append(w)
                    members.append([])
                members[p].append(k)
            if residues == kept:
                table = kept_table
            else:
                squares = _square_rows(dom, q, residues, square_memo)
                table = _q2_rows(dom, q, residues, squares, (), fix)
                if len(residues) ** q.d <= Q2_TABLE_MAX:
                    kept, kept_table = residues, list(table)
                    table = kept_table
            yield den, axis, residues, members, self._coprime_rows(den, residues, table)

    def _coprime_rows(self, den, residues, table):
        gcd, is_unit = self.domain._gcd, self.domain._is_unit
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
    c_ii*v^2 over values; memo maps (i, v) to the product across calls."""
    mul = dom._mul
    out = []
    for i in range(q.d):
        c = q.quad.get((i, i))
        if c is None:
            out.append(None)
            continue
        row = []
        for v in values:
            t = memo.get((i, v))
            if t is None:
                t = memo[i, v] = mul(c, mul(v, v))
            row.append(t)
        out.append(row)
    return out


def _q2_rows(dom: Domain, q, values, squares, start, fix):
    """q2 over the product of values in q's d coordinates, in product
    order, one row of the last coordinate at a time: (carry, vals) for each
    prefix of the first d - 1 coordinates, with vals[j] = q2(prefix values
    + (values[j],)) and carry = fix(...fix(start, j_0)..., j_{d-2}) over
    the prefix's positions.  squares is _square_rows(dom, q, values, ...).

    q2 is summed one coordinate at a time: coordinate i runs over values
    with the tabulated c_ii*v^2, and fixing it adds c_ij*v to the linear
    coefficient of each later coordinate j.  Then a point of a diagonal
    form costs one ring add, plus one multiply for a coordinate that cross
    terms reach.  Memory is O(d * len(values)).
    """
    d = q.d
    add, mul = dom._add, dom._mul
    cross = [[(j, q.quad[i, j]) for j in range(i + 1, d) if (i, j) in q.quad] for i in range(d)]
    n = len(values)

    def row(i, s, lin):
        # q2 of the prefix extended by each value at coordinate i, given the
        # prefix's value s and the linear coefficient lin (None for zero)
        # its cross terms give coordinate i
        vals = [s] * n if squares[i] is None else [add(s, t) for t in squares[i]]
        if lin is not None:
            vals = [add(v, mul(lin, w)) for v, w in zip(vals, values)]
        return vals

    def rows(i, carry, s, lins):
        if i == d - 1:
            yield carry, row(i, s, lins[i])
            return
        for j, (w, v) in enumerate(zip(values, row(i, s, lins[i]))):
            nxt = lins
            if cross[i]:
                nxt = list(lins)
                for k, c in cross[i]:
                    m = mul(c, w)
                    nxt[k] = m if nxt[k] is None else add(nxt[k], m)
            yield from rows(i + 1, fix(carry, j), v, nxt)

    return rows(0, start, dom._ZERO, [None] * d)


def _coprime(dom: Domain, nums, den) -> bool:
    """Whether gcd(den, nums) is a unit, that is nums/den is in lowest
    terms: the content rule of domains._canonical."""
    return dom._is_unit(dom._content(den, nums))


def _fiber_axis(bounds: Sequence[int]) -> int:
    # solving for the widest coordinate leaves the fewest fibers
    return max(range(len(bounds)), key=lambda i: (bounds[i], i))


def first_zero_count(domain: Domain, bounds: Sequence[int]) -> int:
    """Candidates first_zero is sized by: fibers over Z (the box without
    its solved coordinate), the whole box elsewhere.  Over Z[i] and F_p[t]
    the box bounds what the walk tests and keeps the refusals of the box
    scan it replaced."""
    k = _fiber_axis(bounds) if isinstance(domain, RationalIntegers) else None
    return math.prod(domain._box_count(b) for i, b in enumerate(bounds) if i != k)


def first_zero(f, bounds: Sequence[int]) -> tuple[DomainElement, ...] | None:
    """The first integral zero of f in graded order over the box
    prod_i box(bounds[i]), or None; bounds has one entry per variable."""
    if isinstance(f.domain, RationalIntegers):
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
    """Graded-first zero over Z by exact fiber solving.

    Fix every coordinate but y_k.  On that fiber f is a*t^2 + L*t + R in
    t = y_k, and its integral roots come from isqrt of L^2 - 4aR (or from
    one exact division when a = 0, or all of t when a = L = R = 0, of which
    t = 0 comes first).  The graded order is the order of (sum |y_i|, y), so
    the answer is the least such key over all roots inside the box.  Fibers
    whose fixed coordinates alone already exceed the best sum found are
    skipped.  Cost: one pass over the fibers, O(1) memory.

    When f is a positive diagonal form minus a constant with a square term
    on every coordinate, the coordinates u_i left at a level must supply
    sum c_i*u_i^2 = m = -R.  So a level returns when m < 0, caps |u| at
    isqrt(m // c), and, once a zero is known, returns when the prefix sum
    plus the least L with L^2 * c_max >= m (c_max over the coordinates
    left, the solved one included) exceeds the best sum, as
    (sum |u_i|)^2 >= m / c_max.  The innermost level scans only the |u|
    where c*u^2 + a*t^2 = m allows |u| + |t| <= B = best sum - prefix sum,
    that is (a+c)u^2 - 2aB|u| + aB^2 - m >= 0, with isqrt rounding both
    roots outward.  Only a larger sum is pruned, so ties still go to
    coordinate order, and the search is still sized as every fiber.
    """
    _within_budget(first_zero_count(f.domain, bounds), "a zero search")
    if min(bounds) < 0:
        return None
    quad, lin = f.quad, f.lin
    k = _fiber_axis(bounds)
    bk = bounds[k]
    a = quad.get((k, k), 0)
    a2, a4 = 2 * a, 4 * a
    others = [i for i in range(f.d) if i != k]
    # level p fixes u = y_{others[p]}: its bound, its square coefficient, the
    # coefficient of u*y_k, its linear coefficient and the coefficients of
    # its products with the coordinates fixed before it
    levels = [
        (
            bounds[i],
            quad.get((i, i), 0),
            quad.get((min(i, k), max(i, k)), 0),
            lin[i],
            [quad.get((j, i), 0) for j in others[:p]],
        )
        for p, i in enumerate(others)
    ]
    # the largest square coefficient from level p on, the solved axis
    # included, when the diagonal bounds apply (else None)
    cmax = None
    if _is_positive_diagonal_z(f) and len(quad) == f.d:
        cmax = [max(quad[i, i] for i in others[p:] + [k]) for p in range(len(others))]
    best = None  # (sum of |y_i|, y)

    def offer(prefix, s, L, R):
        nonlocal best
        if a:
            disc = L * L - a4 * R
            if disc < 0:
                return
            r = math.isqrt(disc)
            if r * r != disc:
                return
            roots = [n // a2 for n in (-L - r, -L + r) if n % a2 == 0]
        elif L:
            roots = [] if R % L else [-R // L]
        else:
            roots = [] if R else [0]
        for t in roots:
            if abs(t) <= bk:
                cand = (s + abs(t), prefix[:k] + (t,) + prefix[k:])
                if best is None or cand < best:
                    best = cand

    def level(p, R, L, s, prefix):
        bound, c, kappa, l, cross = levels[p]
        beta = l + sum(cj * yj for cj, yj in zip(cross, prefix))
        lim = bound if best is None else min(bound, best[0] - s)
        if cmax is not None:
            m = -R
            if m < 0:
                return
            lim = min(lim, math.isqrt(m // c))
            if best is not None:
                # the coordinates left have (sum |u_i|)^2 >= m / c_max
                sq = -(-m // cmax[p])
                if s + (math.isqrt(sq - 1) + 1 if sq else 0) > best[0]:
                    return
        if p + 1 < len(levels):
            for u in range(-lim, lim + 1):
                level(p + 1, R + u * (beta + c * u), L + kappa * u, s + abs(u), prefix + (u,))
            return
        us = range(-lim, lim + 1)
        if cmax is not None and best is not None:
            B = best[0] - s
            aB, ac = a * B, a + c
            disc = aB * aB - ac * (aB * B - m)
            if disc > 0:
                r = math.isqrt(disc)
                lo, hi = (aB - r) // ac, (aB + r) // ac
                if lo < lim and hi > lo + 1:
                    us = chain(range(-lim, -hi + 1), range(-lo, lo + 1), range(hi, lim + 1))
        # innermost fibers: a cheap root test first, offer() decides
        for u in us:
            Ru = R + u * (beta + c * u)
            Lu = L + kappa * u
            if a:
                disc = Lu * Lu - a4 * Ru
                if disc < 0:
                    continue
                r = math.isqrt(disc)
                if r * r != disc:
                    continue
            elif Lu:
                if Ru % Lu:
                    continue
            elif Ru:
                continue
            offer(prefix + (u,), s + abs(u), Lu, Ru)

    if levels:
        level(0, f.const, lin[k], 0, ())
    else:
        offer((), 0, lin[k], f.const)
    return None if best is None else tuple(DomainElement(f.domain, c) for c in best[1])


def _zi_sqrt(x, y):
    """A square root of x + y*i in Z[i], or None when there is none.

    (u + v*i)^2 = x + y*i means u^2 - v^2 = x and 2*u*v = y, and then
    u^2 + v^2 = m with m^2 = x^2 + y^2; so u^2 = (m + x)/2, v^2 = (m - x)/2
    and v takes the sign of y."""
    n = x * x + y * y
    m = math.isqrt(n)
    if m * m != n or (m + x) & 1:
        return None
    u = math.isqrt((m + x) >> 1)
    v = math.isqrt((m - x) >> 1)
    if 2 * u * u != m + x or 2 * v * v != m - x:
        return None
    return (u, -v if y < 0 else v)


def _zi_roots(a, bound, L, R, limit):
    """The roots in Z[i] of a*t^2 + L*t + R with both components at most
    bound and norm at most limit, with (0, 0) standing for every t when all
    three vanish (t = 0 comes first in graded order)."""
    (ar, ai), (lr, li), (rr, ri) = a, L, R
    if ar or ai:
        # t = (-L +- s) / 2a with s^2 = L^2 - 4aR
        s = _zi_sqrt(lr * lr - li * li - 4 * (ar * rr - ai * ri),
                     2 * lr * li - 4 * (ar * ri + ai * rr))
        if s is None:
            return []
        nums, den = [(s[0] - lr, s[1] - li), (-s[0] - lr, -s[1] - li)], (2 * ar, 2 * ai)
    elif lr or li:
        nums, den = [(-rr, -ri)], L
    else:
        return [] if rr or ri or bound < 0 else [(0, 0)]
    roots = []
    for n in nums:
        t = ZI._quotient_or_none(n, den)
        if t is None:
            continue
        tr, ti = t
        if abs(tr) <= bound and abs(ti) <= bound and tr * tr + ti * ti <= limit:
            roots.append((tr, ti))
    return roots


def _fiber_solver(dom: Domain, a, bound: int):
    """roots(L, R, limit): roots t in box(bound) of a*t^2 + L*t + R, for the
    fixed a; a root of norm over limit may be left out.

    Over Z[i] the roots are exact (_zi_roots).  Elsewhere the solved axis
    is materialized once, in graded order, with a*t^2 precomputed, and
    tested one t at a time; its first root is the fiber's least in graded
    order, so no other is returned.
    """
    if isinstance(dom, GaussianIntegers):
        return partial(_zi_roots, a, bound)
    add, mul, neg = dom._add, dom._mul, dom._neg
    axis = [(dom._norm(t), t, mul(a, mul(t, t))) for t in dom._graded_raws(bound)]

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
    """Graded-first zero over Z[i] and F_p[t] by fiber solving.

    As in _first_zero_z: on the fiber of y_k, f is a*t^2 + L*t + R with a,
    L, R in the ring, solved by _fiber_solver, and the answer is the least
    (sum of coordinate norms, coordinatewise sort key) over all roots inside
    the box.  Keys are compared, not raws: F_p[t] raws do not sort like
    their keys.  Each other coordinate runs over its axis in graded order,
    materialized once per distinct bound, and a level stops once its norm
    sum exceeds the best sum found; equal sums go on, since the key decides
    a tie.  Sized as the whole box.
    """
    dom = f.domain
    _within_budget(first_zero_count(dom, bounds), "a graded box search")
    add, mul, norm, key = dom._add, dom._mul, dom._norm, dom._sort_key
    quad, lin, zero = f.quad, f.lin, dom._ZERO
    k = _fiber_axis(bounds)
    roots = _fiber_solver(dom, quad.get((k, k), zero), bounds[k])
    others = [i for i in range(f.d) if i != k]
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
