"""Lazy, budgeted enumerations behind every search.

Each enumeration has a closed-form count() and is checked against
SEARCH_BUDGET when iteration starts, so an oversized request raises
SearchBudgetError before anything is generated:

- BoxSweep: the elements of one coordinate box, in Domain._box_raws order;
- GradedBox: the raw points of a box in graded order, that is by (sum of
  coordinate norms, coordinatewise sort key), produced one shell of equal
  norm sum at a time and merged by sort key within the shell;
- CanonicalPoints: the canonical fraction points a/b with numerators a in
  a box and b a normalized denominator, gcd(a, b) a unit, denominators
  first, as raw (nums, den) pairs; callers build a FractionPoint (through
  FractionPoint._trusted) only for the points they keep;
- first_zero: the first integral zero of a polynomial in graded order.
  Over Z and Z[i] it solves each fiber exactly (see _first_zero_z and
  _first_zero_zi) and never scans the solved coordinate; over F_p[t] it
  scans a GradedBox.

The oracle's window scan is sized the same way, by Domain._offset_count.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from itertools import chain, groupby, product

from .domains import ZI, Domain, DomainElement, GaussianIntegers, RationalIntegers
from .errors import ExactDivisionError, SearchBudgetError

# Largest count() an enumeration may start with.  A Z zero search of this
# many fibers takes seconds; three-squares up to n ~ 2.5e6 stays inside.
SEARCH_BUDGET = 10**7


def _within_budget(count: int, what: str) -> None:
    if count > SEARCH_BUDGET:
        raise SearchBudgetError(
            f"{what} would enumerate {count} candidates, "
            f"over the search budget of {SEARCH_BUDGET}"
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


class GradedBox:
    """Raw points of the box prod_i box(bounds[i]), in graded order.

    A box bound caps |a| for Z, both components for Z[i] and the degree
    for F_p[t] (see Domain._box_raws).  Memory stays at one axis per
    distinct bound plus the current shell's frontier; the d-fold box is
    never built.
    """

    def __init__(self, domain: Domain, bounds: Sequence[int]):
        self.domain = domain
        self.bounds = tuple(bounds)

    def count(self) -> int:
        return math.prod(self.domain._box_count(b) for b in self.bounds)

    def __iter__(self):
        _within_budget(self.count(), "a graded box search")
        dom = self.domain
        if len(self.bounds) == 1:
            return ((a,) for a in dom._graded_raws(self.bounds[0]))
        classes = {
            b: [(n, list(g)) for n, g in groupby(dom._graded_raws(b), key=dom._norm)]
            for b in set(self.bounds)
        }
        return _graded_product([classes[b] for b in self.bounds], dom._sort_key)


def _graded_product(axes, sort_key):
    """Points of the product of the axes by (sum of norms, sort keys).

    Each axis is a list of (norm, elements sorted by key) in ascending
    norm.  A heap yields the tuples of class indices in order of their
    norm sum; every index tuple is pushed once, by the parent that lacks
    one step on its last nonzero index.  The products of one shell are
    each in key order already, so merging them orders the shell.
    """
    if not all(axes):
        return
    d = len(axes)

    def key(pt):
        return tuple(map(sort_key, pt))

    heap = [(sum(ax[0][0] for ax in axes), (0,) * d)]
    while heap:
        total = heap[0][0]
        shell = []
        while heap and heap[0][0] == total:
            _, idx = heapq.heappop(heap)
            shell.append(product(*(ax[i][1] for ax, i in zip(axes, idx))))
            last = max((j for j in range(d) if idx[j]), default=0)
            for j in range(last, d):
                i = idx[j] + 1
                if i < len(axes[j]):
                    step = axes[j][i][0] - axes[j][i - 1][0]
                    heapq.heappush(heap, (total + step, idx[:j] + (i,) + idx[j + 1:]))
        yield from heapq.merge(*shell, key=key)


class CanonicalPoints:
    """Canonical fraction points in the box, denominators first, as raw
    (nums, den) pairs with nums a tuple.

    Denominators come in Domain._denominator_raws order (non-units of norm,
    or degree for F_p[t], at most height), preceded by 1 when integral is
    set; for each, the numerator vectors run over the box in product order
    and only those with gcd(nums, den) a unit are kept.  Every denominator
    is drawn normalized, so a kept pair is exactly the canonical form
    FractionPoint(domain, nums, den) would compute.  count() is the number
    of (den, nums) candidates examined, kept or not.
    """

    def __init__(self, domain: Domain, d: int, height: int, box: int, integral: bool = False):
        self.domain = domain
        self.d = d
        self.height = height
        self.box = box
        self.integral = integral

    def count(self) -> int:
        dom = self.domain
        dens = dom._denominator_count(self.height) + (1 if self.integral else 0)
        return dens * dom._box_count(self.box) ** self.d

    def __iter__(self):
        _within_budget(self.count(), "a canonical point sweep")
        return self._points()

    def _points(self):
        dom = self.domain
        dens = dom._denominator_raws(self.height)
        if self.integral:
            dens = chain([dom._ONE], dens)
        if self.d == 1:
            def numerators():
                return ((a,) for a in dom._box_raws(self.box))
        else:
            raws = list(dom._box_raws(self.box))

            def numerators():
                return product(raws, repeat=self.d)

        gcd, is_unit = dom._gcd, dom._is_unit
        for den in dens:
            for nums in numerators():
                g = den
                for r in nums:
                    g = gcd(g, r)
                    if is_unit(g):
                        yield nums, den
                        break


def _fiber_axis(bounds: Sequence[int]) -> int:
    # solving for the widest coordinate leaves the fewest fibers
    return max(range(len(bounds)), key=lambda i: (bounds[i], i))


def first_zero_count(domain: Domain, bounds: Sequence[int]) -> int:
    """Candidates first_zero is sized by: fibers over Z (the box without
    its solved coordinate), box points elsewhere (over Z[i] an upper bound
    on the fibers it solves, kept so that its refusals stay those of the
    box scan)."""
    if isinstance(domain, RationalIntegers):
        k = _fiber_axis(bounds)
        return math.prod(domain._box_count(b) for i, b in enumerate(bounds) if i != k)
    return GradedBox(domain, bounds).count()


def first_zero(f, bounds: Sequence[int]) -> tuple[DomainElement, ...] | None:
    """The first integral zero of f in graded order over the box
    prod_i box(bounds[i]), or None; bounds has one entry per variable."""
    dom = f.domain
    if isinstance(dom, RationalIntegers):
        return _first_zero_z(f, list(bounds))
    if isinstance(dom, GaussianIntegers):
        return _first_zero_zi(f, list(bounds))
    for pt in GradedBox(dom, bounds):
        if dom._is_zero(f._eval_raw(pt)):
            return tuple(DomainElement(dom, c) for c in pt)
    return None


def _first_zero_z(f, bounds):
    """Graded-first zero over Z by exact fiber solving.

    Fix every coordinate but y_k.  On that fiber f is a*t^2 + L*t + R in
    t = y_k, and its integral roots come from isqrt of L^2 - 4aR (or from
    one exact division when a = 0, or all of t when a = L = R = 0, of which
    t = 0 comes first).  The graded order is the order of (sum |y_i|, y), so
    the answer is the least such key over all roots inside the box.  Fibers
    whose fixed coordinates alone already exceed the best sum found are
    skipped.  Cost: one pass over the fibers, O(1) memory.
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
        if p + 1 < len(levels):
            for u in range(-lim, lim + 1):
                level(p + 1, R + u * (beta + c * u), L + kappa * u, s + abs(u), prefix + (u,))
            return
        # innermost fibers: a cheap root test first, offer() decides
        for u in range(-lim, lim + 1):
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


def _zi_roots(a, L, R):
    """The roots in Z[i] of a*t^2 + L*t + R, with [(0, 0)] standing for
    every t when all three vanish (t = 0 comes first in graded order)."""
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
        return [] if rr or ri else [(0, 0)]
    roots = []
    for n in nums:
        try:
            roots.append(ZI._divexact(n, den))
        except ExactDivisionError:
            pass
    return roots


def _first_zero_zi(f, bounds):
    """Graded-first zero over Z[i] by exact fiber solving.

    As in _first_zero_z: on the fiber of y_k, f is a*t^2 + L*t + R with a,
    L, R in Z[i], solved by _zi_roots, and the answer is the least (sum of
    coordinate norms, coordinatewise (re, im)) over all roots inside the
    box.  Each other coordinate runs over its axis in graded order, the
    axis materialized once per distinct bound, and a level stops once its
    norm sum exceeds the best sum found; equal sums go on, since the key
    decides a tie.  Sized as the whole box, like the scan it replaces.
    """
    dom = f.domain
    _within_budget(first_zero_count(dom, bounds), "a graded box search")
    if min(bounds) < 0:
        return None
    quad, lin = f.quad, f.lin
    zero = dom._ZERO
    k = _fiber_axis(bounds)
    bk = bounds[k]
    a = quad.get((k, k), zero)
    others = [i for i in range(f.d) if i != k]
    axes = {
        b: [(dom._norm(u), u) for u in dom._graded_raws(b)]
        for b in {bounds[i] for i in others}
    }
    # level p fixes u = y_{others[p]}: as in _first_zero_z, but with the
    # axis in graded order in place of the bound
    levels = [
        (
            axes[bounds[i]],
            quad.get((i, i), zero),
            quad.get((min(i, k), max(i, k)), zero),
            lin[i],
            [quad.get((j, i), zero) for j in others[:p]],
        )
        for p, i in enumerate(others)
    ]
    best = None  # (sum of norms, y)

    def offer(prefix, s, L, R):
        nonlocal best
        for t in _zi_roots(a, L, R):
            if dom._box_radius(t) <= bk:
                cand = (s + dom._norm(t), prefix[:k] + (t,) + prefix[k:])
                if best is None or cand < best:
                    best = cand

    def level(p, R, L, s, prefix):
        axis, (cr, ci), (kr, ki), (br, bi), cross = levels[p]
        for (cjr, cji), (yr, yi) in zip(cross, prefix):
            br += cjr * yr - cji * yi
            bi += cjr * yi + cji * yr
        rr, ri = R
        lr, li = L
        last = p + 1 == len(levels)
        for n, u in axis:
            if best is not None and s + n > best[0]:
                break
            ur, ui = u
            # R + u*(beta + c*u) and L + kappa*u
            er, ei = br + cr * ur - ci * ui, bi + cr * ui + ci * ur
            Ru = (rr + ur * er - ui * ei, ri + ur * ei + ui * er)
            Lu = (lr + kr * ur - ki * ui, li + kr * ui + ki * ur)
            if last:
                offer(prefix + (u,), s + n, Lu, Ru)
            else:
                level(p + 1, Ru, Lu, s + n, prefix + (u,))

    if levels:
        level(0, f.const, lin[k], 0, ())
    else:
        offer((), 0, lin[k], f.const)
    return None if best is None else tuple(DomainElement(dom, c) for c in best[1])
