"""Lazy, budgeted enumerations behind every search.

Each enumeration has a closed-form count() and is checked against
SEARCH_BUDGET when iteration starts, so an oversized request raises
SearchBudgetError before anything is generated:

- GradedBox: the raw points of a box in graded order, that is by (sum of
  coordinate norms, coordinatewise sort key), produced one shell of equal
  norm sum at a time and merged by sort key within the shell;
- CanonicalPoints: the fraction points a/b with numerators a in a box and
  b a canonical denominator, gcd(a, b) a unit, denominators first;
- first_zero: the first integral zero of a polynomial in graded order.
  Over Z it solves each fiber exactly (see _first_zero_z) and never scans
  the solved coordinate; elsewhere it scans a GradedBox.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain, groupby, product
from typing import Optional, Sequence, Tuple

from .domains import Domain, DomainElement, FractionPoint, RationalIntegers
from .errors import SearchBudgetError

# Largest count() an enumeration may start with.  A Z zero search of this
# many fibers takes seconds; three-squares up to n ~ 2.5e6 stays inside.
SEARCH_BUDGET = 10**7


def _within_budget(count: int, what: str) -> None:
    if count > SEARCH_BUDGET:
        raise SearchBudgetError(
            f"{what} would enumerate {count} candidates, "
            f"over the search budget of {SEARCH_BUDGET}"
        )


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
    """Canonical fraction points in the box, denominators first.

    Denominators come in Domain._denominator_raws order (non-units of norm,
    or degree for F_p[t], at most height), preceded by 1 when integral is
    set; for each, the numerator vectors run over the box in product order
    and only those with gcd(nums, den) a unit are kept.  count() is the
    number of (den, nums) candidates examined, kept or not.
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
            dens = chain([dom.coerce_raw(1)], dens)
        if self.d == 1:
            def numerators():
                return ((a,) for a in dom._box_raws(self.box))
        else:
            raws = list(dom._box_raws(self.box))

            def numerators():
                return product(raws, repeat=self.d)

        for den in dens:
            for nums in numerators():
                g = den
                for nr in nums:
                    g = dom._gcd(g, nr)
                    if dom._is_unit(g):
                        break
                if dom._is_unit(g):
                    yield FractionPoint(dom, nums, den)


def _fiber_axis(bounds: Sequence[int]) -> int:
    # solving for the widest coordinate leaves the fewest fibers
    return max(range(len(bounds)), key=lambda i: (bounds[i], i))


def first_zero_count(domain: Domain, bounds: Sequence[int]) -> int:
    """Candidates first_zero examines at most: fibers over Z (the box
    without its solved coordinate), box points elsewhere."""
    if isinstance(domain, RationalIntegers):
        k = _fiber_axis(bounds)
        return math.prod(domain._box_count(b) for i, b in enumerate(bounds) if i != k)
    return GradedBox(domain, bounds).count()


def first_zero(f, bounds: Sequence[int]) -> Optional[Tuple[DomainElement, ...]]:
    """The first integral zero of f in graded order over the box
    prod_i box(bounds[i]), or None; bounds has one entry per variable."""
    dom = f.domain
    if isinstance(dom, RationalIntegers):
        return _first_zero_z(f, list(bounds))
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
