"""Witness search for the Euclidean-form inequality 0 < |f2(x - y)| < 1.

For a non-integral point x = a/b the oracle first tries plain
coordinatewise rounding, y = base, which already suffices for the diagonal
instances shipped here.  If the rounded value lands on the null cone
(norm 0) or is too large, it scans every y = base + o with o in the
per-coordinate offset window and keeps the strict minimum of (value norm,
coordinatewise sort key), so identical inputs always give identical output.

The scan never evaluates f2 from scratch.  With w0 = a - b*base and
f2 = sum_{i<=k} c_ik X_i X_k, the cleared value of a candidate is

    b^2 f2(x - y) = f2(w0 - b*o)
                  = f2(w0) + sum_k [-b*g_k*o_k + b^2*c_kk*o_k^2]
                           + b^2 * sum_{i<k} c_ik*o_i*o_k,

where g_k = 2*c_kk*w0_k + sum_{i<k} c_ik*w0_i + sum_{k<j} c_kj*w0_j is the
gradient row of the table-based bilinear form at w0.  Nothing is halved,
so the identity holds in characteristic 2.  The offsets are walked axis
by axis with one running partial sum per depth: the per-axis terms come
from one precomputed row of |offsets| values per axis, and the cross
coefficient b^2 * sum_{i<k} c_ik*o_i is formed once per prefix.  So each
candidate costs O(1) ring operations and an integer comparison of its
norm against N(b^2), memory is O(d * |offsets|), and a Fraction is built
only for the winner (or, on failure, for OracleNotFound.min_norm).

The scan is sized in closed form, Domain._offset_count(window) ** d
candidates, and refused with SearchBudgetError over SEARCH_BUDGET before
any offset is built.

_search runs all of the above on raw values and returns either the
winning raws or the least norm seen, wrapping nothing.  It takes the point
as b and _rounded's (base, w0), so each caller rounds once and the descent
step, whose fast-path witness is base itself, reuses w0 as its
v = a - b*y.  euclidean_step, the public oracle, checks its point and
returns an OracleResult holding the canonical value f2(x - y) (one ring
gcd).  The descent step calls _search directly and wraps nothing.

check_euclidean never runs the oracle point by point, nor decides a point
at a time.  The verdict at x = a/b, and the least norm of a failing scan,
depend only on b and on w0 = a - b*round(a/b): rounding works coordinate
by coordinate, and the scan's values f2(w0 - b*o) above do not depend on
round(a/b).  So it walks the residue classes of CanonicalPoints, one
denominator at a time, with f2(w0) summed once per class.  A class with
0 < N(f2(w0)) < N(b^2) costs one integer comparison and counts all of its
points; only the others reach a window scan, one per pair of classes
+-w0, since f2(-v) = f2(v) and every offset window is closed under
negation.  The sweep needs only the verdict, so its scans stop at the
first candidate with 0 < N < N(b^2); a failing scan runs in full for its
least norm, and only a failing class is expanded into points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .domains import DomainElement, FractionElement, FractionPoint, _Record
from .enumeration import CanonicalPoints, _within_budget
from .errors import IntegralPointError, OracleNotFound
from .quadratic import QuadraticPolynomial


class OracleResult(_Record):
    """A witness y with value = f2(x - y) and vnorm = ext_norm(value) in (0, 1)."""

    y: tuple[DomainElement, ...]
    value: FractionElement
    vnorm: Fraction


class EuclideanFailure(_Record):
    x: FractionPoint
    window: int
    min_norm: Fraction


class EuclideanReport(_Record):
    checked: int
    failures: tuple[EuclideanFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _cleared_difference(dom, a, b, y) -> list:
    """The raw vector a - b*y, which is b*(x - y), for x = a/b; all raws."""
    return [dom._add(n, dom._neg(dom._mul(b, yi))) for n, yi in zip(a, y)]


def euclidean_step(f: QuadraticPolynomial, x: FractionPoint, window: int = 2) -> OracleResult:
    """Find y with 0 < ext_norm(f2(x - y)) < 1, or raise OracleNotFound.

    Only the quadratic part of f is consulted.  x must not be integral
    (the inequality quantifies over K^d away from R^d).  The offset window
    is measured in norm for Z and Z[i] and in degree for F_p[t].  A scan of
    more than SEARCH_BUDGET candidates raises SearchBudgetError.

    Every comparison is on integers, N(b^2 f2(x - y)) against N(b^2).  The
    scan updates b^2 f2(x - y) incrementally from f2(a - b*round(x)) (see
    the module docstring): O(1) ring operations per candidate and
    O(d * |offsets|) memory.  The sort key of a candidate is formed only
    when its norm ties the least admissible norm so far.
    """
    f._check_point(x)
    if x.is_integral():
        raise IntegralPointError(f"{x} is integral; the witness inequality excludes R^d")
    dom = f.domain
    b = x.den.raw
    y, v, n, b2, nb2 = _search(f, b, *_rounded(dom, [c.raw for c in x.nums], b), window)
    if y is None:
        raise OracleNotFound(x, window, Fraction(n, nb2))
    y = tuple(DomainElement(dom, c) for c in y)
    return OracleResult(y, FractionElement(dom, v, b2), Fraction(n, nb2))


def _rounded(dom, a, b) -> tuple[tuple, tuple]:
    """(base, w0) for the raw point a/b: the coordinatewise rounding
    base = round(a/b) and w0 = a - b*base.  Both are tuples, so neither can
    change after an identity test against base."""
    base = tuple([dom._round_quotient(n, b) for n in a])
    return base, tuple(_cleared_difference(dom, a, b, base))


def _search(f: QuadraticPolynomial, b, base, w0, window: int, first: bool = False):
    """The oracle on raws, for the non-integral point a/b given by its
    denominator b and _rounded(dom, a, b) = (base, w0), so a = w0 + b*base.

    Returns (y, v, n, b^2, N(b^2)): on success the witness y, the cleared
    value v = b^2 f2(a/b - y) and its norm n, with 0 < n < N(b^2); on
    failure y and v are None and n is the least nonzero norm scanned (0
    when every candidate lands on the null cone), so n / N(b^2) is
    OracleNotFound.min_norm.  On the fast path y is base itself, the same
    object, so a caller holding w0 has a - b*y without recomputing it.
    Nothing is wrapped: no DomainElement, Fraction or OracleResult is built
    here.

    With first set, the scan stops at the first candidate with
    0 < n < N(b^2) in scan order, so a success returns a witness but not
    necessarily the least one; a failing scan still runs in full.
    """
    dom = f.domain
    b2 = dom._mul(b, b)
    nb2 = dom._norm(b2)
    f2w0 = f._f2_raw(w0)
    n0 = dom._norm(f2w0)
    if 0 < n0 < nb2:
        return base, f2w0, n0, b2, nb2

    d = f.d
    _within_budget(dom._offset_count(window) ** d, "the oracle's window scan")
    offsets = dom._offset_raws(window)
    add, mul, norm, sort_key = dom._add, dom._mul, dom._norm, dom._sort_key
    zero = dom._ZERO

    # gradient row g at w0, the diagonal, and cross[k] = [(i, b^2*c_ik), i < k]
    g = [zero] * d
    diag = [zero] * d
    cross = [[] for _ in range(d)]
    for (i, j), c in f.quad.items():
        if i == j:
            diag[i] = c
            t = mul(c, w0[i])
            g[i] = add(g[i], add(t, t))
        else:
            g[i] = add(g[i], mul(c, w0[j]))
            g[j] = add(g[j], mul(c, w0[i]))
            cross[j].append((i, mul(b2, c)))
    squares = [mul(o, o) for o in offsets]
    rows = []  # rows[k][j]: -b*g_k*o_j + b^2*c_kk*o_j^2
    for k in range(d):
        lin = dom._neg(mul(b, g[k]))
        quad = mul(b2, diag[k])
        rows.append([add(mul(lin, o), mul(quad, sq)) for o, sq in zip(offsets, squares)])

    def key_of(ix):
        return tuple(sort_key(add(bk, offsets[j])) for bk, j in zip(base, ix))

    idx = [0] * d
    least = math.inf  # least nonzero norm seen
    at = at_num = at_key = None  # its offset indices, value, sort key (lazy)

    def walk(k, s):
        nonlocal least, at, at_num, at_key
        row = rows[k]
        lk = zero
        for i, c in cross[k]:
            lk = add(lk, mul(c, offsets[idx[i]]))
        if not dom._is_zero(lk):
            row = [add(r, mul(lk, o)) for r, o in zip(row, offsets)]
        if k + 1 < d:
            for j, r in enumerate(row):
                idx[k] = j
                if walk(k + 1, add(s, r)):
                    return True
            return False
        for j, r in enumerate(row):
            v = add(s, r)
            n = norm(v)
            if n and n <= least:
                idx[k] = j
                if n < least:
                    least, at, at_num, at_key = n, tuple(idx), v, None
                    if first and n < nb2:
                        return True
                elif n < nb2:
                    key = key_of(idx)
                    if at_key is None:
                        at_key = key_of(at)
                    if key < at_key:
                        at, at_num, at_key = tuple(idx), v, key
        return False

    walk(0, f2w0)
    if least >= nb2:
        return None, None, (least if at is not None else 0), b2, nb2
    y = [add(bk, offsets[j]) for bk, j in zip(base, at)]
    return y, at_num, least, b2, nb2


def check_euclidean(
    f: QuadraticPolynomial, height: int, box: int, window: int = 2
) -> EuclideanReport:
    """Run the oracle over every canonical non-integral point with
    denominator norm (degree, for F_p[t]) at most height and numerator
    coordinates in the box; failures are collected in enumeration order.

    Each point is decided as euclidean_step would decide it, by the
    residue-class argument of the module docstring, one class of
    CanonicalPoints.residue_rows at a time.  Its denominators are non-units,
    so no point is integral.  A coprime class counts all of its points as
    checked; one outside 0 < N(f2(w0)) < N(b^2) runs _search at its first
    point in product order, and that scan stops at its first witness (a
    failing one runs in full).  The result is memoized per denominator
    under w0 and -w0, since f2(-v) = f2(v) and every offset window is
    closed under negation.  So the first scan, and an over-budget window's
    refusal, come at the first point that would scan in a point-by-point
    sweep.  Only the failing classes are expanded into points, sorted into
    product order, with one min_norm Fraction per class and a
    FractionPoint per point.
    """
    dom = f.domain
    norm, neg = dom._norm, dom._neg
    checked = 0
    failures = []
    for den, axis, residues, members, rows in CanonicalPoints(dom, f.d, height, box).residue_rows(f):
        nb2 = norm(dom._mul(den, den))
        sizes = [len(m) for m in members]
        scanned = {}  # residue vector -> least norm of a failing scan, None when found
        failing = []  # (class, min_norm)
        for pos, vals, coprime in rows:
            size = math.prod(sizes[p] for p in pos)
            for j, v in enumerate(vals):
                if not coprime[j]:
                    continue
                checked += size * sizes[j]
                if 0 < norm(v) < nb2:
                    continue
                cls = pos + (j,)
                w0 = tuple(residues[p] for p in cls)
                if w0 not in scanned:
                    a = tuple(axis[members[p][0]] for p in cls)
                    y, _, n, _, _ = _search(f, den, *_rounded(dom, a, den), window, first=True)
                    scanned[w0] = scanned[tuple(map(neg, w0))] = None if y is not None else n
                n = scanned[w0]
                if n is not None:
                    failing.append((cls, Fraction(n, nb2)))
        points = sorted(
            (ix, min_norm)
            for cls, min_norm in failing
            for ix in product(*(members[p] for p in cls))
        )
        for ix, min_norm in points:
            x = FractionPoint._trusted(dom, tuple(axis[k] for k in ix), den)
            failures.append(EuclideanFailure(x, window, min_norm))
    return EuclideanReport(checked, tuple(failures))
