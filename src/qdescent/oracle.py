"""Witness search for the Euclidean-form inequality 0 < |f2(x - y)| < 1.

For a non-integral point x = a/b the oracle first tries plain
coordinatewise rounding, y = base, which already suffices for the diagonal
instances shipped here.  If the rounded value lands on the null cone
(norm 0) or is too large, it scans every y = base + o with o in the
per-coordinate offset window and keeps the strict minimum of (value norm,
coordinatewise sort key), so identical inputs always give identical output.

The scan sums the cleared value b^2 f2(x - y) = f2(w0 - b*o), with
w0 = a - b*base, with enumeration._q2_prefixes, the walk the canonical
point sweeps sum q2 with: coordinate k runs over the values w0_k - b*o,
o in the offsets, and each prefix of the first d - 1 coordinates comes with its
partial sum and the linear coefficient its cross terms give the last
coordinate, which the scan runs inline.  So each candidate costs O(1)
ring operations and an integer comparison of its norm against N(b^2),
memory is O(d * |offsets|), and a Fraction is built only for the winner
(or, on failure, for OracleNotFound.min_norm).  Nothing is halved, so the
sum holds in characteristic 2.

The scan is sized in closed form, Domain._offset_count(window) ** d
candidates, and refused with SearchBudgetError over SEARCH_BUDGET before
any offset is built.

_search runs all of the above on raw values and returns either the
winning raws or the least norm seen, wrapping nothing.  It takes the point
as b and (base, w0) from domains._rounded, the one owner of the rounding
residue, so each caller rounds once and the descent step, whose fast-path
witness is base itself, reuses w0 as its v = a - b*y.  euclidean_step,
the public oracle, checks its point and returns an OracleResult holding
the canonical value f2(x - y) (one ring gcd).  The descent step calls
_search directly and wraps nothing.

check_euclidean never runs the oracle point by point, nor decides a point
at a time.  The verdict at x = a/b, and the least norm of a failing scan,
depend only on b and on w0 = a - b*round(a/b): rounding works coordinate
by coordinate, and the scan's values f2(w0 - b*o) above do not depend on
round(a/b).  So it walks the residue classes of enumeration.residue_rows,
one denominator at a time, with f2(w0) summed once per class.  A class with
0 < N(f2(w0)) < N(b^2) costs one integer comparison and counts all of its
points; only the others reach a window scan.  Every offset window is a
product of per-coordinate offset sets closed under negation, so negating
a set of coordinates of w0 under which f2 is invariant only permutes the
candidate values f2(w0 - b*o): the verdict and the least norm stay.  With
no cross term f2 is invariant under negating any coordinate, and
residue_rows already takes such a form's classes up to sign; every
form has f2(-v) = f2(v), so the scan at w0 also decides the class of -w0.
The sweep needs only the verdict, so its scans stop at the first
candidate with 0 < N < N(b^2); a failing scan runs in full for its least
norm, and only a failing class is expanded into points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .domains import DomainElement, FractionElement, FractionPoint, _Record, _Report, _rounded
from .enumeration import _q2_prefixes, _square_rows, _within_budget, residue_rows
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


class EuclideanReport(_Report):
    checked: int
    failures: tuple[EuclideanFailure, ...]


def euclidean_step(f: QuadraticPolynomial, x: FractionPoint, window: int = 2) -> OracleResult:
    """Find y with 0 < ext_norm(f2(x - y)) < 1, or raise OracleNotFound.

    Only the quadratic part of f is consulted.  x must not be integral
    (the inequality quantifies over K^d away from R^d).  The offset window
    is measured in norm for Z and Z[i] and in degree for F_p[t].  A scan of
    more than SEARCH_BUDGET candidates raises SearchBudgetError.

    Every comparison is on integers, N(b^2 f2(x - y)) against N(b^2).  The
    scan sums b^2 f2(x - y) = f2(w0 - b*o) one coordinate at a time (see
    the module docstring): O(1) ring operations per candidate and
    O(d * |offsets|) memory.  The sort key of a candidate is formed only
    when its norm ties the least admissible norm so far.
    """
    a, b = f._point_raws(x)
    if x.is_integral():
        raise IntegralPointError(f"{x} is integral; the witness inequality excludes R^d")
    dom = f.domain
    y, v, n, b2, nb2 = _search(f, b, *_rounded(dom, a, b), window)
    if y is None:
        raise OracleNotFound(x, window, Fraction(n, nb2))
    y = tuple(DomainElement(dom, c) for c in y)
    return OracleResult(y, FractionElement(dom, v, b2), Fraction(n, nb2))


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

    The scan reads enumeration._q2_prefixes (see the module docstring).
    With first set, it stops at the first candidate with 0 < n < N(b^2) in
    scan order, so a success returns a witness but not necessarily the
    least one; a failing scan still runs in full.
    """
    dom = f.domain
    b2 = dom._mul(b, b)
    nb2 = dom._norm(b2)
    f2w0 = f._f2_raw(w0)
    n0 = dom._norm(f2w0)
    if 0 < n0 < nb2:
        return base, f2w0, n0, b2, nb2

    _within_budget(dom._offset_count(window) ** f.d, "the oracle's window scan")
    offsets = dom._offset_raws(window)
    add, mul, norm, sort_key = dom._add, dom._mul, dom._norm, dom._sort_key

    # vals[k][j]: coordinate k of w0 - b*offsets[j]
    shifts = [dom._neg(mul(b, o)) for o in offsets]
    vals = [[add(w, t) for t in shifts] for w in w0]
    squares = _square_rows(dom, f, vals, {})
    last, squares_last, zero = vals[-1], squares[-1], dom._ZERO

    def key_of(ix):
        return tuple(sort_key(add(bk, offsets[j])) for bk, j in zip(base, ix))

    least = math.inf  # least nonzero norm seen
    at = at_num = at_key = None  # its offset indices, value, sort key (lazy)
    for pos, s, lin in _q2_prefixes(dom, f, vals, squares):
        # candidate j's value s + c*w^2 + lin*w at w = last[j], summed
        # inline so that first stops the row early; an absent term (no
        # square, no lin, or s zero) is not added
        s_zero = s == zero
        for j, w in enumerate(last):
            r = zero if squares_last is None else squares_last[j]
            if lin is not None:
                t = mul(lin, w)
                r = t if squares_last is None else add(r, t)
            v = r if s_zero else add(s, r)
            n = norm(v)
            if n and n <= least:
                if n < least:
                    least, at, at_num, at_key = n, pos + (j,), v, None
                    if first and n < nb2:
                        break
                elif n < nb2:
                    key = key_of(pos + (j,))
                    if at_key is None:
                        at_key = key_of(at)
                    if key < at_key:
                        at, at_num, at_key = pos + (j,), v, key
        else:
            continue
        break
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
    enumeration.residue_rows at a time.  For a form with no cross term
    a class is a residue vector up to the sign of each coordinate, which
    is exact: f2 = sum c_ii*w_i^2, so negating a coordinate of w0 changes
    neither f2(w0) nor the scan's verdict and least norm.  Its denominators
    are non-units, so no point is integral.  A coprime class counts all of
    its points as checked; one outside 0 < N(f2(w0)) < N(b^2) runs _search
    at its first point in product order, whose residue vector is the
    class's w0, and that scan stops at its first witness (a failing one
    runs in full).  The result is memoized per denominator under w0 and
    -w0, since f2(-v) = f2(v) for every form, so a form with cross terms
    still runs one scan per pair of classes +-w0.  The first scan, and an
    over-budget window's refusal, come at the first point that would scan
    in a point-by-point sweep.  Only the failing classes are expanded into
    points, sorted into product order, with one min_norm Fraction per class
    and a FractionPoint per point.
    """
    dom = f.domain
    norm, neg = dom._norm, dom._neg
    checked = 0
    failures = []
    for den, axis, residues, members, rows in residue_rows(f, height, box):
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
