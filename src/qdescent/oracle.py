"""Witness search for the Euclidean-form inequality 0 < |f2(x - y)| < 1.

For a non-integral point x the oracle first tries plain coordinatewise
rounding, which already suffices for the diagonal instances shipped here.
If the rounded value lands on the null cone (norm 0) or is too large, it
scans all points within a per-coordinate offset window around the rounded
point, keeping a running minimum of (value norm, coordinatewise sort key),
so identical inputs always give identical output.  The scan is sized in
closed form (Domain._offset_count(window) ** d candidates) and refused with
SearchBudgetError over SEARCH_BUDGET before any offset is built.  check_euclidean sweeps a bounded family of non-integral points
and collects every point where no witness exists in the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Tuple

from .domains import DomainElement, FractionElement, FractionPoint
from .enumeration import CanonicalPoints, _within_budget
from .errors import IntegralPointError, OracleNotFound
from .quadratic import QuadraticPolynomial


def round_point(x: FractionPoint) -> Tuple[DomainElement, ...]:
    """Coordinatewise nearest ring point.

    Z rounds to the nearest integer with ties toward zero; Z[i] does the
    same independently in the real and imaginary components; F_p[t] takes
    the polynomial part, whose remainder has extended norm < 1.
    """
    dom = x.domain
    b = x.den.raw
    return tuple(DomainElement(dom, dom._round_quotient(n.raw, b)) for n in x.nums)


@dataclass(frozen=True)
class OracleResult:
    """A witness y with value = f2(x - y) and vnorm = ext_norm(value) in (0, 1)."""

    y: Tuple[DomainElement, ...]
    value: FractionElement
    vnorm: Fraction


@dataclass(frozen=True)
class EuclideanFailure:
    x: FractionPoint
    window: int
    min_norm: Fraction


@dataclass(frozen=True)
class EuclideanReport:
    checked: int
    failures: Tuple[EuclideanFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def euclidean_step(f: QuadraticPolynomial, x: FractionPoint, window: int = 2) -> OracleResult:
    """Find y with 0 < ext_norm(f2(x - y)) < 1, or raise OracleNotFound.

    Only the quadratic part of f is consulted.  x must not be integral
    (the inequality quantifies over K^d away from R^d).  The offset window
    is measured in norm for Z and Z[i] and in degree for F_p[t].  A scan of
    more than SEARCH_BUDGET candidates raises SearchBudgetError.
    """
    f._check_point(x)
    if x.is_integral():
        raise IntegralPointError(f"{x} is integral; the witness inequality excludes R^d")
    dom = f.domain
    a = [n.raw for n in x.nums]
    b = x.den.raw
    b2 = dom._mul(b, b)
    nb2 = dom._norm(b2)

    def value_num(y_raws):
        w = [dom._add(ai, dom._neg(dom._mul(b, yi))) for ai, yi in zip(a, y_raws)]
        return f._f2_raw(w)

    base = [dom._round_quotient(ai, b) for ai in a]

    num = value_num(base)
    vn = Fraction(dom._norm(num), nb2)
    if 0 < vn < 1:
        return OracleResult(
            tuple(DomainElement(dom, c) for c in base),
            FractionElement(dom, num, b2),
            vn,
        )

    _within_budget(dom._offset_count(window) ** len(a), "the oracle's window scan")
    offsets = dom._offset_raws(window)
    best = None  # ((vn, sort key), y, num) of the least admissible candidate
    best_nonzero = None
    for offs in product(offsets, repeat=len(a)):
        y = [dom._add(bi, oi) for bi, oi in zip(base, offs)]
        num = value_num(y)
        vn = Fraction(dom._norm(num), nb2)
        if vn > 0 and (best_nonzero is None or vn < best_nonzero):
            best_nonzero = vn
        if 0 < vn < 1:
            key = (vn, tuple(dom._sort_key(c) for c in y))
            if best is None or key < best[0]:
                best = (key, y, num)
    if best is None:
        raise OracleNotFound(
            x, window, best_nonzero if best_nonzero is not None else Fraction(0)
        )
    (vn, _), y, num = best
    return OracleResult(
        tuple(DomainElement(dom, c) for c in y),
        FractionElement(dom, num, b2),
        vn,
    )


def check_euclidean(
    f: QuadraticPolynomial, height: int, box: int, window: int = 2
) -> EuclideanReport:
    """Run euclidean_step over every canonical non-integral point with
    denominator norm (degree, for F_p[t]) at most height and numerator
    coordinates in the box; failures are collected in enumeration order."""
    checked = 0
    failures = []
    for x in CanonicalPoints(f.domain, f.d, height, box):
        checked += 1
        try:
            euclidean_step(f, x, window)
        except OracleNotFound as err:
            failures.append(EuclideanFailure(x, window, err.min_norm))
    return EuclideanReport(checked, tuple(failures))
