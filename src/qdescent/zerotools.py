"""Generation and cross-checking of test inputs for the descent engine.

brute_integral_zero returns the first integral zero of a box in graded
order, by (sum of coordinate norms, coordinatewise sort key), through
enumeration.first_zero, which solves each fiber of the widest coordinate
for it by one walk over the ring: exactly over Z and Z[i], in at most
(2B+1)^(d-1) and (2B+1)^(2(d-1)) fibers for a box of radius B, with one
graded axis per distinct bound in memory; over F_p[t] by testing the
solved axis on each fiber.  A positive diagonal form over Z minus a
constant runs a pruned search on plain integers in O(d) memory instead,
over the nonpositive orthant, where its first zero lies.
Every search is sized before it starts by enumeration._size_first_zero,
the one owner of the rule, and refused with SearchBudgetError over
enumeration.SEARCH_BUDGET; Z[i] and F_p[t] searches are sized as their
whole box.

chord_zero turns one integral zero into further rational zeros: the line
y0 + T*w meets the zero set in a second point at T = -B/A, read off from
the expansion of f along the line.  Those two are the designated sources
of descent inputs, because sampling exact rational points of a quadric
any other way is hard.

verify_adc is the referee: over the canonical fraction points of a box
(enumeration.integral_values, integral ones first) it compares the
descent route with a brute-force search for an integral point of equal
value, and reports disagreements.  It works on the raw (nums, den, r)
triples of the sweep: q(a/b) = q2(a)/b^2 is integral exactly when b^2
divides q2(a), and q2 is summed one coordinate at a time, one ring add per
point for a diagonal form, with no fraction built.  An integral point is
checked in place, q2(a) = r, the check a descent of no step would make,
and the first one of each value goes into a value table that answers
most witness queries; the graded zero search runs only for the rest.
Every other point that passes is descended on raws by descent._descend,
the loop under adc_represent, with every certificate of every step, on
q - r, which is built only for the values such a descent or a witness
search needs, once per value; the zero check of its last step,
q2(y) - r = 0, certifies q(y) = r.  A FractionPoint is built only for a
point that is reported.  A descent that merely fails for want of an
oracle witness is classified "inapplicable", not a failure: it does not
refute value representability, it only means the quadratic part is not
covered by the rounding oracle there (the four-squares form at
all-half-integer points is the canonical example).
"""

from __future__ import annotations

import math
import random

from .domains import DomainElement, FractionPoint, _Record, _Report
from .errors import (
    InternalInvariantError,
    IsotropicDirectionError,
    NotAFormError,
    NotAZeroError,
    OracleNotFound,
    SearchBudgetError,
)
from .descent import _descend
from .enumeration import _is_positive_diagonal_z, _size_first_zero, _within_budget
from .enumeration import first_zero, integral_values
from .quadratic import QuadraticPolynomial


class SearchBox(_Record):
    """Enumeration bounds: num_bound caps coordinates (magnitude for Z, both
    components for Z[i], degree for F_p[t]); height caps denominator norms
    (degree for F_p[t]).  height is ignored by integral-point searches."""

    num_bound: int
    height: int

    def __init__(self, num_bound: int, height: int = 1):
        if num_bound < 0 or height < 0:
            raise ValueError("search bounds must be nonnegative")
        super().__init__(num_bound, height)


def brute_integral_zero(
    f: QuadraticPolynomial, box: SearchBox
) -> tuple[DomainElement, ...] | None:
    """First integral zero of f in graded-lex enumeration order, or None."""
    return first_zero(f, [box.num_bound] * f.d)


def chord_zero(f: QuadraticPolynomial, y0, w) -> FractionPoint:
    """Second intersection of the line y0 + T*w with the zero set of f.

    y0 must be an integral zero and w a direction with f2(w) != 0 (else
    the line leaves the zero set after y0 for good).  The root T = -B/A
    of the line expansion gives the point (A*y0 - B*w)/A; a tangent line
    (B = 0) returns y0 itself.
    """
    dom = f.domain
    y0v = f._coerce_vector(y0)
    wv = f._coerce_vector(w)
    if not dom._is_zero(f._eval_raw(y0v)):
        raise NotAZeroError("chord base point is not a zero of f")
    a_raw, b_raw, _ = f._line_raw(y0v, wv)
    if dom._is_zero(a_raw):
        raise IsotropicDirectionError(
            "f2 vanishes on the chord direction; no second intersection"
        )
    if dom._is_zero(b_raw):
        return FractionPoint(dom, y0v, 1)
    nums = [
        dom._add(dom._mul(a_raw, yc), dom._neg(dom._mul(b_raw, wc)))
        for yc, wc in zip(y0v, wv)
    ]
    return FractionPoint(dom, nums, a_raw)


def random_rational_zero(
    f: QuadraticPolynomial,
    y0,
    seed: int,
    height_min: int = 2,
    direction_bound: int = 9,
    attempts: int = 500,
) -> FractionPoint:
    """Seeded non-integral rational zero of f through chord directions.

    Draws random directions until the chord point is non-integral with
    denominator norm at least height_min; deterministic for a fixed seed.
    Raises SearchBudgetError after the attempt budget.
    """
    dom = f.domain
    rng = random.Random(seed)
    for _ in range(attempts):
        w = [dom._random_raw(rng, direction_bound) for _ in range(f.d)]
        if all(dom._is_zero(c) for c in w):
            continue
        if dom._is_zero(f._f2_raw(w)):
            continue
        x = chord_zero(f, y0, w)
        if not x.is_integral() and x.den.norm() >= height_min:
            return x
    raise SearchBudgetError(
        f"no chord direction in {attempts} attempts reached denominator norm >= {height_min}"
    )


class AdcFinding(_Record):
    x: FractionPoint
    value: DomainElement
    detail: str


class AdcReport(_Report):
    checked: int
    failures: tuple[AdcFinding, ...]
    inapplicable: tuple[AdcFinding, ...]


def verify_adc(q: QuadraticPolynomial, box: SearchBox, window: int = 2) -> AdcReport:
    """Compare descent against brute force on every box point with q(x) in R.

    For positive diagonal forms over Z the witness box is derived from the
    value (|y_i| <= isqrt(r / c_ii)), making the brute search exhaustive;
    elsewhere a bounded heuristic box is used, enlarged to contain the
    descent witness whenever descent succeeded, so a successful descent can
    never be contradicted by a too-small search.

    An integral point a is checked in place: q2(a) must equal the sweep's
    r (InternalInvariantError otherwise), and it takes no descent.  Only a
    non-integral point is descended, on q - r built for its value r, and
    the last step of that descent certifies q(y) = r for its result y.

    The sweep runs denominator 1 first, where every point a of
    box(num_bound)^d passes with its value r = q2(a); the first such point
    of each r goes into the value table taken, and is queried, so charged,
    at once.  A witness query, r and a box (r alone for a positive
    diagonal form), is answered once and memoized.  taken decides it by
    containment: a point of value r lies in every heuristic box, whose
    radius is at least num_bound, and for a positive diagonal form proves
    r represented outright; a value missing from taken has no witness in
    a box inside box(num_bound).  Only a missing value over a box reaching
    past box(num_bound) runs the graded search, _first_value_witness.

    The sweep is sized before it starts.  Each witness query is sized by
    enumeration._size_first_zero whether or not its search runs, so one
    over the budget by itself is refused as first_zero refuses it, and it
    adds that count to the call's total: the query that takes the total
    past SEARCH_BUDGET is refused.
    """
    if not q.is_form():
        raise NotAFormError("the representation check needs a homogeneous form")
    dom = q.domain
    d = q.d
    diagonal = _is_positive_diagonal_z(q)
    taken = {}  # r -> the first point of box(num_bound)^d with value r
    answers = {}  # (r, None) for a diagonal form, else (r, box radius) -> witness or None
    shifted = {}  # r -> q - r, built once per value that needs it
    searched = 0  # first_zero candidates of the queries answered so far

    def shift(r_raw):
        qr = shifted.get(r_raw)
        if qr is None:
            qr = shifted[r_raw] = q.sub_scalar(r_raw)
        return qr

    def brute_witness(r_raw, radius):
        nonlocal searched
        key = (r_raw, None) if diagonal else (r_raw, radius)
        if key in answers:
            return answers[key]
        if diagonal:
            # r >= 0: every value of a positive diagonal form is
            bounds = [
                math.isqrt(r_raw // q.quad[(i, i)]) if (i, i) in q.quad else 0
                for i in range(d)
            ]
        else:
            bounds = [radius] * d
        searched += _size_first_zero(dom, bounds)
        _within_budget(searched, "the witness searches of a representation check")
        witness = taken.get(r_raw)
        if witness is None and max(bounds) > box.num_bound:
            # box(num_bound)^d does not take r: a witness lies past it or nowhere
            witness = _first_value_witness(shift(r_raw), r_raw, bounds)
        answers[key] = witness
        return witness

    one = dom._ONE
    f2 = q._f2_raw
    checked = 0
    failures = []
    inapplicable = []
    for nums, den, r_raw in integral_values(q, box.height, box.num_bound):
        checked += 1
        if den == one:
            # the start check of a zero-step descent, q2(nums) - r = 0, in
            # place: nums is then r's witness
            if f2(nums) != r_raw:
                raise InternalInvariantError("the sweep gave an integral point a wrong value")
            if r_raw not in taken:
                taken[r_raw] = nums
                brute_witness(r_raw, box.num_bound)
            continue
        try:
            y, _ = _descend(shift(r_raw), nums, den, window)
        except OracleNotFound as err:
            y = None
            note = f"no oracle witness in window {window} (best norm {err.min_norm})"
        if y is not None:
            # the last step's zero check, q2(y) - r = 0, certified q(y) = r
            radius = box.num_bound
            if not diagonal:
                radius = max([radius] + [dom._box_radius(c) for c in y])
            if brute_witness(r_raw, radius) is not None:
                continue
            found, detail = failures, "brute search missed a value descent represents"
        elif brute_witness(r_raw, box.num_bound) is not None:
            found, detail = inapplicable, note + "; brute search still represents the value"
        elif diagonal:
            found, detail = failures, "value attained on K^d but on no integral point"
        else:
            found, detail = failures, note + "; no witness in the heuristic box either"
        x = FractionPoint._trusted(dom, nums, den)
        found.append(AdcFinding(x, DomainElement(dom, r_raw), detail))
    return AdcReport(checked, tuple(failures), tuple(inapplicable))


def _first_value_witness(qr: QuadraticPolynomial, r_raw, bounds):
    """The first integral zero of qr = q - r_raw in the box, or None: the
    search behind the verify_adc witness queries that its value table does
    not decide, those for a value that box(num_bound)^d does not take over
    a box reaching past it.  Kept as a named call: perfbench's tracer counts
    witness searches (and verify_adc's table hits) by wrapping this name."""
    return first_zero(qr, bounds)
