"""Descent from rational zeros to integral zeros of quadratic polynomials.

Given a zero x = a/b of f whose quadratic part admits a rounding witness,
one step produces a new zero x' = a'/b' with strictly smaller denominator
norm:

    y from the oracle,  v = a - b*y,
    f(y + T*v) = A*T^2 + B*T + C  with  A = f2(v), C = f(y),
    b' = A/b = -B - C*b,          a' = b'*y + C*v.

Every identity in that construction is re-checked at runtime on ring
elements; a violation raises InternalInvariantError because it can only
mean a bug, never bad input.  Iterating must therefore terminate within
norm(b) steps, which descend enforces as a hard cap.

Each point is certified a zero once.  descent_step checks its input x and
then runs the step; descend checks the starting point and loops the step
alone, because the step's own post-check f(x') = 0 certifies every later
point, so a descent of k steps evaluates f at k + 1 points.  The step
runs the raw oracle (oracle._search), checks its norm with integers,
expands f along the line on raws (QuadraticPolynomial._line_raw) and
wraps y, v, A, B and C once, for the DescentStep.

adc_represent wraps the iteration for value representation: for a
homogeneous q and a point x with q(x) = r in the ring, descending q - r
from x lands on an integral point with the same value.  check_n2 uses the
oracle to confirm, element by element, that the existence of such
witnesses forces non-units to have norm > 1.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from fractions import Fraction

from .domains import Domain, DomainElement, FractionPoint, _Record
from .errors import (
    DescentAborted,
    DomainMismatchError,
    ExactDivisionError,
    IntegralPointError,
    InternalInvariantError,
    NotAFormError,
    NotAZeroError,
    OracleNotFound,
    ValueNotIntegralError,
)
from .oracle import _cleared_difference, _search, euclidean_step
from .quadratic import QuadraticPolynomial


class DescentStep(_Record):
    x: FractionPoint
    y: tuple[DomainElement, ...]
    v: tuple[DomainElement, ...]
    A: DomainElement
    B: DomainElement
    C: DomainElement
    b: DomainElement
    b_next: DomainElement
    x_next: FractionPoint


class DescentTrace(_Record):
    steps: tuple[DescentStep, ...]
    result: tuple[DomainElement, ...]


def _shown(value) -> str:
    """str(value) for an error message, or a stand-in when value holds an
    integer past Python's int-to-text limit, where str() raises ValueError
    and would replace the intended message."""
    try:
        return str(value)
    except ValueError:
        return f"<a value of more than {sys.get_int_max_str_digits()} digits>"


def descent_step(f: QuadraticPolynomial, x: FractionPoint, window: int = 2) -> DescentStep:
    """One descent step from a non-integral zero x of f.

    Raises NotAZeroError / IntegralPointError on precondition violations
    and propagates OracleNotFound when no rounding witness exists in the
    window.  All postconditions are asserted exactly before returning.
    """
    f._check_point(x)
    if not f.domain._is_zero(f._cleared_raw(x)):
        raise NotAZeroError(f"point is not a zero: f({x}) = {_shown(f.eval(x))}")
    if x.is_integral():
        raise IntegralPointError(f"{x} is already integral")
    return _step(f, x, window)


def _step(f: QuadraticPolynomial, x: FractionPoint, window: int) -> DescentStep:
    """descent_step for a point x already known to be a non-integral zero
    of f in f's domain and dimension; every postcondition is still checked,
    the zero check on x_next included."""
    dom = f.domain
    a_raws = [n.raw for n in x.nums]
    b_raw = x.den.raw
    y_raws, _, n, _, nb2 = _search(f, a_raws, b_raw, window)
    if y_raws is None:
        raise OracleNotFound(x, window, Fraction(n, nb2))
    v_raws = _cleared_difference(dom, a_raws, b_raw, y_raws)
    A, B, C = f._line_raw(y_raws, v_raws)

    if dom._is_zero(A):
        raise InternalInvariantError("A = f2(v) vanished despite the oracle guarantee")
    # x is a root of F(T) = A T^2 + B T + C at T = 1/b; cleared form:
    acc = dom._add(A, dom._mul(B, b_raw))
    acc = dom._add(acc, dom._mul(C, dom._mul(b_raw, b_raw)))
    if not dom._is_zero(acc):
        raise InternalInvariantError("A + B*b + C*b^2 != 0")
    try:
        bn_raw = dom._divexact(A, b_raw)
    except ExactDivisionError as err:
        raise InternalInvariantError(
            f"b = {dom._format(b_raw)} does not divide A = f2(v) = {dom._format(A)}"
        ) from err
    cross = dom._add(dom._neg(B), dom._neg(dom._mul(C, b_raw)))
    if bn_raw != cross:
        raise InternalInvariantError("A/b != -B - C*b")
    if dom._is_zero(bn_raw):
        raise InternalInvariantError("b' vanished")
    nb = dom._norm(b_raw)
    nbn = dom._norm(bn_raw)
    if not nbn < nb:
        raise InternalInvariantError(f"no descent: norm(b') = {nbn} >= norm(b) = {nb}")
    # norm(b') = norm(f2(x - y)) * norm(b) with norm(f2(x - y)) = n / N(b^2)
    if nbn * nb2 != n * nb:
        raise InternalInvariantError("norm(b') != norm(f2(x - y)) * norm(b)")

    a_next = [
        dom._add(dom._mul(bn_raw, yr), dom._mul(C, vr))
        for yr, vr in zip(y_raws, v_raws)
    ]
    x_next = FractionPoint(dom, a_next, bn_raw)
    if not dom._is_zero(f._cleared_raw(x_next)):
        raise InternalInvariantError("f(x') != 0 after the step")

    return DescentStep(
        x,
        tuple(DomainElement(dom, r) for r in y_raws),
        tuple(DomainElement(dom, r) for r in v_raws),
        DomainElement(dom, A),
        DomainElement(dom, B),
        DomainElement(dom, C),
        x.den,
        DomainElement(dom, bn_raw),
        x_next,
    )


def descend(f: QuadraticPolynomial, x: FractionPoint, window: int = 2) -> DescentTrace:
    """Iterate the descent step until the zero is integral.

    x is checked once on entry (NotAZeroError when f(x) != 0); every later
    point is a zero because the step that built it checked f(x') = 0, so
    a descent of k steps evaluates f at k + 1 points.  The denominator
    norms strictly decrease, so a successful run takes at most norm(b0)
    steps; crossing that cap is an internal error, not an input error.  An
    oracle failure surfaces as DescentAborted carrying the step index.
    """
    f._check_point(x)
    if not f.domain._is_zero(f._cleared_raw(x)):
        raise NotAZeroError(f"point is not a zero: f({x}) = {_shown(f.eval(x))}")
    cap = x.den.norm()
    steps = []
    cur = x
    while not cur.is_integral():
        if len(steps) >= cap:
            raise InternalInvariantError(f"descent exceeded its step cap of {cap}")
        try:
            step = _step(f, cur, window)
        except OracleNotFound as err:
            raise DescentAborted(len(steps), err.x, err.window, err.min_norm) from err
        if steps and not step.b.norm() <= steps[-1].b_next.norm():
            raise InternalInvariantError("denominator grew across canonical reduction")
        steps.append(step)
        cur = step.x_next
    return DescentTrace(tuple(steps), cur.integral_point())


def adc_trace(
    q: QuadraticPolynomial, x: FractionPoint, window: int = 2
) -> tuple[DescentTrace, DomainElement]:
    """Descent trace for the representation problem, plus the value r = q(x).

    q must be homogeneous and q(x) must lie in the ring; the trace descends
    q - r starting from x, so its result y satisfies q(y) = r.
    """
    if not q.is_form():
        raise NotAFormError("value representation needs a homogeneous form")
    q._check_point(x)
    r_raw = q._form_value_raw([n.raw for n in x.nums], x.den.raw)
    if r_raw is None:
        raise ValueNotIntegralError(f"q({x}) = {_shown(q.eval(x))} is not in the base ring")
    r = DomainElement(q.domain, r_raw)
    trace = descend(q.sub_scalar(r), x, window)
    return trace, r


def adc_represent(
    q: QuadraticPolynomial, x: FractionPoint, window: int = 2
) -> tuple[DomainElement, ...]:
    """An integral point y with q(y) = q(x), found by descending q - q(x)."""
    return adc_trace(q, x, window)[0].result


class N2Failure(_Record):
    element: DomainElement
    reason: str


class N2Report(_Record):
    checked: int
    failures: tuple[N2Failure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_n2(
    domain: Domain,
    q: QuadraticPolynomial,
    elements: Iterable,
    window: int = 2,
) -> N2Report:
    """Check that nonzero non-units have norm > 1, twice over.

    Directly: norm(a) > 1 for each enumerated nonzero non-unit a.
    Constructively: run the oracle at x = e1/a; with witness y, the ring
    element q(e1 - a*y) = a^2 * q(x - y) must have norm strictly between
    0 and norm(a)^2, which is only possible when norm(a) > 1 since norms
    are integers.  q must be homogeneous (degree 2 throughout).
    """
    if not q.is_form():
        raise NotAFormError("the unit-norm check needs a homogeneous form")
    if q.domain != domain:
        raise DomainMismatchError(
            f"form over {q.domain.name}, elements over {domain.name}"
        )
    e1 = [domain.one] + [domain.zero] * (q.d - 1)
    checked = 0
    failures = []
    for el in elements:
        a = domain.element(el)
        if a.is_zero() or a.is_unit():
            continue
        checked += 1
        if not a.norm() > 1:
            failures.append(N2Failure(a, f"non-unit with norm {a.norm()}"))
        x = FractionPoint(domain, e1, a)
        try:
            found = euclidean_step(q, x, window)
        except OracleNotFound as err:
            failures.append(
                N2Failure(a, f"no witness in window {window} (best norm {err.min_norm})")
            )
            continue
        w = _cleared_difference(
            domain, [n.raw for n in x.nums], x.den.raw, [yi.raw for yi in found.y]
        )
        nv = domain._norm(q._eval_raw(w))
        bound = x.den.norm() ** 2
        if not 0 < nv < bound:
            failures.append(
                N2Failure(a, f"witness value norm {nv} outside (0, {bound})")
            )
    return N2Report(checked, tuple(failures))
