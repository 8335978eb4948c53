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
norm(b) steps, which the descent enforces as a hard cap.

There is one descent loop, _descend, on raw values: it checks that the
start a/b is a zero, runs the raw step _step until the denominator is the
ring's one, and returns the integral raws with the list of every step's
raws.  _step rounds a/b once (oracle._rounded gives base = round(a/b) and
w0 = a - b*base), runs the raw oracle (oracle._search) on b, base and w0,
checks its norm with integers, and takes v = w0 when the witness is base
itself, else computes v = a - b*y; so v always comes from the step's own
a, b and y, never from the oracle.  It expands f along the line on raws
(QuadraticPolynomial._line_raw, with A the oracle's cleared value
b^2 f2(x - y) = f2(v)), runs every check above and puts x' in canonical
form with domains._canonical.  So each point is certified a zero once, the
start by the loop and every later point by the step that built it, and a
descent of k steps evaluates f at k + 1 points.  descent_step wraps its step's raws
into a DescentStep; descend wraps its result at once and its steps on
first read of DescentTrace.steps, so a caller that reads only the result
wraps no step.  adc_represent and zerotools.verify_adc wrap only the
result and drop the steps.  A FractionPoint is built only for a point that
fails, for the text and fields of the error.

adc_represent solves value representation: for a homogeneous q and a
point x with q(x) = r in the ring, descending q - r from x lands on an
integral point with the same value; adc_trace returns the trace of that
descent.  check_n2 uses the oracle to confirm, element by element, that
the existence of such witnesses forces non-units to have norm > 1.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from fractions import Fraction

from .domains import Domain, DomainElement, FractionPoint, _canonical, _Record
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
from .oracle import _cleared_difference, _rounded, _search, euclidean_step
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
    """The steps of a descent and the integral point it reached.

    A trace from descend holds its steps as the raws _step returned and
    wraps them into DescentSteps when steps is first read, then keeps
    them.  It compares, hashes, prints, matches, copies and pickles as the
    trace built from the wrapped steps would, whether or not steps was
    read.
    """

    steps: tuple[DescentStep, ...]
    result: tuple[DomainElement, ...]

    @classmethod
    def _unwrapped(cls, dom: Domain, x: FractionPoint, raw_steps: list, result: tuple):
        """The trace of a descent from x, with steps still raw."""
        trace = object.__new__(cls)
        trace.__dict__.update(result=result, _raw_steps=(dom, x, raw_steps))
        return trace

    def __getattr__(self, name):
        # reached only for a name missing from __dict__: steps, when this
        # trace came from descend and steps was not read yet
        raws = self.__dict__.get("_raw_steps") if name == "steps" else None
        if raws is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dom, x, raw_steps = raws
        steps = []
        for step in raw_steps:
            steps.append(_wrap_step(dom, x, step))
            x = steps[-1].x_next
        steps = self.__dict__["steps"] = tuple(steps)
        return steps

    def _values(self) -> tuple:
        return self.steps, self.result

    def __getstate__(self):
        return {"steps": self.steps, "result": self.result}


def _shown(value) -> str:
    """str(value) for an error message, or a stand-in when value holds an
    integer past Python's int-to-text limit, where str() raises ValueError
    and would replace the intended message."""
    try:
        return str(value)
    except ValueError:
        return f"<a value of more than {sys.get_int_max_str_digits()} digits>"


def _check_zero(f: QuadraticPolynomial, a, b) -> None:
    """NotAZeroError unless the canonical raw point a/b is a zero of f."""
    if not f.domain._is_zero(f._cleared_raw(a, b)):
        x = FractionPoint._trusted(f.domain, a, b)
        raise NotAZeroError(f"point is not a zero: f({x}) = {_shown(f.eval(x))}")


def _wrap_step(dom: Domain, x: FractionPoint, step) -> DescentStep:
    """The DescentStep of the raw step _step took from x."""
    y, v, A, B, C, bn, a_next, b_next = step
    return DescentStep(
        x,
        tuple(DomainElement(dom, r) for r in y),
        tuple(DomainElement(dom, r) for r in v),
        DomainElement(dom, A),
        DomainElement(dom, B),
        DomainElement(dom, C),
        x.den,
        DomainElement(dom, bn),
        FractionPoint._trusted(dom, a_next, b_next),
    )


def descent_step(f: QuadraticPolynomial, x: FractionPoint, window: int = 2) -> DescentStep:
    """One descent step from a non-integral zero x of f.

    Raises NotAZeroError / IntegralPointError on precondition violations
    and propagates OracleNotFound when no rounding witness exists in the
    window.  All postconditions are asserted exactly before returning.
    """
    f._check_point(x)
    a = [n.raw for n in x.nums]
    _check_zero(f, a, x.den.raw)
    if x.is_integral():
        raise IntegralPointError(f"{x} is already integral")
    return _wrap_step(f.domain, x, _step(f, a, x.den.raw, window))


def _step(f: QuadraticPolynomial, a, b, window: int):
    """One descent step on raws from a/b, a canonical non-integral zero of
    f in f's domain and dimension.  Every postcondition is checked, the
    zero check on x' included.

    Returns the raws (y, v, A, B, C, b', a_next, b_next), where b' = A/b
    and a_next/b_next is x' in canonical form.  Raises OracleNotFound, with
    the point a/b, when no witness exists in the window.
    """
    dom = f.domain
    base, w0 = _rounded(dom, a, b)
    # the oracle's cleared value b^2 f2(x - y) = f2(a - b*y) is A = f2(v)
    y_raws, A, n, b2, nb2 = _search(f, b, base, w0, window)
    if y_raws is None:
        raise OracleNotFound(FractionPoint._trusted(dom, a, b), window, Fraction(n, nb2))
    # v = a - b*y from this step's own a, b and y: on the fast path y is
    # the tuple base, and w0 = a - b*base was computed above
    v_raws = w0 if y_raws is base else _cleared_difference(dom, a, b, y_raws)
    A, B, C = f._line_raw(y_raws, v_raws, A)

    if dom._is_zero(A):
        raise InternalInvariantError("A = f2(v) vanished despite the oracle guarantee")
    # x is a root of F(T) = A T^2 + B T + C at T = 1/b; cleared form:
    acc = dom._add(A, dom._mul(B, b))
    acc = dom._add(acc, dom._mul(C, b2))
    if not dom._is_zero(acc):
        raise InternalInvariantError("A + B*b + C*b^2 != 0")
    try:
        bn = dom._divexact(A, b)
    except ExactDivisionError as err:
        raise InternalInvariantError(
            f"b = {dom._format(b)} does not divide A = f2(v) = {dom._format(A)}"
        ) from err
    cross = dom._add(dom._neg(B), dom._neg(dom._mul(C, b)))
    if bn != cross:
        raise InternalInvariantError("A/b != -B - C*b")
    if dom._is_zero(bn):
        raise InternalInvariantError("b' vanished")
    nb = dom._norm(b)
    nbn = dom._norm(bn)
    if not nbn < nb:
        raise InternalInvariantError(f"no descent: norm(b') = {nbn} >= norm(b) = {nb}")
    # norm(b') = norm(f2(x - y)) * norm(b) with norm(f2(x - y)) = n / N(b^2)
    if nbn * nb2 != n * nb:
        raise InternalInvariantError("norm(b') != norm(f2(x - y)) * norm(b)")

    a_next, b_next = _canonical(
        dom,
        [dom._add(dom._mul(bn, yr), dom._mul(C, vr)) for yr, vr in zip(y_raws, v_raws)],
        bn,
        "point",
    )
    if not dom._is_zero(f._cleared_raw(a_next, b_next)):
        raise InternalInvariantError("f(x') != 0 after the step")
    return y_raws, v_raws, A, B, C, bn, a_next, b_next


def _descend(f: QuadraticPolynomial, a, b, window: int):
    """descend on raws, with the same checks and errors, from a/b, a
    canonical point in f's domain and dimension: (the integral raws
    reached, the list of each step's raws as _step returns them)."""
    _check_zero(f, a, b)
    dom = f.domain
    one, norm = dom._ONE, dom._norm
    cap = norm(b)
    steps = []
    while b != one:
        if len(steps) >= cap:
            raise InternalInvariantError(f"descent exceeded its step cap of {cap}")
        try:
            step = _step(f, a, b, window)
        except OracleNotFound as err:
            raise DescentAborted(len(steps), err.x, err.window, err.min_norm) from err
        bn, a, b = step[5:]
        if not norm(b) <= norm(bn):
            raise InternalInvariantError("denominator grew across canonical reduction")
        steps.append(step)
    return a, steps


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
    dom = f.domain
    result, raw_steps = _descend(f, [n.raw for n in x.nums], x.den.raw, window)
    return DescentTrace._unwrapped(dom, x, raw_steps, tuple(DomainElement(dom, r) for r in result))


def _value_shift(q: QuadraticPolynomial, x: FractionPoint):
    """(q - r, r) for the value r = q(x) as a raw, after checking that q is
    homogeneous and that r lies in the ring."""
    if not q.is_form():
        raise NotAFormError("value representation needs a homogeneous form")
    q._check_point(x)
    r_raw = q._form_value_raw([n.raw for n in x.nums], x.den.raw)
    if r_raw is None:
        raise ValueNotIntegralError(f"q({x}) = {_shown(q.eval(x))} is not in the base ring")
    return q.sub_scalar(r_raw), r_raw


def adc_trace(
    q: QuadraticPolynomial, x: FractionPoint, window: int = 2
) -> tuple[DescentTrace, DomainElement]:
    """Descent trace for the representation problem, plus the value r = q(x).

    q must be homogeneous and q(x) must lie in the ring; the trace descends
    q - r starting from x, so its result y satisfies q(y) = r.
    """
    qr, r_raw = _value_shift(q, x)
    return descend(qr, x, window), DomainElement(q.domain, r_raw)


def adc_represent(
    q: QuadraticPolynomial, x: FractionPoint, window: int = 2
) -> tuple[DomainElement, ...]:
    """An integral point y with q(y) = q(x), found by descending q - q(x):
    the result of adc_trace, with the same checks, but no step wrapped."""
    qr, _ = _value_shift(q, x)
    y, _ = _descend(qr, [n.raw for n in x.nums], x.den.raw, window)
    return tuple(DomainElement(q.domain, r) for r in y)


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
