import random
from itertools import product
from fractions import Fraction

import pytest

import qdescent.descent as descent_module
import qdescent.oracle as oracle_module
from qdescent import (
    DescentAborted,
    DescentTrace,
    DomainMismatchError,
    FractionPoint,
    GFpT,
    IntegralPointError,
    InternalInvariantError,
    NotAFormError,
    NotAZeroError,
    OracleNotFound,
    QuadraticPolynomial,
    ValueNotIntegralError,
    ZI,
    ZZ,
    adc_represent,
    adc_trace,
    brute_integral_zero,
    check_n2,
    chord_zero,
    descend,
    descent_step,
    parse_form,
    random_rational_zero,
    SearchBox,
    verify_adc,
)

F2 = GFpT(2)
F3 = GFpT(3)


def assert_step_invariants(f, step):
    dom = f.domain
    # b'·b = A and b' = -B - C·b, exactly
    assert step.b_next * step.b == step.A
    assert step.b_next == -step.B - step.C * step.b
    assert not step.b_next.is_zero()
    assert step.b_next.norm() < step.b.norm()
    # A = f2(v), C = f(y), and x_next really is a zero
    assert step.A.raw == f._f2_raw([c.raw for c in step.v])
    assert step.C == f.eval_at_integral([c.raw for c in step.y])
    assert f.eval(step.x_next).is_zero()
    # v = a - b·y
    for vc, a, y in zip(step.v, step.x.nums, step.y):
        assert vc == a - step.b * y


def test_worked_example_z():
    f = parse_form("x^2+y^2-5", ZZ)
    x = FractionPoint(ZZ, [-11, 2], 5)
    trace = descend(f, x)
    assert len(trace.steps) == 1
    s = trace.steps[0]
    assert [c.raw for c in s.y] == [-2, 0]
    assert [c.raw for c in s.v] == [-1, 2]
    assert (s.A.raw, s.B.raw, s.C.raw) == (5, 4, -1)
    assert s.b_next.raw == 1
    assert str(s.x_next) == "-1,-2/1"
    assert [c.raw for c in trace.result] == [-1, -2]
    assert_step_invariants(f, s)


def test_integral_zero_echoes():
    f = parse_form("x^2+y^2-5", ZZ)
    trace = descend(f, FractionPoint(ZZ, [1, 2], 1))
    assert trace.steps == ()
    assert [c.raw for c in trace.result] == [1, 2]


def test_descend_requires_a_zero():
    f = parse_form("x^2+y^2-5", ZZ)
    with pytest.raises(NotAZeroError, match="not a zero"):
        descend(f, FractionPoint(ZZ, [1, 1], 1))
    with pytest.raises(NotAZeroError):
        descend(f, FractionPoint(ZZ, [1, 1], 2))


def test_descent_step_rejects_integral_points():
    f = parse_form("x^2+y^2-5", ZZ)
    with pytest.raises(IntegralPointError):
        descent_step(f, FractionPoint(ZZ, [1, 2], 1))


def test_descent_gaussian_frozen():
    f = parse_form("x1*x2-2*i", ZI)
    x = FractionPoint(ZI, [(0, -4), (0, -1)], (1, 1))
    trace = descend(f, x)
    assert len(trace.steps) == 1
    s = trace.steps[0]
    assert [c.raw for c in s.y] == [(-3, -2), (-1, -1)]
    assert [c.raw for c in s.v] == [(1, 1), (0, 1)]
    assert s.A.raw == (-1, 1)
    assert s.B.raw == (2, -5)
    assert s.C.raw == (1, 3)
    assert s.b_next.raw == (0, 1)  # a unit: one step suffices
    assert [c.raw for c in trace.result] == [(1, 0), (0, 2)]
    assert_step_invariants(f, s)


def test_descent_char2_frozen():
    f = parse_form("x1^2+t*x2^2+x1+t^2", F2)
    x = FractionPoint(F2, [(1, 1, 1), (0, 1)], (1, 1))
    assert f.eval(x).is_zero()
    trace = descend(f, x)
    assert len(trace.steps) == 1
    s = trace.steps[0]
    assert [c.raw for c in s.y] == [(0, 1), (1,)]
    assert s.b_next.raw == (1,)
    assert [c.raw for c in trace.result] == [(0, 1), (1,)]
    assert_step_invariants(f, s)


def test_descent_aborted_when_oracle_fails():
    f = parse_form("w^2+x^2+y^2+z^2-1", ZZ)
    x = FractionPoint(ZZ, [1, 1, 1, 1], 2)
    assert f.eval(x).is_zero()
    with pytest.raises(DescentAborted) as err:
        descend(f, x)
    assert err.value.step_index == 0
    assert err.value.min_norm == 1
    assert err.value.x == x


def test_descent_chain_certificates():
    # 200-point sweep lives in the acceptance suite; here a smaller seeded one
    q = parse_form("x^2+y^2+z^2", ZZ)
    rng = random.Random(5)
    for trial in range(40):
        n = rng.choice([2, 3, 5, 6, 11, 13, 21, 26, 29, 38, 41, 50])
        f = q.sub_scalar(n)
        y0 = brute_integral_zero(f, SearchBox(7))
        x = random_rational_zero(f, y0, seed=1000 + trial, height_min=2)
        trace = descend(f, x)
        assert len(trace.steps) <= x.den.norm()
        for s in trace.steps:
            assert_step_invariants(f, s)
            # norm(b') = ext_norm(f2(x-y)) * norm(b), checked via A = f2(v):
            # ext_norm(f2(x-y)) = norm(A)/norm(b)^2
            assert s.b_next.norm() * s.b.norm() == s.A.norm()
        assert [c.raw for c in trace.result] and f.eval_at_integral(trace.result) == 0
        # denominator norms strictly decrease along the chain
        chain = [s.b.norm() for s in trace.steps]
        assert all(a > b for a, b in zip(chain, chain[1:]))


def _a(dom, b, base, w0):
    """The numerators a = w0 + b*base of the point an oracle is asked about."""
    return [dom._add(w, dom._mul(b, c)) for w, c in zip(w0, base)]


def _seeded_random_search(seed):
    """A raw oracle in place of oracle._search that skips the fast path and
    returns a seeded random admissible witness from its own window scan."""
    rng = random.Random(seed)

    def search(f, b, base, w0, window):
        dom = f.domain
        b2 = dom._mul(b, b)
        nb2 = dom._norm(b2)
        a = _a(dom, b, base, w0)
        admissible = []
        for offs in product(dom._offset_raws(window), repeat=f.d):
            y = [dom._add(c, o) for c, o in zip(base, offs)]
            v = f._f2_raw([dom._add(n, dom._neg(dom._mul(b, c))) for n, c in zip(a, y)])
            if 0 < dom._norm(v) < nb2:
                admissible.append((y, v, dom._norm(v), b2, nb2))
        return rng.choice(admissible)

    return search


ADMISSIBLE_CASES = pytest.mark.parametrize(
    "dom, text, bound",
    [(ZZ, "x^2+y^2+z^2-26", 6), (ZI, "x1*x2-2*i", 2), (F2, "x1*x2+x3^2+t", 1)],
    ids=["Z", "Zi", "Fpt:2"],
)


@ADMISSIBLE_CASES
def test_descent_certificates_hold_for_any_admissible_witness(monkeypatch, dom, text, bound):
    # the certificates must not depend on which admissible witness is used
    f = parse_form(text, dom)
    y0 = brute_integral_zero(f, SearchBox(bound))
    x = random_rational_zero(f, y0, seed=77, height_min=3)
    results = set()
    for seed in range(6):
        monkeypatch.setattr(descent_module, "_search", _seeded_random_search(seed))
        trace = descend(f, x)
        for step in trace.steps:
            assert_step_invariants(f, step)
        assert f.eval_at_integral(trace.result) == 0
        results.add(tuple(c.raw for c in trace.result))
    # the seeds reach different integral zeros, so other witnesses were used
    assert len(results) > 1


def _misreported_norm(f, b, base, w0, window):
    y, v, n, b2, nb2 = oracle_module._search(f, b, base, w0, window)
    return y, v, n + 1, b2, nb2


def _misreported_value(f, b, base, w0, window):
    # the step takes A = f2(v) from the oracle's cleared value; an A off by
    # 1 makes A + B*b + C*b^2 = 1 - b, nonzero for the non-unit b, in every
    # characteristic
    y, v, n, b2, nb2 = oracle_module._search(f, b, base, w0, window)
    return y, f.domain._add(v, f.domain._ONE), n, b2, nb2


def _origin_witness(f, b, base, w0, window):
    # f = f2 - c with N(c) >= 1 in every ADMISSIBLE_CASES form, so at a zero
    # x the origin has |f2(x - 0)| = |c| >= 1: reported honestly, but not
    # admissible
    dom = f.domain
    b2 = dom._mul(b, b)
    v = f._f2_raw(_a(dom, b, base, w0))
    return [dom._ZERO] * f.d, v, dom._norm(v), b2, dom._norm(b2)


# a verify_adc box per ADMISSIBLE_CASES domain in which some point of the
# form's quadratic part descends at least one step
_LYING_ADC_BOXES = {"Z": SearchBox(2, 3), "Zi": SearchBox(2, 2), "Fpt:2": SearchBox(1, 1)}


@ADMISSIBLE_CASES
@pytest.mark.parametrize("fake", [_misreported_norm, _misreported_value, _origin_witness])
def test_descent_rejects_a_lying_oracle(monkeypatch, dom, text, bound, fake):
    f = parse_form(text, dom)
    x = random_rational_zero(f, brute_integral_zero(f, SearchBox(bound)), seed=77, height_min=3)
    # f = q - c for the form q = f2, so q(x) = c lies in the ring
    q = QuadraticPolynomial(dom, f.d, f.quad)
    monkeypatch.setattr(descent_module, "_search", fake)
    with pytest.raises(InternalInvariantError):
        descend(f, x)
    with pytest.raises(InternalInvariantError):
        adc_represent(q, x)
    with pytest.raises(InternalInvariantError):
        verify_adc(q, _LYING_ADC_BOXES[dom.name])


# forms whose descents from seeded chord zeros take both oracle paths:
# the fast path, and the window scan where rounding is not admissible
BOTH_PATH_CASES = pytest.mark.parametrize(
    "dom, text, bound",
    [
        (ZZ, "x^2-7*y^2-2", 6),
        (ZI, "x1*x2-2*i", 2),
        (F2, "x1*x2+x3^2+t", 1),
        (F3, "x1*x2+x3^2+x1-t", 1),
    ],
    ids=["Z", "Zi", "Fpt:2", "Fpt:3"],
)


def _both_path_zeros(dom, text, bound):
    f = parse_form(text, dom)
    y0 = brute_integral_zero(f, SearchBox(bound))
    return f, [random_rational_zero(f, y0, seed=s, height_min=3, direction_bound=40) for s in range(8)]


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a spy; the list it returns grows by the
    arguments of each call."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@BOTH_PATH_CASES
def test_step_computes_v_only_on_the_scan_path(monkeypatch, dom, text, bound):
    # on the fast path v = a - b*y is the w0 = a - b*round(a/b) the step
    # rounded with; a scan's witness needs v computed once more
    f, xs = _both_path_zeros(dom, text, bound)
    scans = _count_calls(monkeypatch, oracle_module, "_within_budget")
    differences = _count_calls(monkeypatch, descent_module, "_cleared_difference")
    steps = sum(len(descend(f, x).steps) for x in xs)
    assert 0 < len(differences) == len(scans) < steps


@BOTH_PATH_CASES
def test_a_witness_equal_to_base_but_not_base_makes_the_step_compute_v(
    monkeypatch, dom, text, bound
):
    f, xs = _both_path_zeros(dom, text, bound)
    expected = [descend(f, x) for x in xs]
    search = oracle_module._search

    def copied_base(f, b, base, w0, window):
        y, v, n, b2, nb2 = search(f, b, base, w0, window)
        return (list(base) if y is base else y), v, n, b2, nb2

    monkeypatch.setattr(descent_module, "_search", copied_base)
    differences = _count_calls(monkeypatch, descent_module, "_cleared_difference")
    traces = [descend(f, x) for x in xs]
    assert traces == expected
    assert len(differences) == sum(len(t.steps) for t in traces)


@BOTH_PATH_CASES
def test_descend_wraps_its_steps_on_first_read(monkeypatch, dom, text, bound):
    f, xs = _both_path_zeros(dom, text, bound)
    expected = [DescentTrace(t.steps, t.result) for t in (descend(f, x) for x in xs)]
    wrapped = _count_calls(monkeypatch, descent_module, "_wrap_step")
    for x, trace in zip(xs, expected):
        lazy = descend(f, x)
        assert lazy.result == trace.result
        assert not wrapped
        assert lazy.steps == trace.steps  # the first read wraps each step once
        assert [start for _, start, _ in wrapped] == [s.x for s in trace.steps]
        assert lazy.steps == trace.steps  # a second read wraps none
        assert len(wrapped) == len(trace.steps)
        wrapped.clear()


def _iterated_descent(f, x):
    """descend by definition: the public descent_step, from x until integral."""
    steps = []
    while not x.is_integral():
        steps.append(descent_step(f, x))
        x = steps[-1].x_next
    return DescentTrace(tuple(steps), x.integral_point())


@pytest.mark.parametrize(
    "dom, text, bound",
    [
        (ZZ, "x^2+y^2+z^2-26", 6),
        (ZI, "x1*x2-2*i", 2),
        (F2, "x1*x2+x3^2+t", 1),
        (F3, "x1^2+t*x2^2+x2-t", 1),
    ],
    ids=["Z", "Zi", "Fpt:2", "Fpt:3"],
)
def test_descend_equals_iterated_descent_step(dom, text, bound):
    f = parse_form(text, dom)
    y0 = brute_integral_zero(f, SearchBox(bound))
    for seed in range(8):
        x = random_rational_zero(f, y0, seed=seed, height_min=3, direction_bound=40)
        assert descend(f, x) == _iterated_descent(f, x)


def test_descend_aborts_where_descent_step_does():
    f = parse_form("w^2+x^2+y^2+z^2-15", ZZ)
    x = FractionPoint(ZZ, [-97, -13, 11, -54], 29)
    with pytest.raises(DescentAborted) as aborted:
        descend(f, x)
    with pytest.raises(OracleNotFound) as failed:
        _iterated_descent(f, x)
    assert not isinstance(failed.value, DescentAborted)
    assert aborted.value.step_index == 2
    assert str(failed.value.x) == "5,1,5,3/2"
    assert (aborted.value.x, aborted.value.window, aborted.value.min_norm) == (
        failed.value.x, failed.value.window, failed.value.min_norm
    )


@ADMISSIBLE_CASES
def test_descend_checks_each_point_once(monkeypatch, dom, text, bound):
    calls = []
    cleared = QuadraticPolynomial._cleared_raw

    def counted(self, a, b):
        calls.append((tuple(a), b))
        return cleared(self, a, b)

    def raws(x):
        return tuple(n.raw for n in x.nums), x.den.raw

    f = parse_form(text, dom)
    y0 = brute_integral_zero(f, SearchBox(bound))
    x = random_rational_zero(f, y0, seed=1, height_min=3, direction_bound=40)
    monkeypatch.setattr(QuadraticPolynomial, "_cleared_raw", counted)
    trace = descend(f, x)
    assert len(trace.steps) >= 2
    assert calls == [raws(x)] + [raws(s.x_next) for s in trace.steps]


def _fp_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _fp_sum(polys, p):
    out = [0] * max(map(len, polys))
    for poly in polys:
        for i, c in enumerate(poly):
            out[i] = (out[i] + c) % p
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("p", [3, 5], ids=["Fpt:3", "Fpt:5"])
def test_descent_odd_characteristic_large_denominators(p):
    # f = x1^2 + t*x2^2 + x2 + c, whose quadratic part is anisotropic with
    # |f2(v)| = max(|v1|^2, p*|v2|^2), so rounding always gives a witness;
    # chord zeros from degree-20..24 directions have denominators of degree
    # >= 40, so products in the descent take the Kronecker path wherever the
    # shorter factor fits one-byte slots (up to 63 coefficients for p = 3,
    # 15 for p = 5) and the schoolbook loop otherwise
    dom = GFpT(p)
    rng = random.Random(100 + p)

    def poly(deg):
        return tuple(rng.randrange(p) for _ in range(deg)) + (rng.randrange(1, p),)

    def value(y, c=()):  # y1^2 + t*y2^2 + y2 + c with test-local arithmetic
        y1, y2 = y
        return _fp_sum([_fp_mul(y1, y1, p), _fp_mul((0, 1), _fp_mul(y2, y2, p), p), y2, c], p)

    zeros = 0
    while zeros < 4:
        y0 = (poly(rng.randint(0, 3)), poly(rng.randint(0, 3)))
        c = tuple(-v % p for v in value(y0))
        f = QuadraticPolynomial(dom, 2, {(0, 0): 1, (1, 1): (0, 1)}, lin=(0, 1), const=c)
        x = chord_zero(f, y0, [poly(rng.randint(20, 24)), poly(rng.randint(20, 24))])
        if len(x.den.raw) - 1 < 40:
            continue
        zeros += 1
        trace = descend(f, x)
        assert trace.steps
        for step in trace.steps:
            assert_step_invariants(f, step)
        assert value(tuple(e.raw for e in trace.result), c) == ()


def test_descend_step_cap(monkeypatch):
    # a step that never lowers the denominator runs into the cap norm(b0)
    f = parse_form("x^2+y^2-5", ZZ)
    x = FractionPoint(ZZ, [-11, 2], 5)
    calls = []

    def stalled(f, a, b, window):
        calls.append((a, b))
        return (), (), None, None, None, b, a, b

    monkeypatch.setattr(descent_module, "_step", stalled)
    with pytest.raises(InternalInvariantError, match="step cap of 5"):
        descend(f, x)
    assert len(calls) == 5


# -- adc wrapper ----------------------------------------------------------------


def test_adc_represent_frozen():
    q = parse_form("x^2+y^2+z^2", ZZ)
    x = FractionPoint(ZZ, [1, 18, 0], 5)
    trace, r = adc_trace(q, x)
    assert r == 13
    assert len(trace.steps) == 1
    assert [c.raw for c in trace.result] == [3, -2, 0]
    assert q.eval_at_integral(trace.result) == 13
    y = adc_represent(q, x)
    assert [c.raw for c in y] == [3, -2, 0]


@pytest.mark.parametrize(
    "dom, text, bound",
    [
        (ZZ, "x^2+y^2+z^2-26", 6),
        (ZI, "x1*x2-2*i", 2),
        (F2, "x1*x2+x3^2+t", 1),
        (F3, "x1^2+t*x2^2-t", 1),
    ],
    ids=["Z", "Zi", "Fpt:2", "Fpt:3"],
)
def test_adc_represent_equals_adc_trace_result(monkeypatch, dom, text, bound):
    # adc_represent is the result of adc_trace and wraps no step (a wrapped
    # step raises here); it lands where the traced descent does
    def no_wrap(*args):
        raise AssertionError("adc_represent wrapped a step")

    f = parse_form(text, dom)
    q = QuadraticPolynomial(dom, f.d, f.quad)  # f = q - c
    y0 = brute_integral_zero(f, SearchBox(bound))
    for seed in range(8):
        x = random_rational_zero(f, y0, seed=seed, height_min=3, direction_bound=40)
        with monkeypatch.context() as patch:
            patch.setattr(descent_module, "_wrap_step", no_wrap)
            y = adc_represent(q, x)
        trace, r = adc_trace(q, x)
        assert trace.steps
        assert y == trace.result
        assert q.eval_at_integral(trace.result) == r == -f.eval_at_integral([0] * f.d)


def test_adc_represent_integral_echo():
    q = parse_form("x^2+y^2", ZZ)
    y = adc_represent(q, FractionPoint(ZZ, [3, 4], 1))
    assert [c.raw for c in y] == [3, 4]
    assert q.eval_at_integral(y) == 25


def test_adc_represent_requires_integral_value():
    q = parse_form("x^2+y^2", ZZ)
    with pytest.raises(ValueNotIntegralError):
        adc_represent(q, FractionPoint(ZZ, [1, 1], 2))


def test_adc_represent_requires_form():
    f = parse_form("x^2+y^2-5", ZZ)
    with pytest.raises(NotAFormError):
        adc_represent(f, FractionPoint(ZZ, [1, 2], 1))


def test_adc_value_consistency_random():
    q = parse_form("x^2+y^2+z^2", ZZ)
    rng = random.Random(31)
    found = 0
    for _ in range(300):
        nums = [rng.randint(-9, 9) for _ in range(3)]
        den = rng.choice([2, 3, 5])
        x = FractionPoint(ZZ, nums, den)
        value = q.eval(x)
        if not value.is_integral():
            continue
        found += 1
        y = adc_represent(q, x)
        assert q.eval_at_integral(y) == value.to_element()
    assert found > 10


# -- (N2) ----------------------------------------------------------------


def test_check_n2_z():
    q = parse_form("x^2+y^2+z^2", ZZ)
    report = check_n2(ZZ, q, ZZ._box_raws(10))
    assert report.ok
    assert report.checked == 18  # 21 integers minus zero and the two units


def test_check_n2_constructive_inequality():
    # the a = 2 witness: q(e1 - 2y) for the oracle's y is exactly 1
    q = parse_form("x^2+y^2+z^2", ZZ)
    report = check_n2(ZZ, q, [ZZ.element(2)])
    assert report.checked == 1
    assert report.ok


def test_check_n2_gaussian_and_polynomial():
    report = check_n2(ZI, parse_form("x1*x2", ZI), ZI._box_raws(2))
    assert report.ok and report.checked > 0
    report = check_n2(F3, parse_form("x1^2+t*x2^2", F3), F3._box_raws(2))
    assert report.ok and report.checked == 24


def test_check_n2_failure_witness():
    # 5x^2+5y^2 takes no value in (0,1) at e1/2, so the constructive branch
    # must report a witness for a = 2 (the form is simply not Euclidean)
    q = parse_form("5*x^2+5*y^2", ZZ)
    report = check_n2(ZZ, q, [ZZ.element(2), ZZ.element(3)])
    assert not report.ok
    assert any(f.element == 2 for f in report.failures)


def test_check_n2_validates_input():
    with pytest.raises(NotAFormError):
        check_n2(ZZ, parse_form("x^2-1", ZZ), ZZ._box_raws(2))
    with pytest.raises(DomainMismatchError):
        check_n2(ZZ, parse_form("x^2+y^2", ZI), ZZ._box_raws(2))
