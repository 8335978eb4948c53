import random
from itertools import product
from fractions import Fraction

import pytest

import qdescent.descent as descent_module
from qdescent import (
    DescentAborted,
    DomainElement,
    DomainMismatchError,
    FractionElement,
    FractionPoint,
    GFpT,
    IntegralPointError,
    NotAFormError,
    NotAZeroError,
    OracleResult,
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
    round_point,
    SearchBox,
)
from qdescent.domains import _KRONECKER_MIN_TERMS

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


def _seeded_random_oracle(seed):
    """An oracle that skips rounding and returns a seeded random admissible
    witness from its own window scan."""
    rng = random.Random(seed)

    def oracle(f, x, window=2):
        dom = f.domain
        b = x.den.raw
        base = [c.raw for c in round_point(x)]
        admissible = []
        for offs in product(dom._offset_raws(window), repeat=f.d):
            y = [dom._add(c, o) for c, o in zip(base, offs)]
            w = [dom._add(n.raw, dom._neg(dom._mul(b, c))) for n, c in zip(x.nums, y)]
            value = FractionElement(dom, f._f2_raw(w), dom._mul(b, b))
            if 0 < value.ext_norm() < 1:
                admissible.append(
                    OracleResult(tuple(DomainElement(dom, c) for c in y), value, value.ext_norm())
                )
        return rng.choice(admissible)

    return oracle


@pytest.mark.parametrize(
    "dom, text, bound",
    [(ZZ, "x^2+y^2+z^2-26", 6), (ZI, "x1*x2-2*i", 2), (F2, "x1*x2+x3^2+t", 1)],
    ids=["Z", "Zi", "Fpt:2"],
)
def test_descent_certificates_hold_for_any_admissible_witness(monkeypatch, dom, text, bound):
    # the certificates must not depend on which admissible witness is used
    f = parse_form(text, dom)
    y0 = brute_integral_zero(f, SearchBox(bound))
    x = random_rational_zero(f, y0, seed=77, height_min=3)
    results = set()
    for seed in range(6):
        monkeypatch.setattr(descent_module, "euclidean_step", _seeded_random_oracle(seed))
        trace = descend(f, x)
        for step in trace.steps:
            assert_step_invariants(f, step)
        assert f.eval_at_integral(trace.result) == 0
        results.add(tuple(c.raw for c in trace.result))
    # the seeds reach different integral zeros, so other witnesses were used
    assert len(results) > 1


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
        assert len(x.den.raw) ** 2 >= _KRONECKER_MIN_TERMS
        trace = descend(f, x)
        assert trace.steps
        for step in trace.steps:
            assert_step_invariants(f, step)
        assert value(tuple(e.raw for e in trace.result), c) == ()


def test_descend_max_steps_cap():
    from qdescent import InternalInvariantError

    f = parse_form("x^2+y^2-5", ZZ)
    x = FractionPoint(ZZ, [-11, 2], 5)
    with pytest.raises(InternalInvariantError):
        descend(f, x, max_steps=0)


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
