import math
import random
from itertools import product

import pytest

from qdescent import (
    AdcFinding,
    AdcReport,
    FractionPoint,
    GFpT,
    IsotropicDirectionError,
    NotAFormError,
    NotAZeroError,
    OracleNotFound,
    QuadraticPolynomial,
    SearchBox,
    SearchBudgetError,
    ZI,
    ZZ,
    adc_trace,
    brute_integral_zero,
    chord_zero,
    parse_form,
    random_quadratic,
    random_rational_zero,
    verify_adc,
)
from qdescent.enumeration import first_zero

F2 = GFpT(2)
F3 = GFpT(3)


def test_search_box_validation():
    assert SearchBox(3).height == 1
    with pytest.raises(ValueError):
        SearchBox(-1)
    with pytest.raises(ValueError):
        SearchBox(2, -1)


def test_brute_integral_zero_graded_order():
    f = parse_form("x^2+y^2-5", ZZ)
    # the first zero in graded-lex order among (+-1,+-2),(+-2,+-1)
    zero = brute_integral_zero(f, SearchBox(3))
    assert [c.raw for c in zero] == [-2, -1]
    assert brute_integral_zero(f, SearchBox(1)) is None
    g = parse_form("x^2+y^2+1", ZZ)
    assert brute_integral_zero(g, SearchBox(5)) is None


def test_brute_integral_zero_char2():
    f = parse_form("x1^2+t*x2^2+x1+t^2", F2)
    zero = brute_integral_zero(f, SearchBox(3))
    assert zero is not None
    assert f.eval_at_integral(zero).is_zero()


def test_chord_zero_frozen():
    f = parse_form("x^2+y^2-5", ZZ)
    x = chord_zero(f, [1, 2], [2, 1])
    assert str(x) == "-11,2/5"
    assert f.eval(x).is_zero()
    # a chord can land on another integral zero
    y = chord_zero(f, [1, 2], [1, 1])
    assert y.is_integral()
    assert [c.raw for c in y.integral_point()] == [-2, -1]
    # tangent direction: second intersection is the base point itself
    t = chord_zero(f, [1, 2], [2, -1])
    assert t == FractionPoint(ZZ, [1, 2], 1)


def test_chord_zero_char2():
    g = parse_form("x1^2+t*x2^2+x1+t^2", F2)
    x = chord_zero(g, [(0, 1), (1,)], [(1,), (1,)])
    assert str(x) == "t^2+t+1,t/t+1"
    assert g.eval(x).is_zero()


def test_chord_zero_validation():
    f = parse_form("x^2+y^2-5", ZZ)
    with pytest.raises(NotAZeroError):
        chord_zero(f, [1, 1], [1, 0])
    g = parse_form("x1*x2", ZZ)
    with pytest.raises(IsotropicDirectionError):
        chord_zero(g, [0, 5], [0, 1])


def test_random_rational_zero_deterministic():
    f = parse_form("x^2+y^2+z^2-13", ZZ)
    a = random_rational_zero(f, [0, 2, 3], seed=4)
    b = random_rational_zero(f, [0, 2, 3], seed=4)
    assert a == b
    assert not a.is_integral()
    assert a.den.norm() >= 2
    assert f.eval(a).is_zero()
    c = random_rational_zero(f, [0, 2, 3], seed=4, height_min=5)
    assert c.den.norm() >= 5


def test_random_rational_zero_budget():
    # X^2 in one variable: every chord is tangent, so nothing non-integral
    # ever appears and the attempt budget runs out
    f = QuadraticPolynomial(ZZ, 1, {(0, 0): 1})
    with pytest.raises(SearchBudgetError):
        random_rational_zero(f, [0], seed=1, attempts=50)


def test_verify_adc_three_squares_small():
    q = parse_form("x^2+y^2+z^2", ZZ)
    report = verify_adc(q, SearchBox(4, 2))
    assert report.ok
    assert report.inapplicable == ()
    assert report.checked > 0


def test_verify_adc_four_squares_inapplicable():
    q = parse_form("w^2+x^2+y^2+z^2", ZZ)
    report = verify_adc(q, SearchBox(2, 2))
    assert report.ok  # oracle gaps do not refute representability
    assert report.checked == 641
    assert len(report.inapplicable) == 16
    for finding in report.inapplicable:
        assert finding.x.den.raw == 2
        assert finding.value == 1
        assert "brute search still represents" in finding.detail


def test_verify_adc_requires_form():
    with pytest.raises(NotAFormError):
        verify_adc(parse_form("x^2-1", ZZ), SearchBox(2))


def test_random_quadratic_shape():
    rng = random.Random(6)
    for dom in (ZZ, ZI, F2):
        for _ in range(20):
            f = random_quadratic(dom, 3, rng)
            assert f.domain is dom
            assert f.d == 3
            for (i, j) in f.quad:
                assert 0 <= i <= j < 3


# -- verify_adc against a reference built from public objects -----------------


def reference_points(dom, d, height, box):
    """The points verify_adc checks, through the canonicalizing constructor:
    denominator 1, then every normalized non-unit of norm <= height, each
    with the numerator vectors that stay coprime to it."""
    dens = [dom.coerce_raw(1)] + list(dom._denominator_raws(height))
    for den in dens:
        for nums in product(list(dom._box_raws(box)), repeat=d):
            x = FractionPoint(dom, nums, den)
            if x.den.raw == den:
                yield x


def reference_verify_adc(q, box, window=2):
    """verify_adc spelled out with q.eval, adc_trace and a brute search
    memoized per (value, box); witness boxes as documented on verify_adc."""
    dom, d = q.domain, q.d
    diagonal = dom == ZZ and all(i == j and c > 0 for (i, j), c in q.quad.items())
    memo = {}

    def brute(r, bound):
        if not diagonal:
            if (r, bound) not in memo:
                memo[r, bound] = first_zero(q.sub_scalar(r), [bound] * d)
            return memo[r, bound], False
        if r.raw < 0:
            return None, True
        bounds = [math.isqrt(r.raw // q.quad[(i, i)]) if (i, i) in q.quad else 0 for i in range(d)]
        return first_zero(q.sub_scalar(r), bounds), True

    checked, failures, inapplicable = 0, [], []
    for x in reference_points(dom, d, box.height, box.num_bound):
        value = q.eval(x)
        if not value.is_integral():
            continue
        checked += 1
        r = value.to_element()
        try:
            trace, r_trace = adc_trace(q, x, window)
        except OracleNotFound as err:
            note = f"no oracle witness in window {window} (best norm {err.min_norm})"
            witness, definitive = brute(r, box.num_bound)
            if witness is not None:
                inapplicable.append(AdcFinding(x, r, note + "; brute search still represents the value"))
            elif definitive:
                failures.append(AdcFinding(x, r, "value attained on K^d but on no integral point"))
            else:
                failures.append(AdcFinding(x, r, note + "; no witness in the heuristic box either"))
            continue
        assert r_trace == r
        y = trace.result
        if q.eval_at_integral(y) != r:
            failures.append(AdcFinding(x, r, "descent result has the wrong value"))
            continue
        radius = max([box.num_bound] + [dom._box_radius(c.raw) for c in y])
        if brute(r, radius)[0] is None:
            failures.append(AdcFinding(x, r, "brute search missed a value descent represents"))
    return AdcReport(checked, tuple(failures), tuple(inapplicable))


ADC_CASES = [
    # domain, form, height, box, failures, inapplicable
    (ZZ, "3*x^2", 6, 5, 0, 0),
    (ZZ, "2*x^2+x*y-3*y^2", 3, 2, 0, 0),
    (ZZ, "x^2+y*z-2*z^2", 3, 1, 0, 0),
    (ZZ, "w^2+2*x*y+y^2+z^2-w*z", 2, 1, 0, 2),
    (ZZ, "x^2+y^2+7*z^2", 2, 3, 32, 64),
    (ZZ, "w^2+x^2+y^2+z^2", 2, 2, 0, 16),
    (ZI, "(1+i)*x^2", 2, 2, 0, 0),
    (ZI, "x^2+i*x*y+2*y^2", 2, 1, 8, 4),
    (ZI, "x^2+3*y^2", 2, 1, 8, 8),
    (ZI, "x^2+y^2+i*z^2", 2, 1, 0, 80),
    (ZI, "x1^2+x2*x3+x4^2", 2, 0, 0, 0),
    (F2, "t*x^2", 3, 2, 0, 0),
    (F2, "x1^2+x1*x2+t*x2^2", 2, 1, 0, 0),
    (F2, "x1^2+t*x2*x3+x3^2", 2, 1, 0, 19),
    (F2, "x1*x2+x3*x4", 1, 1, 0, 0),
    (F3, "(t+1)*x^2", 3, 2, 0, 0),
    (F3, "x1^2+t^3*x2^2", 3, 1, 22, 8),
    (F3, "x1^2+x1*x2+t*x2^2+x3^2", 1, 1, 0, 0),
    (F3, "x1^2+x2^2+x3^2+t*x4^2", 1, 0, 0, 0),
]


@pytest.mark.parametrize(
    "dom, text, height, box, n_fail, n_inapp",
    ADC_CASES,
    ids=[f"{c[0].name}:{c[1]}:h{c[2]}b{c[3]}" for c in ADC_CASES],
)
def test_verify_adc_matches_public_reference(dom, text, height, box, n_fail, n_inapp):
    q = parse_form(text, dom)
    report = verify_adc(q, SearchBox(box, height))
    expected = reference_verify_adc(q, SearchBox(box, height))
    assert report.checked == expected.checked
    assert report.failures == expected.failures
    assert report.inapplicable == expected.inapplicable
    # same text too: the CLI prints the points and values with str()
    assert [str(f.x) for f in report.failures + report.inapplicable] == [
        str(f.x) for f in expected.failures + expected.inapplicable
    ]
    assert (len(report.failures), len(report.inapplicable)) == (n_fail, n_inapp)


def test_verify_adc_mid_sweep_refusal_matches_reference():
    # the sweep itself fits the budget; a witness search partway through it
    # does not, and it is refused at the same point with the same text
    q = parse_form("x*y+(1+i)*z^2", ZI)
    with pytest.raises(SearchBudgetError) as expected:
        reference_verify_adc(q, SearchBox(1, 2))
    with pytest.raises(SearchBudgetError) as got:
        verify_adc(q, SearchBox(1, 2))
    assert str(got.value) == str(expected.value)
    assert "graded box search" in str(got.value)


def test_verify_adc_oversized_sweep_refused_before_any_descent(monkeypatch):
    import qdescent.zerotools as zerotools

    def no_descent(*args, **kwargs):
        raise AssertionError("descent ran before the sweep was sized")

    monkeypatch.setattr(zerotools, "_descend", no_descent)
    with pytest.raises(SearchBudgetError, match="canonical point sweep"):
        verify_adc(parse_form("x^2+y^2+z^2", ZZ), SearchBox(300, 2))
    with pytest.raises(SearchBudgetError, match="canonical point sweep"):
        verify_adc(parse_form("x1^2+t*x2^2", GFpT(1000003)), SearchBox(1, 1))
    # the patched loop is the one verify_adc runs: a sweep in budget hits it
    with pytest.raises(AssertionError, match="descent ran"):
        verify_adc(parse_form("x^2+y^2+z^2", ZZ), SearchBox(1, 2))
