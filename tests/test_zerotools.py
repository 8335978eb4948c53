import math
import random
from itertools import product

import pytest

from qdescent import (
    AdcFinding,
    AdcReport,
    FractionPoint,
    GFpT,
    InternalInvariantError,
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
    random_rational_zero,
    verify_adc,
)
from qdescent.enumeration import first_zero

from helpers import random_quadratic

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
    # the patched loop is the one verify_adc runs: a sweep in budget with a
    # non-integral point, (1,2,2)/3 among them, hits it (at SearchBox(1, 2)
    # every checked point is integral and checked without a descent)
    with pytest.raises(AssertionError, match="descent ran"):
        verify_adc(parse_form("x^2+y^2+z^2", ZZ), SearchBox(2, 3))


def test_verify_adc_checks_the_sweep_value_of_each_integral_point(monkeypatch):
    # a denominator-1 point with a wrong value is an internal fault, not a
    # witness: the in-place value check is the certificate a zero-step
    # descent's start check gave
    from qdescent.enumeration import CanonicalPoints

    sweep = CanonicalPoints._integral_values
    one = ZZ.coerce_raw(1)

    def off_by_one(self, q):
        for k, (nums, den, r) in enumerate(sweep(self, q)):
            yield nums, den, r + 1 if den == one and k == 7 else r

    monkeypatch.setattr(CanonicalPoints, "_integral_values", off_by_one)
    with pytest.raises(InternalInvariantError, match="wrong value"):
        verify_adc(parse_form("x^2+y^2+z^2", ZZ), SearchBox(1, 2))


@pytest.mark.parametrize(
    "dom, text, height, box, checked, descents",
    [
        # the adc-referee requests
        (ZZ, "x^2+y^2+z^2", 4, 8, 5489, 576),
        (ZI, "x^2+i*y^2", 2, 2, 625, 0),
        (F3, "x1^2+t*x2^2", 3, 1, 93, 12),
    ],
    ids=["Z3", "Zi", "Fpt3"],
)
def test_verify_adc_descends_each_non_integral_point_once(monkeypatch, dom, text, height, box,
                                                         checked, descents):
    import qdescent.zerotools as zerotools

    starts = []
    descend = zerotools._descend

    def spy(f, a, b, window):
        starts.append((tuple(a), b))
        return descend(f, a, b, window)

    monkeypatch.setattr(zerotools, "_descend", spy)
    report = verify_adc(parse_form(text, dom), SearchBox(box, height))
    assert report.ok and report.checked == checked
    assert len(starts) == len(set(starts)) == descents
    assert all(b != dom.coerce_raw(1) for _, b in starts)


def _assert_same_as_reference(q, box):
    try:
        expected = reference_verify_adc(q, box)
    except SearchBudgetError as err:
        with pytest.raises(SearchBudgetError) as got:
            verify_adc(q, box)
        assert str(got.value) == str(err)
        return
    report = verify_adc(q, box)
    assert report == expected
    assert [str(f.x) for f in report.failures + report.inapplicable] == [
        str(f.x) for f in expected.failures + expected.inapplicable
    ]


def _witness_searches(monkeypatch):
    import qdescent.zerotools as zerotools

    calls = []
    search = zerotools._first_value_witness

    def spy(qr, r_raw, bounds):
        calls.append((r_raw, list(bounds)))
        return search(qr, r_raw, bounds)

    monkeypatch.setattr(zerotools, "_first_value_witness", spy)
    return calls


# forms whose witness queries still reach the graded search: a value the
# box does not take, queried over a box reaching past it
ADC_SEARCH_CASES = [
    # domain, form, height, box
    (ZZ, "x^2+100*y^2", 3, 2),
    (ZZ, "x^2+y^2+7*z^2", 2, 3),
    # heuristic boxes past the sweep's
    (ZZ, "-3*x^2+3*x*y+4*y^2", 2, 1),
    (ZI, "(3-2*i)*x*y+(1+2*i)*y^2", 2, 1),
]


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda dom: dom.name)
def test_verify_adc_matches_reference_on_random_forms(monkeypatch, dom):
    calls = _witness_searches(monkeypatch)
    rng = random.Random(4)
    boxes = {ZZ: [(1, 2), (2, 3)], ZI: [(1, 1), (1, 2)], F2: [(1, 1), (1, 2)], F3: [(0, 2), (1, 1)]}[dom]
    cases = []
    for _ in range(16):
        d = rng.randint(1, 3)
        # forms only: random_quadratic's linear part and constant dropped
        q = QuadraticPolynomial(dom, d, random_quadratic(dom, d, rng, 4).quad)
        cases += [(q, box) for box in boxes[: 1 if d == 3 else 2]]
    if dom == ZZ:
        # positive diagonal, some with a square term missing
        for _ in range(8):
            coeffs = [rng.choice([0, 1, 2, 3, 5, 7]) for _ in range(rng.randint(2, 3))]
            coeffs[0] = coeffs[0] or 1
            q = QuadraticPolynomial(ZZ, len(coeffs), {(i, i): c for i, c in enumerate(coeffs)})
            cases += [(q, box) for box in boxes]
    if dom == ZI:
        # its first heuristic box past the sweep's is over the budget by
        # itself, and refused with the search's own text
        cases.append((parse_form("x*y+(1+i)*z^2", ZI), (1, 2)))
    cases += [(parse_form(text, d), (box, height)) for d, text, height, box in ADC_SEARCH_CASES if d == dom]
    for q, (box, height) in cases:
        if q.quad:
            _assert_same_as_reference(q, SearchBox(box, height))
    # the cases reach the graded search, not only the sweep's answers
    assert calls


@pytest.mark.parametrize(
    "dom, text, height, box, n_fail",
    [
        # the adc-referee requests: every value they check is taken on the box
        (ZZ, "x^2+y^2+z^2", 4, 8, 0),
        (ZI, "x^2+i*y^2", 2, 2, 0),
        (F3, "x1^2+t*x2^2", 3, 1, 0),
        # heuristic boxes past the sweep's, for values the box takes
        (ZZ, "2*x^2+x*y-3*y^2", 3, 2, 0),
        # values the box does not take, queried over the sweep's own box
        (ZI, "x^2+3*y^2", 2, 1, 8),
    ],
    ids=["Z3", "Zi", "Fpt3", "Z-heuristic", "Zi-failures"],
)
def test_verify_adc_sweep_answers_every_witness_query(monkeypatch, dom, text, height, box, n_fail):
    calls = _witness_searches(monkeypatch)
    report = verify_adc(parse_form(text, dom), SearchBox(box, height))
    assert report.checked > 0 and len(report.failures) == n_fail
    assert calls == []


@pytest.mark.parametrize(
    "dom, text, height, box", ADC_SEARCH_CASES, ids=[c[1] for c in ADC_SEARCH_CASES]
)
def test_verify_adc_searches_values_the_box_does_not_take(monkeypatch, dom, text, height, box):
    calls = _witness_searches(monkeypatch)
    verify_adc(parse_form(text, dom), SearchBox(box, height))
    assert calls
    for _, bounds in calls:
        assert max(bounds) > box
