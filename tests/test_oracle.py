import copy
import pickle
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from qdescent import (
    DomainElement,
    EuclideanFailure,
    EuclideanReport,
    FractionElement,
    FractionPoint,
    GFpT,
    IntegralPointError,
    OracleNotFound,
    OracleResult,
    QuadraticPolynomial,
    SearchBudgetError,
    ZI,
    ZZ,
    check_euclidean,
    euclidean_step,
    parse_form,
)
from qdescent import enumeration, oracle
from qdescent.domains import _cleared_difference
from qdescent.enumeration import residue_rows, sweep_count

F2 = GFpT(2)
F3 = GFpT(3)

THREE_SQUARES = parse_form("x^2+y^2+z^2", ZZ)
FOUR_SQUARES = parse_form("w^2+x^2+y^2+z^2", ZZ)
CIRCLE = parse_form("x^2+y^2", ZZ)


# -- rounding ------------------------------------------------------------------


def rounded(x):
    """The coordinatewise nearest ring point to x, as elements: the base
    oracle._rounded takes for the oracle's fast path."""
    base, _ = oracle._rounded(x.domain, [n.raw for n in x.nums], x.den.raw)
    return tuple(DomainElement(x.domain, c) for c in base)


def test_rounded_ties_toward_zero():
    def rp(nums, den):
        return [c.raw for c in rounded(FractionPoint(ZZ, nums, den))]

    assert rp([1, 3, -1, -3], 2) == [0, 1, 0, -1]
    assert rp([7, 2, -7], 5) == [1, 0, -1]
    assert rp([4, 2, 5], 3) == [1, 1, 2]


def test_rounded_gaussian():
    # (3+2i)/(1+i) = 5/2 - i/2, both halves round toward zero
    y = rounded(FractionPoint(ZI, [(3, 2)], (1, 1)))
    assert [c.raw for c in y] == [(2, 0)]
    y2 = rounded(FractionPoint(ZI, [(7, 3)], (2, 0)))  # 3.5 + 1.5i
    assert [c.raw for c in y2] == [(3, 1)]


def test_rounded_polynomial():
    # equal degrees still produce a nonzero quotient: t/(t+1) rounds to 1
    y = rounded(FractionPoint(F2, [(0, 1)], (1, 1)))
    assert [c.raw for c in y] == [(1,)]
    # t^2/(t+1) = (t+1) + 1/(t+1)
    y2 = rounded(FractionPoint(F2, [(0, 0, 1)], (1, 1)))
    assert [c.raw for c in y2] == [(1, 1)]


# -- euclidean_step ---------------------------------------------------------------


def test_oracle_rounding_path():
    x = FractionPoint(ZZ, [-11, 2], 5)
    found = euclidean_step(CIRCLE, x)
    assert [c.raw for c in found.y] == [-2, 0]
    assert found.vnorm == Fraction(1, 5)
    # value is f2(x - y) = ((-11+10)/5)^2 + (2/5)^2 = 1/25 + 4/25 = 1/5
    assert found.value.ext_norm() == Fraction(1, 5)


def test_oracle_rejects_integral_points():
    with pytest.raises(IntegralPointError):
        euclidean_step(CIRCLE, FractionPoint(ZZ, [1, 2], 1))


def test_oracle_not_found_four_squares():
    x = FractionPoint(ZZ, [1, 1, 1, 1], 2)
    with pytest.raises(OracleNotFound) as err:
        euclidean_step(FOUR_SQUARES, x)
    assert err.value.min_norm == 1
    assert err.value.window == 2
    assert err.value.x == x


def test_oracle_escapes_null_cone():
    # f2 = x1*x2 at (1/2, 1): rounding lands on the cone (second coordinate
    # integral), the window search must find a strictly-between value
    f = parse_form("x1*x2", ZZ)
    x = FractionPoint(ZZ, [1, 2], 2)
    found = euclidean_step(f, x)
    assert [c.raw for c in found.y] == [0, 0]
    assert found.vnorm == Fraction(1, 2)


def test_oracle_not_found_isotropic_difference_of_squares():
    # x1^2 - x2^2 at (1/2, 1/2): every integral y gives the integer
    # (y2-y1)(1-y1-y2), whose parity makes nonzero values even, so nothing
    # lands in (0, 1); the reported minimum nonzero norm is 2
    f = parse_form("x1^2-x2^2", ZZ)
    with pytest.raises(OracleNotFound) as err:
        euclidean_step(f, FractionPoint(ZZ, [1, 1], 2), window=2)
    assert err.value.min_norm == 2


def test_oracle_polynomial_domain():
    f = parse_form("x1^2+t*x2^2", F2)
    x = FractionPoint(F2, [(1,), (1,)], (0, 1))  # (1/t, 1/t)
    found = euclidean_step(f, x)
    assert [c.raw for c in found.y] == [(), ()]
    assert found.vnorm == Fraction(2, 4)


def test_oracle_deterministic_and_monotone():
    x = FractionPoint(ZZ, [1, 2], 2)
    f = parse_form("x1*x2", ZZ)
    a = euclidean_step(f, x)
    b = euclidean_step(f, x)
    assert a.y == b.y and a.vnorm == b.vnorm
    wider = euclidean_step(f, x, window=4)
    assert 0 < wider.vnorm < 1


def _f2_of_difference(f, x, y):
    dom = f.domain
    b = x.den.raw
    w = [dom._add(n.raw, dom._neg(dom._mul(b, c.raw))) for n, c in zip(x.nums, y)]
    return FractionElement(dom, f._f2_raw(w), dom._mul(b, b))


@pytest.mark.parametrize(
    "f, x, fast",
    [
        (CIRCLE, FractionPoint(ZZ, [-11, 2], 5), True),
        (parse_form("x1*x2", ZZ), FractionPoint(ZZ, [1, 2], 2), False),
        (parse_form("x1*x2", ZI), FractionPoint(ZI, [(1, 0), (1, 0)], (2, 1)), True),
        (parse_form("x1*x2", ZI), FractionPoint(ZI, [(1, 0), (0, 0)], (2, 1)), False),
        (parse_form("x1^2+t*x2^2", F2), FractionPoint(F2, [(1,), (1,)], (0, 1)), True),
        (parse_form("x1*x2+x3^2", F2), FractionPoint(F2, [(), (1, 1), ()], (0, 1)), False),
        (parse_form("x1^2+t*x2^2", F3), FractionPoint(F3, [(1,), (2,)], (0, 1)), True),
        (parse_form("x1*x2", F3), FractionPoint(F3, [(1,), ()], (0, 1)), False),
    ],
    ids=[f"{dom}-{path}" for dom in ("Z", "Zi", "Fpt:2", "Fpt:3") for path in ("fast", "scan")],
)
def test_oracle_value_is_f2_of_difference(f, x, fast):
    # fast means the rounded point itself is admissible, so no scan runs
    assert (0 < _f2_of_difference(f, x, rounded(x)).ext_norm() < 1) == fast
    found = euclidean_step(f, x)
    # equal calls give equal results, with equal hashes
    again = euclidean_step(f, x)
    assert found == again and hash(found) == hash(again)
    assert (found.y == rounded(x)) == fast
    assert found.value == _f2_of_difference(f, x, found.y)
    assert found.vnorm == found.value.ext_norm()
    assert 0 < found.vnorm < 1


def test_oracle_result_is_an_immutable_value():
    x = FractionPoint(ZZ, [-11, 2], 5)
    found = euclidean_step(CIRCLE, x)
    # the positional constructor, given the value f2(x - y), gives an
    # equal result with the same hash and the same repr
    direct = OracleResult(found.y, _f2_of_difference(CIRCLE, x, found.y), Fraction(1, 5))
    assert repr(found) == "OracleResult(y=(-2, 0), value=1/5, vnorm=Fraction(1, 5))"
    assert direct == found and found == direct
    assert hash(direct) == hash(found) == hash((found.y, found.value, found.vnorm))
    assert repr(direct) == repr(found)
    assert found != OracleResult(found.y, direct.value, Fraction(1, 4))
    for name in ("y", "value", "vnorm", "other"):
        with pytest.raises(AttributeError):
            setattr(found, name, None)
        with pytest.raises(AttributeError):
            delattr(found, name)
    assert found == direct


@pytest.mark.parametrize("copier", ["copy", "deepcopy", "pickle"])
def test_oracle_result_copies_and_pickles(copier):
    x = FractionPoint(F3, [(1,), (2,)], (0, 1))
    f = parse_form("x1^2+t*x2^2", F3)
    found = euclidean_step(f, x)
    dup = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    }[copier](found)
    assert type(dup) is OracleResult
    assert dup == found and hash(dup) == hash(found) and repr(dup) == repr(found)
    assert dup.value == _f2_of_difference(f, x, dup.y)
    with pytest.raises(AttributeError):
        dup.vnorm = None


@pytest.mark.parametrize(
    "f, x, window",
    [
        (parse_form("x1*x2", ZZ), FractionPoint(ZZ, [1, 0], 3), 3),
        (parse_form("x1*x2", F3), FractionPoint(F3, [(1,), (0, 1)], (0, 1)), 2),
        (parse_form("x1*x2+x3^2", F2), FractionPoint(F2, [(), (1, 1), ()], (0, 1)), 2),
    ],
    ids=["Z", "Fpt:3", "Fpt:2"],
)
def test_oracle_scan_picks_least_norm_then_least_key(f, x, window):
    # reference: every admissible candidate of the window, sorted; the
    # least norm is tied, and over F_p[t] the scan meets the least key late
    dom = f.domain
    base = rounded(x)
    cands = []
    for offs in product(dom._offset_raws(window), repeat=f.d):
        y = tuple(c + DomainElement(dom, o) for c, o in zip(base, offs))
        vn = _f2_of_difference(f, x, y).ext_norm()
        if 0 < vn < 1:
            cands.append((vn, tuple(dom._sort_key(c.raw) for c in y), y))
    cands.sort(key=lambda c: c[:2])
    assert cands[0][0] == cands[1][0]
    found = euclidean_step(f, x, window=window)
    assert (found.vnorm, found.y) == (cands[0][0], cands[0][2])


def _reference_step(f, x, window, first=False):
    """euclidean_step by definition: f2(x - y) evaluated afresh for every
    candidate.  Returns (y, value, vnorm), or the least nonzero norm when
    no candidate is admissible.  With first, the witness is the first
    admissible candidate in product order of the offsets."""
    dom = f.domain
    base = rounded(x)
    v = _f2_of_difference(f, x, base)
    if 0 < v.ext_norm() < 1:
        return base, v, v.ext_norm()
    best, least = None, None
    for offs in product(dom._offset_raws(window), repeat=f.d):
        y = tuple(c + DomainElement(dom, o) for c, o in zip(base, offs))
        v = _f2_of_difference(f, x, y)
        vn = v.ext_norm()
        if vn > 0 and (least is None or vn < least):
            least = vn
        if 0 < vn < 1:
            if first:
                return y, v, vn
            key = (vn, tuple(dom._sort_key(c.raw) for c in y))
            if best is None or key < best[0]:
                best = (key, y, v)
    if best is None:
        return Fraction(0) if least is None else least
    return best[1], best[2], best[0][0]


def _random_case(rng, dom):
    """A seeded form (cross terms included), non-integral point and window
    whose scan stays under 400 candidates."""
    poly = isinstance(dom, type(F2))
    d = rng.randint(1, 4)
    quad = {}
    for i in range(d):
        for j in range(i, d):
            if rng.random() < (0.7 if i == j else 0.35):
                quad[(i, j)] = dom._random_raw(rng, 1 if poly else 3)
    if all(dom._is_zero(c) for c in quad.values()):
        quad[(0, d - 1)] = dom.coerce_raw(1)
    f = QuadraticPolynomial(dom, d, quad)
    while True:
        den = dom._random_raw(rng, 2 if poly else 6)
        if not (dom._is_zero(den) or dom._is_unit(den)):
            break
    x = FractionPoint(dom, [dom._random_raw(rng, 3 if poly else 20) for _ in range(d)], den)
    window = rng.randint(0, 3)
    while dom._offset_count(window) ** d > 400:
        window -= 1
    return f, x, window


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_oracle_matches_reference_scan(dom):
    rng = random.Random(f"oracle-{dom.name}")
    scanned = failed = 0
    for _ in range(200):
        f, x, window = _random_case(rng, dom)
        if x.is_integral():
            continue
        ref = _reference_step(f, x, window)
        scanned += not (isinstance(ref, tuple) and ref[0] == rounded(x))
        if isinstance(ref, Fraction):
            failed += 1
            with pytest.raises(OracleNotFound) as err:
                euclidean_step(f, x, window)
            assert err.value.min_norm == ref
        else:
            found = euclidean_step(f, x, window)
            assert (found.y, found.value, found.vnorm) == ref
    # the sample reaches the scan and its failure branch, not only rounding
    assert scanned >= 20 and failed >= 5


@pytest.mark.parametrize(
    "dom, text, integral",
    [(ZZ, "x1*x2", [(0,), (1,)]), (ZI, "x1*x2", [(0,), (1,)]), (F3, "x1*x2", [(0,), (1,)]),
     (ZZ, "x*y+z*w", [(0, 2), (0, 3), (1, 2), (1, 3)])],
    ids=["Z", "Zi", "Fpt:3", "Z-x*y+z*w"],
)
def test_search_on_the_null_cone_matches_the_reference(dom, text, integral):
    """Null-cone points of forms with no square on the last coordinate:
    the rounded point has f2(w0) = 0, so every point scans, each row entry
    is lin*v alone and many prefix sums are zero.  _search, with and
    without first, returns the reference scan's witness, value and least
    norm.  Each entry of integral is a set of coordinates whose
    integrality alone puts a point on the null cone."""
    f = parse_form(text, dom)
    rng = random.Random(f"null-cone-{dom.name}-{text}")
    poly = dom is F3
    cases = early = 0
    while cases < 60:
        den = dom._random_raw(rng, 2 if poly else 6)
        if dom._is_zero(den) or dom._is_unit(den):
            continue
        nums = [dom._random_raw(rng, 3 if poly else 20) for _ in range(f.d)]
        for k in rng.choice(integral):
            nums[k] = dom._mul(den, nums[k])
        x = FractionPoint(dom, nums, den)
        if x.is_integral():
            continue
        window = rng.randint(1, 3)
        while dom._offset_count(window) ** f.d > 700:
            window -= 1
        b = x.den.raw
        base, w0 = oracle._rounded(dom, [c.raw for c in x.nums], b)
        assert dom._is_zero(f._f2_raw(w0))
        cases += 1
        found = []
        for first in (False, True):
            ref = _reference_step(f, x, window, first)
            y, v, n, b2, nb2 = oracle._search(f, b, base, w0, window, first)
            if isinstance(ref, Fraction):
                assert y is None and Fraction(n, nb2) == ref
            else:
                got = (tuple(DomainElement(dom, c) for c in y), FractionElement(dom, v, b2))
                assert got + (Fraction(n, nb2),) == ref
            found.append(y)
        early += found[0] != found[1]
    # the scan with first often stops before the least witness
    assert early >= 5


def test_oracle_window_scan_refused_over_budget(monkeypatch):
    big = GFpT(1000003)

    def boom(self, window):
        raise AssertionError("offsets built before the budget check")

    monkeypatch.setattr(type(big), "_offset_raws", boom)
    monkeypatch.setattr(type(ZZ), "_offset_raws", boom)
    start = time.perf_counter()
    # (1/t, 0) rounds onto the null cone of x1*x2, so the scan would run
    with pytest.raises(SearchBudgetError, match="window scan"):
        euclidean_step(parse_form("x1*x2", big), FractionPoint(big, [1, 0], (0, 1)))
    with pytest.raises(SearchBudgetError, match="window scan"):
        euclidean_step(parse_form("x1*x2", ZZ), FractionPoint(ZZ, [1, 0], 2), window=100000)
    assert time.perf_counter() - start < 1
    # the fast path never scans, so a wide window alone is not refused
    assert euclidean_step(CIRCLE, FractionPoint(ZZ, [-11, 2], 5), window=100000).vnorm < 1


def test_oracle_value_identity_random():
    rng = random.Random(99)
    for _ in range(60):
        nums = [rng.randint(-30, 30) for _ in range(3)]
        den = rng.randint(2, 9)
        x = FractionPoint(ZZ, nums, den)
        if x.is_integral():
            continue
        found = euclidean_step(THREE_SQUARES, x)
        assert 0 < found.vnorm < 1
        assert found.vnorm <= Fraction(3, 4)  # nearest rounding bound


# -- check_euclidean ----------------------------------------------------------------


def test_check_euclidean_three_squares():
    report = check_euclidean(THREE_SQUARES, 6, 3)
    assert report.ok
    assert report.checked == 1580
    assert report.failures == ()


def test_check_euclidean_four_squares_failures():
    report = check_euclidean(FOUR_SQUARES, 2, 2)
    assert not report.ok
    assert report.checked == 544
    assert len(report.failures) == 16
    points = {str(f.x) for f in report.failures}
    assert "1,1,1,1/2" in points
    assert all(f.min_norm == 1 for f in report.failures)
    # every failure is an all-odd-numerator half-integral point
    for fail in report.failures:
        assert fail.x.den.raw == 2
        assert all(n.raw % 2 == 1 for n in fail.x.nums)


def test_check_euclidean_char2():
    f = parse_form("x1^2+t*x2^2", F2)
    report = check_euclidean(f, 2, 2)
    assert report.ok
    assert report.checked == 288


def test_check_euclidean_empty_enumeration():
    report = check_euclidean(CIRCLE, 1, 2)  # no denominators of norm <= 1
    assert report.checked == 0
    assert report.ok


# -- check_euclidean against a reference built from public objects -----------


def reference_points(dom, d, height, box):
    """The points check_euclidean sweeps, through the canonicalizing
    constructor: each normalized non-unit denominator of norm <= height
    with the numerator vectors that stay coprime to it."""
    for den in dom._denominator_raws(height):
        for nums in product(list(dom._box_raws(box)), repeat=d):
            x = FractionPoint(dom, nums, den)
            if x.den.raw == den:
                yield x


def reference_check_euclidean(f, height, box, window=2):
    checked, failures = 0, []
    for x in reference_points(f.domain, f.d, height, box):
        checked += 1
        try:
            euclidean_step(f, x, window)
        except OracleNotFound as err:
            failures.append(EuclideanFailure(x, window, err.min_norm))
    return EuclideanReport(checked, tuple(failures))


EUCLID_CASES = [
    # domain, form, height, box, window, failures
    (ZZ, "5*x^2", 4, 3, 2, 4),
    (ZZ, "x^2+x*y+y^2", 5, 3, 2, 0),
    (ZZ, "x^2-2*y^2", 4, 3, 2, 0),
    (ZZ, "x^2+y^2+7*z^2", 2, 3, 2, 196),
    (ZZ, "x^2+y^2+7*z^2", 2, 3, 0, 196),
    (ZZ, "w^2+2*x*y+y^2+z^2-w*z", 2, 1, 2, 2),
    (ZZ, "w^2+x^2+y^2+z^2", 4, 3, 2, 256),
    # denominators 5-9 exceed twice the box: their residues are the whole
    # axis, so they share one q2 table
    (ZZ, "x^2+y^2+7*z^2", 9, 2, 2, 196),
    (ZI, "(1+i)*x^2", 2, 2, 2, 0),
    (ZI, "x^2+3*y^2", 2, 1, 2, 16),
    (ZI, "x^2+i*x*y+2*y^2", 2, 1, 2, 36),
    (ZI, "x^2+y^2+i*z^2", 2, 1, 1, 80),
    (ZI, "x1^2+x2*x3+x4^2", 2, 1, 0, 2456),
    (F2, "t*x^2", 3, 2, 2, 0),
    (F2, "x1^2+t*x2^2", 2, 2, 2, 0),
    (F2, "x1^2+t*x2*x3+x3^2", 2, 1, 2, 16),
    (F2, "x1*x2+x3*x4", 1, 1, 1, 0),
    (F3, "(t+1)*x^2", 3, 2, 2, 0),
    (F3, "x1^2+t^3*x2^2", 3, 1, 2, 594),
    (F3, "x1^2+x1*x2+t*x2^2+x3^2", 1, 1, 2, 0),
    (F3, "x1^2+x2^2+x3^2+t*x4^2", 1, 0, 2, 0),
    # the euclid-sweep form: its 39 denominators share two q2 tables
    (F3, "x1^2+t*x2^2", 3, 1, 2, 0),
]


@pytest.mark.parametrize(
    "dom, text, height, box, window, n_fail",
    EUCLID_CASES,
    ids=[f"{c[0].name}:{c[1]}:h{c[2]}b{c[3]}w{c[4]}" for c in EUCLID_CASES],
)
def test_check_euclidean_matches_public_reference(dom, text, height, box, window, n_fail):
    f = parse_form(text, dom)
    report = check_euclidean(f, height, box, window)
    expected = reference_check_euclidean(f, height, box, window)
    assert report.checked == expected.checked
    assert report.failures == expected.failures
    # same text too: the CLI prints the points and min_norm with str()
    assert [(str(e.x), str(e.min_norm)) for e in report.failures] == [
        (str(e.x), str(e.min_norm)) for e in expected.failures
    ]
    assert len(report.failures) == n_fail


@pytest.mark.parametrize(
    "dom, text, height, box, window, n_fail",
    EUCLID_CASES,
    ids=[f"{c[0].name}:{c[1]}:h{c[2]}b{c[3]}w{c[4]}" for c in EUCLID_CASES],
)
def test_check_euclidean_same_with_a_streamed_q2_table(monkeypatch, dom, text, height, box, window, n_fail):
    """With no q2 table kept (each denominator sums its rows again) the
    sweep gives the same report."""
    f = parse_form(text, dom)
    expected = check_euclidean(f, height, box, window)
    monkeypatch.setattr(enumeration, "Q2_TABLE_MAX", 0)
    assert check_euclidean(f, height, box, window) == expected


def test_check_euclidean_shares_a_scan_between_negated_classes(monkeypatch):
    """Four squares has no cross term, so its 16 deep-hole residue vectors
    (+-1, +-1, +-1, +-1) at denominator 2 are one class up to sign and run
    one scan, at its first point (-3, -3, -3, -3)/2, whose residue -1 comes
    first on the axis -3..3.  x^2+i*x*y+2*y^2 over Z[i] keeps signed
    classes: its 20 classes that miss the fast path pair up as w0 and -w0,
    and the scan memo runs one scan per pair."""
    real = oracle._search
    calls = []

    def spy(f, b, base, w0, window, **first):
        calls.append((b, tuple(w0)))
        return real(f, b, base, w0, window, **first)

    monkeypatch.setattr(oracle, "_search", spy)
    report = check_euclidean(FOUR_SQUARES, 4, 3)
    assert calls == [(2, (-1, -1, -1, -1))]
    monkeypatch.undo()
    assert report == reference_check_euclidean(FOUR_SQUARES, 4, 3)

    f = parse_form("x^2+i*x*y+2*y^2", ZI)
    missed = set()  # (b, w0) of each coprime class the fast path misses
    for den, _, residues, _, rows in residue_rows(f, 2, 1):
        nb2 = ZI._norm(ZI._mul(den, den))
        for pos, vals, coprime in rows:
            for j, v in enumerate(vals):
                if coprime[j] and not 0 < ZI._norm(v) < nb2:
                    missed.add((den, tuple(residues[p] for p in pos + (j,))))
    calls.clear()
    monkeypatch.setattr(oracle, "_search", spy)
    report = check_euclidean(f, 2, 1)
    monkeypatch.undo()
    assert len(missed) == 20 and len(calls) == 10
    negated = {(b, tuple(map(ZI._neg, w0))) for b, w0 in calls}
    assert set(calls) | negated == missed
    assert report == reference_check_euclidean(f, 2, 1)


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3, GFpT(5)], ids=lambda d: d.name)
def test_offset_windows_are_closed_under_negation(dom):
    # what lets check_euclidean decide w0 and -w0 by one scan
    for window in range(5):
        offsets = dom._offset_raws(window)
        assert {dom._neg(o) for o in offsets} == set(offsets)


def random_euclid_form(dom, rng, d):
    """A random form with square and cross terms; over Z signs are mixed,
    so many are indefinite, and one in three starts with the hyperbolic
    plane x1*x2, so the form is isotropic and the fast path often fails."""
    quad = {}
    for i in range(d):
        for j in range(i, d):
            if rng.random() < (0.7 if i == j else 0.4):
                quad[(i, j)] = dom._random_raw(rng, 1 if dom.name == "Zi" else 2)
    if d >= 2 and rng.random() < 1 / 3:
        quad.pop((0, 0), None)
        quad.pop((1, 1), None)
        quad[(0, 1)] = dom._ONE
    return QuadraticPolynomial(dom, d, quad)


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_check_euclidean_matches_reference_on_random_forms(dom):
    """The denominator-at-a-time sweep against the point-by-point reference
    on seeded random forms, d = 1-4, windows 0-2, small heights and boxes."""
    rng = random.Random(1310)
    sizes = {ZZ: [(2, 1), (3, 1), (2, 2), (4, 2)], ZI: [(2, 1), (5, 1), (2, 2), (4, 1)]}.get(
        dom, [(1, 1), (2, 1), (2, 0)]
    )
    cases = scanned = 0
    for d in range(1, 5):
        for height, box in sizes:
            count = sweep_count(dom, d, height, box)
            if count > 700:
                continue
            for window in range(3):
                if dom._offset_count(window) ** d > 2000:
                    continue
                f = random_euclid_form(dom, rng, d)
                expected = reference_check_euclidean(f, height, box, window)
                assert check_euclidean(f, height, box, window) == expected
                cases += 1
                scanned += bool(expected.failures)
    assert cases >= 15 and scanned >= 8


F5 = GFpT(5)

# failing diagonal forms: (domain, form, height, box)
DIAGONAL_FAILING = [
    (ZZ, "w^2+x^2+y^2+z^2", 2, 1),
    (ZZ, "x1^2+x2^2+x3^2+x4^2+x5^2", 2, 1),
    (ZZ, "x^2+y^2+7*z^2", 2, 3),
    (ZI, "x^2+3*y^2", 2, 1),
    (F3, "x1^2+t^3*x2^2", 3, 1),
]


def random_diagonal_form(dom, rng, d):
    """A form with a nonzero square term on every coordinate and no cross
    term, the forms whose residue classes are taken up to sign."""
    quad = {}
    for i in range(d):
        c = dom._random_raw(rng, 1 if dom is ZI else 2)
        quad[i, i] = dom._ONE if dom._is_zero(c) else c
    return QuadraticPolynomial(dom, d, quad)


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3, F5], ids=lambda d: d.name)
def test_check_euclidean_matches_reference_on_diagonal_forms(monkeypatch, dom):
    """The sweep by classes up to sign against the point-by-point reference
    on seeded diagonal forms, d = 1-4, windows 0-3, and on the domain's
    failing forms of DIAGONAL_FAILING.  On the cases of at most 400 points a
    spy on _search checks every failing class further: a full scan at each
    member point's own w0, which may differ from the class residue in the
    signs of its coordinates, fails with the same least norm."""
    rng = random.Random(f"diagonal-{dom.name}")
    sizes = {ZZ: [(2, 1), (3, 1), (2, 2), (4, 2)], ZI: [(2, 1), (5, 1), (2, 2)]}.get(
        dom, [(1, 0), (2, 0), (1, 1)] if dom is F5 else [(1, 1), (2, 1), (2, 0)]
    )
    forms = [(parse_form(text, dom), h, b) for fdom, text, h, b in DIAGONAL_FAILING if fdom is dom]
    for d in range(1, 5):
        for height, box in sizes:
            if sweep_count(dom, d, height, box) <= 700:
                forms.append((random_diagonal_form(dom, rng, d), height, box))
    real = oracle._search
    neg = dom._neg
    cases = failing = members = flipped = 0
    for f, height, box in forms:
        axis = list(dom._box_raws(box))
        small = sweep_count(dom, f.d, height, box) <= 400
        for window in range(4):
            if dom._offset_count(window) ** f.d > 2000:
                continue

            def spy(f, b, base, w0, window, **first):
                nonlocal members, flipped
                out = real(f, b, base, w0, window, **first)
                if out[0] is None and small:
                    own = oracle._rounded(dom, axis, b)[1]
                    ks = [[k for k, w in enumerate(own) if w in (v, neg(v))] for v in w0]
                    for ix in product(*ks):
                        a = [axis[k] for k in ix]
                        assert enumeration._coprime(dom, a, b)
                        rounded_a = oracle._rounded(dom, a, b)
                        y, _, n, _, _ = real(f, b, *rounded_a, window)
                        assert y is None and n == out[2]
                        members += 1
                        flipped += tuple(rounded_a[1]) != tuple(w0)
                return out

            monkeypatch.setattr(oracle, "_search", spy)
            report = check_euclidean(f, height, box, window)
            monkeypatch.undo()
            assert report == reference_check_euclidean(f, height, box, window)
            cases += 1
            failing += bool(report.failures)
    assert cases >= 15 and failing >= 5 and members >= 20
    # in characteristic 2, -w = w: no member differs from its class residue
    assert (flipped > 0) == (dom is not F2)


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_search_first_fails_exactly_when_the_full_scan_fails(dom):
    """_search with first set, the sweep's early exit out of both loops,
    fails exactly when the full scan fails, with the same least norm.  A
    witness it returns is checked afresh: f2 of the cleared difference
    a - b*y has norm in (0, N(b^2)), y - base is in the window, and after a
    failed fast path y is the first such candidate in product order of the
    offsets.  Seeded forms with cross terms, d = 1-4, windows 0-3."""
    rng = random.Random(f"first-{dom.name}")
    poly = isinstance(dom, type(F2))
    neg, add, norm = dom._neg, dom._add, dom._norm
    cases = scanned = early = failed = 0
    for d, window in product(range(1, 5), range(4)):
        if dom._offset_count(window) ** d > 2000:
            continue
        offsets = dom._offset_raws(window)
        for _ in range(30):
            f = random_euclid_form(dom, rng, d)
            if d > 1 and all(i == j for i, j in f.quad):
                f = QuadraticPolynomial(dom, d, {**f.quad, (0, d - 1): dom._ONE})
            b = dom._random_raw(rng, 2 if poly else 6)
            if dom._is_zero(b) or dom._is_unit(b):
                continue
            a = [dom._random_raw(rng, 3 if poly else 20) for _ in range(d)]
            base, w0 = oracle._rounded(dom, a, b)
            if all(map(dom._is_zero, w0)):
                continue  # a/b is integral
            nb2 = norm(dom._mul(b, b))

            def admissible(y):
                return 0 < norm(f._f2_raw(_cleared_difference(dom, a, b, y))) < nb2

            full = oracle._search(f, b, base, w0, window)
            y, v, n, _, _ = oracle._search(f, b, base, w0, window, first=True)
            cases += 1
            assert (y is None) == (full[0] is None)
            if y is None:
                failed += 1
                assert n == full[2]
                continue
            assert f._f2_raw(_cleared_difference(dom, a, b, y)) == v and admissible(y)
            assert all(add(yk, neg(bk)) in offsets for yk, bk in zip(y, base))
            if not admissible(base):
                scanned += 1
                candidates = (tuple(map(add, base, o)) for o in product(offsets, repeat=d))
                assert tuple(y) == next(filter(admissible, candidates))
                early += tuple(y) != tuple(full[0])
    # the sample reaches both outcomes, and the scan stops at a witness
    # that is not the full scan's least one
    assert cases >= 100 and failed >= 20 and scanned >= 10 and early >= 2


def test_check_euclidean_shares_a_scan_across_bases():
    """Over F_p[t] the points of one residue class differ in their
    polynomial part; the class's scan decides all of them."""
    f = parse_form("x1^2+t*x2*x3+x3^2", F2)
    report = check_euclidean(f, 2, 1)
    assert report == reference_check_euclidean(f, 2, 1)
    classes = {}
    for fail in report.failures:
        x = fail.x
        b = x.den.raw
        residues = tuple(F2._divmod(n.raw, b)[1] for n in x.nums)
        classes.setdefault((b, residues), set()).add(tuple(c.raw for c in rounded(x)))
    assert any(len(bases) > 1 for bases in classes.values())


@pytest.mark.parametrize(
    "dom, text, height, box, window",
    [(ZZ, "w^2+x^2+y^2+z^2", 2, 2, 3), (F2, "x1^2+t*x2*x3+x3^2", 2, 1, 3), (ZI, "x^2+3*y^2", 2, 1, 4)],
    ids=["Z", "Fpt:2", "Zi"],
)
def test_scan_refusal_matches_the_point_by_point_sweep(monkeypatch, dom, text, height, box, window):
    """Under a budget that admits the sweep but not one window scan, the
    sweep is refused with the same text at the same point as the reference,
    the first point whose rounding fails."""
    f = parse_form(text, dom)
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", sweep_count(dom, f.d, height, box))
    assert dom._offset_count(window) ** f.d > enumeration.SEARCH_BUDGET
    real = oracle._search
    for run in (check_euclidean, reference_check_euclidean):
        calls = []

        def spy(f, b, base, w0, window, **first):
            calls.append((base, w0, b))
            return real(f, b, base, w0, window, **first)

        monkeypatch.setattr(oracle, "_search", spy)
        with pytest.raises(SearchBudgetError) as err:
            run(f, height, box, window)
        if run is check_euclidean:
            refused = (str(err.value), calls[-1])
            assert len(calls) == 1
        else:
            assert (str(err.value), calls[-1]) == refused
