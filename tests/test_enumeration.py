"""The enumeration layer against an in-test reference.

The reference builds the whole box with itertools.product and sorts it by
(sum of coordinate norms, coordinatewise sort key), the graded order every
search promises; the lazy enumerations must reproduce it exactly.
"""

import math
import random
from itertools import product

import pytest

from qdescent import (
    FractionPoint,
    GFpT,
    QuadraticPolynomial,
    SearchBox,
    SearchBudgetError,
    ZI,
    ZZ,
    brute_integral_zero,
    check_euclidean,
    check_n2,
    parse_form,
)
from qdescent import enumeration
from qdescent.cli import main
from qdescent.domains import PrimeFieldPolynomials
from qdescent.enumeration import (
    BoxSweep,
    CanonicalPoints,
    first_zero,
    first_zero_count,
)

from helpers import random_quadratic

F2 = GFpT(2)
F3 = GFpT(3)
F5 = GFpT(5)


def reference_points(dom, bounds):
    pts = list(product(*[list(dom._box_raws(b)) for b in bounds]))
    pts.sort(
        key=lambda pt: (
            sum(dom._norm(c) for c in pt),
            tuple(dom._sort_key(c) for c in pt),
        )
    )
    return pts


def swept_pairs(pts):
    """The (nums, den) pairs a canonical point sweep keeps, in sweep order:
    the points of its coprime residue classes, sorted into product order by
    their axis index tuples."""
    q = QuadraticPolynomial(pts.domain, pts.d, {})
    pairs = []
    for den, axis, _, members, rows in pts.residue_rows(q):
        kept = sorted(
            ix
            for pos, _, coprime in rows
            for j, ok in enumerate(coprime)
            if ok
            for ix in product(*(members[p] for p in pos + (j,)))
        )
        pairs.extend((tuple(axis[k] for k in ix), den) for ix in kept)
    return pairs


def integral_pairs(pts):
    """The (nums, den) pairs integral_values yields for the zero form, at
    which every point has the ring value 0: the box points at denominator 1,
    then the points the sweep keeps."""
    q = QuadraticPolynomial(pts.domain, pts.d, {})
    return [(nums, den) for nums, den, _ in pts.integral_values(q)]


def reference_first_zero(f, bounds):
    for pt in reference_points(f.domain, bounds):
        if f.domain._is_zero(f._eval_raw(list(pt))):
            return pt
    return None


def raws(pt):
    return None if pt is None else tuple(c.raw for c in pt)


def plant_zero(f, rng, bounds):
    """f shifted by a constant so that it vanishes at a random box point."""
    dom = f.domain
    y = [rng.choice(list(dom._box_raws(b))) for b in bounds]
    value = f._eval_raw(y)
    return QuadraticPolynomial(dom, f.d, f.quad, f.lin, dom._add(f.const, dom._neg(value)))


def random_z_form(rng, d, squares=True):
    quad = {}
    for i in range(d):
        for j in range(i, d):
            if (i != j or squares) and rng.random() < 0.6:
                quad[(i, j)] = rng.randint(-4, 4)  # zero and negative included
    lin = [rng.randint(-4, 4) if rng.random() < 0.5 else 0 for _ in range(d)]
    return QuadraticPolynomial(ZZ, d, quad, lin, rng.randint(-20, 20))


Z_MAX_BOUND = {1: 12, 2: 6, 3: 4, 4: 2}


def test_first_zero_z_matches_reference_on_random_forms():
    rng = random.Random(20261017)
    found = 0
    for trial in range(400):
        d = 1 + trial % 4
        bounds = [rng.randint(0, Z_MAX_BOUND[d]) for _ in range(d)]
        f = random_z_form(rng, d, squares=trial % 5 != 0)
        if rng.random() < 0.6:
            f = plant_zero(f, rng, bounds)
        expected = reference_first_zero(f, bounds)
        assert raws(first_zero(f, bounds)) == expected, (f, bounds)
        found += expected is not None
    assert found > 200  # most cases exercise the tie-breaking, not just None


def test_first_zero_z_without_square_terms():
    for c in range(-12, 13):
        f = QuadraticPolynomial(ZZ, 2, {(0, 1): 1}, const=-c)
        for bounds in ([4, 4], [2, 5], [6, 1], [0, 3]):
            assert raws(first_zero(f, bounds)) == reference_first_zero(f, bounds)
    # f vanishes on a whole fiber: x1*x2 + x3 with x1 = x3 = 0
    g = parse_form("x1*x2+x3", ZZ)
    for bounds in ([2, 2, 2], [0, 3, 1], [3, 0, 2]):
        assert raws(first_zero(g, bounds)) == reference_first_zero(g, bounds)


def test_first_zero_z_tie_on_a_pruned_fiber():
    # solving for x1 (the widest axis), (1,0,0) is found before (0,1,0); the
    # fiber x2 = 1 already has |x2| equal to the best sum, and its zero wins
    # the tie in lexicographic order, so pruning must keep equal sums
    f = QuadraticPolynomial(ZZ, 3, {}, lin=[1, 1, 0], const=-1)
    assert raws(first_zero(f, [3, 1, 1])) == (0, 1, 0) == reference_first_zero(f, [3, 1, 1])


def test_first_zero_three_squares_below_400():
    # every zero of x^2+y^2+z^2-n lies inside [-isqrt(n), isqrt(n)]^3, so one
    # sorted box at the largest bound gives every reference answer
    first = {}
    for pt in reference_points(ZZ, [math.isqrt(399)] * 3):
        first.setdefault(sum(c * c for c in pt), pt)
    q = parse_form("x^2+y^2+z^2", ZZ)
    for n in range(1, 400):
        got = first_zero(q.sub_scalar(n), [math.isqrt(n)] * 3)
        assert raws(got) == first.get(n), n


def diagonal_form(cs, r):
    return QuadraticPolynomial(ZZ, len(cs), {(i, i): c for i, c in enumerate(cs)}, const=-r)


# largest value per dimension whose witness box (|y_i| <= isqrt(r // c_i))
# the reference still sorts quickly
DIAG_MAX_VALUE = {1: 400, 2: 200, 3: 48, 4: 15}


def test_first_zero_z_positive_diagonal_matches_reference():
    # the bounds of the pruned walk: values with and without a zero, uneven
    # bounds, both random and as verify_adc derives them, a solved axis
    # whose coefficient differs from the others', and several zeros of the
    # least sum, which must still be ordered by their coordinates
    rng = random.Random(20261019)
    found = ties = uneven_axis = 0
    for trial in range(800):
        d = 1 + trial % 4
        cs = [rng.randint(1, 6) for _ in range(d)]
        r = rng.randint(0, DIAG_MAX_VALUE[d])
        if trial % 2:
            bounds = [math.isqrt(r // c) for c in cs]
        else:
            bounds = [rng.randint(0, Z_MAX_BOUND[d]) for _ in range(d)]
            if rng.random() < 0.6:
                y = [rng.randint(-b, b) for b in bounds]
                r = sum(c * v * v for c, v in zip(cs, y))
        f = diagonal_form(cs, r)
        zeros = [pt for pt in reference_points(ZZ, bounds) if not f._eval_raw(list(pt))]
        expected = zeros[0] if zeros else None
        assert raws(first_zero(f, bounds)) == expected, (cs, r, bounds)
        if zeros:
            found += 1
            least = sum(map(abs, expected))
            ties += sum(map(abs, zeros[1])) == least if len(zeros) > 1 else 0
            k = enumeration._fiber_axis(bounds)
            uneven_axis += any(c != cs[k] for c in cs)
    assert found > 400 and ties > 300 and uneven_axis > 250, (found, ties, uneven_axis)


@pytest.mark.parametrize(
    "cs, r, bounds, expected",
    [([1, 1, 1], 1, [2, 1, 1], (-1, 0, 0)), ([2, 1, 1], 9, [4, 3, 3], (-2, -1, 0))],
)
def test_first_zero_z_diagonal_bound_met_with_equality(cs, r, bounds, expected):
    # the solved axis is x; a zero of the least sum turns up first at an
    # earlier prefix, (0,-1,0) and (0,-3,0), and the winner's prefix meets
    # the L1 bound with equality, through the axis's own coefficient
    f = diagonal_form(cs, r)
    assert raws(first_zero(f, bounds)) == expected == reference_first_zero(f, bounds)


def test_first_zero_z_diagonal_small_boxes_exhaustive():
    # every value up to 20 of every diagonal form with coefficients 1-3 in
    # every box of radii 0-3: the first zero per value is read off one
    # sorted sweep of the box
    for cs in product(range(1, 4), repeat=3):
        for bounds in product(range(4), repeat=3):
            first = {}
            for pt in reference_points(ZZ, bounds):
                first.setdefault(sum(c * v * v for c, v in zip(cs, pt)), pt)
            for r in range(21):
                assert raws(first_zero(diagonal_form(cs, r), bounds)) == first.get(r), (cs, bounds, r)


def three_squares_reference(n):
    """The least (|x| + |y| + |z|, (x, y, z)) over every representation of n
    as x^2 + y^2 + z^2, listed with z = +-isqrt(n - x^2 - y^2)."""
    b = math.isqrt(n)
    best = None
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            m = n - x * x - y * y
            z = math.isqrt(m) if m >= 0 else -1
            if z * z == m:
                for t in {-z, z}:
                    cand = (abs(x) + abs(y) + z, (x, y, t))
                    if best is None or cand < best:
                        best = cand
    return None if best is None else best[1]


def test_first_zero_three_squares_400_to_2500():
    rng = random.Random(2500)
    ns = rng.sample(range(400, 2501), 30) + [400, 2500, 1000, 2000, 2011]
    for n in ns:
        got = first_zero(diagonal_form([1, 1, 1], n), [math.isqrt(n)] * 3)
        assert raws(got) == three_squares_reference(n), n


@pytest.mark.parametrize(
    "quad, lin",
    [
        ({(0, 0): 1, (1, 1): 1, (2, 2): 1}, [1, 0, 0]),  # a linear term
        ({(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 2): 1}, [0, 0, 0]),  # a cross term
        ({(0, 0): 1, (1, 1): 2, (2, 2): 0}, [0, 0, 0]),  # a zero square coefficient
        ({(0, 0): 1, (1, 1): 2}, [0, 0, 0]),  # no square term on one coordinate
        ({(0, 0): 1, (1, 1): -2, (2, 2): 1}, [0, 0, 0]),  # a negative one
        ({(0, 0): 1, (1, 1): 1, (2, 2): -1}, [0, 0, 0]),  # x^2 + y^2 - z^2
    ],
    ids=["linear", "cross", "zero-square", "missing-square", "negative-square", "isotropic"],
)
def test_first_zero_z_outside_the_diagonal_bounds(quad, lin):
    # every one of these keeps the plain walk; the reference decides
    for n in range(-6, 40):
        f = QuadraticPolynomial(ZZ, 3, quad, lin, -n)
        for bounds in ([4, 4, 4], [2, 5, 3], [5, 1, 2]):
            assert raws(first_zero(f, bounds)) == reference_first_zero(f, bounds), (n, bounds)


def test_first_zero_zi_matches_reference_on_random_forms():
    rng = random.Random(20261018)
    found = 0
    for trial in range(1200):
        d = 1 + trial % 4
        while True:  # bounds 0-2, with the reference's sorted box kept small
            bounds = [rng.randint(0, 2) for _ in range(d)]
            if math.prod((2 * b + 1) ** 2 for b in bounds) <= 3000:
                break
        f = random_quadratic(ZI, d, rng, coeff_bound=3)
        if trial % 4:
            f = plant_zero(f, rng, bounds)
        if trial % 40 == 0:
            bounds[rng.randrange(d)] = -1
        expected = reference_first_zero(f, bounds)
        assert raws(first_zero(f, bounds)) == expected, (f, bounds)
        found += expected is not None
    assert found > 800


@pytest.mark.parametrize(
    "text, bounds, expected",
    [
        # a = 0, L != 0: one exact division, t = 2i/(1+i) = 1+i
        ("(1+i)*x-2*i", [1], ((1, 1),)),
        ("(1+i)*x-1", [2], None),
        # the fiber x1 = 1 vanishes for every x2, so t = 0 is its zero
        ("x1*x2+(2+2*i)*x1-x2-(2+2*i)", [1, 2], ((1, 0), (0, 0))),
        # L^2 - 4aR = 20: its norm 400 is a square, but 20 is not one in Z[i]
        ("x^2-5", [3], None),
        # L^2 - 4aR = 16-4i: its norm 272 is not a square, though isqrt(272)
        # = 16 would pass the half-sum tests with u = 4, v = 0
        ("x^2-4*x+i", [3], None),
        # roots 1/2 and -1: only -1 is divisible by 2a = 4
        ("2*x^2+x-1", [2], ((-1, 0),)),
        # the fiber x2 = 1 has the best norm sum already; its zero wins the tie
        ("x1+x2-1", [2, 1], ((0, 0), (1, 0))),
    ],
    ids=[
        "linear", "linear-inexact", "vanishing-fiber", "non-square", "non-square-norm",
        "not-divisible", "tie",
    ],
)
def test_first_zero_zi_degenerate_fibers(text, bounds, expected):
    f = parse_form(text, ZI)
    assert reference_first_zero(f, bounds) == expected
    assert raws(first_zero(f, bounds)) == expected


def test_first_zero_zi_refusal_is_the_box_scan_refusal(monkeypatch):
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 100)
    f = parse_form("x^2+i*y^2-2", ZI)
    assert first_zero_count(ZI, [1, 1]) == 81
    assert raws(first_zero(f, [1, 1])) == reference_first_zero(f, [1, 1])
    with pytest.raises(SearchBudgetError, match="^a graded box search would enumerate 625 "):
        first_zero(f, [2, 2])
    g = parse_form("x^2+t*y^2-t", F3)
    assert first_zero_count(F3, [0, 1]) == 27
    assert raws(first_zero(g, [0, 1])) == reference_first_zero(g, [0, 1])
    with pytest.raises(SearchBudgetError, match="^a graded box search would enumerate 243 "):
        first_zero(g, [1, 2])


def test_first_zero_fpt_matches_reference_on_random_forms():
    rng = random.Random(20261019)
    found = 0
    for dom in (F2, F3, F5):
        for trial in range(240):
            d = 1 + trial % 4
            while True:  # degrees 0-2, with the reference's sorted box kept small
                bounds = [rng.randint(0, 2) for _ in range(d)]
                if math.prod(dom._box_count(b) for b in bounds) <= 700:
                    break
            f = random_quadratic(dom, d, rng, coeff_bound=3)
            if trial % 4:
                f = plant_zero(f, rng, bounds)
            if trial % 40 == 0:
                bounds[rng.randrange(d)] = -1  # box(-1) of F_p[t] is {0}
            expected = reference_first_zero(f, bounds)
            assert raws(first_zero(f, bounds)) == expected, (f, bounds)
            found += expected is not None
    assert found > 480


@pytest.mark.parametrize(
    "text, bounds, expected",
    [
        # a = 0, L != 0: (t+1)*x = t^2+t at x = t
        ("(t+1)*x-t^2-t", [1], ((0, 1),)),
        ("(t+1)*x-1", [2], None),
        # (x1-1)*(x2+t): the fiber x1 = 1 vanishes for every x2, so x2 = 0
        ("x1*x2+t*x1-x2-t", [1, 2], ((1,), ())),
        # the fiber x2 = 1 has the best norm sum already; its zero wins the tie
        ("x1+x2-1", [2, 1], ((), (1,))),
        # x1 = t+1 and x1 = 2t tie on the norm sum with x2 = 0; t+1 has the
        # smaller key, though the raw (0, 2) of 2t sorts before (1, 1)
        ("(x1-2*t)*(x1-t-1)+x2", [1, 2], ((1, 1), ())),
    ],
    ids=["linear", "linear-inexact", "vanishing-fiber", "tie", "keys-not-raws"],
)
def test_first_zero_fpt_degenerate_fibers(text, bounds, expected):
    f = parse_form(text, F3)
    assert reference_first_zero(f, bounds) == expected
    assert raws(first_zero(f, bounds)) == expected


@pytest.mark.parametrize(
    "dom,bounds",
    [
        (ZZ, [3, 1, 2]),
        (ZI, [1, 2]),
        (ZI, [2, 0, 1]),
        (F2, [2, 1]),
        (F2, [1, 1, 1]),
        (F3, [1, 2]),
        (F3, [0, 1, 1]),
        (F3, [2]),
        (ZI, [3]),
    ],
    ids=str,
)
def test_graded_box_order_and_count(dom, bounds):
    """Each axis of the box comes in graded order, and the zero search is
    sized as the whole box; over Z, as the box without its widest axis."""
    pts = reference_points(dom, bounds)
    if dom == ZZ:
        assert first_zero_count(dom, bounds) == len(pts) // (2 * max(bounds) + 1)
        return
    for b in bounds:
        assert list(dom._graded_raws(b)) == [pt[0] for pt in reference_points(dom, [b])]
    assert first_zero_count(dom, bounds) == len(pts)


@pytest.mark.parametrize("dom,bound", [(ZI, 2), (F2, 2), (F3, 1)], ids=str)
def test_first_zero_lazy_shells_match_reference(dom, bound):
    rng = random.Random(7)
    for trial in range(40):
        d = 1 + trial % 3
        bounds = [rng.randint(0, bound) for _ in range(d)]
        f = random_quadratic(dom, d, rng, coeff_bound=3)
        if trial % 4:
            f = plant_zero(f, rng, bounds)
        assert raws(first_zero(f, bounds)) == reference_first_zero(f, bounds)


def test_counts_match_enumeration_lengths():
    for dom, bounds in (
        (ZI, [0, 1]), (ZI, [-1]), (F2, [0, 2]), (F3, [1]), (F3, [-1, 0]), (F5, [1, -1]),
    ):
        assert first_zero_count(dom, bounds) == len(reference_points(dom, bounds))
    for dom, d, height, box in ((ZZ, 2, 5, 2), (ZI, 2, 5, 1), (F2, 2, 2, 1), (F3, 1, 2, 1)):
        pts = CanonicalPoints(dom, d, height, box)
        for integral in (False, True):
            # integral_values also takes denominator 1, and is sized with it
            dens = [dom.coerce_raw(1)] * integral + list(dom._denominator_raws(height))
            candidates = [(den, nums) for den in dens
                          for nums in product(list(dom._box_raws(box)), repeat=d)]
            assert pts.count() + integral * dom._box_count(box) ** d == len(candidates)
            kept = []
            for den, nums in candidates:
                g = den
                for c in nums:
                    g = dom._gcd(g, c)
                if dom._is_unit(g):
                    kept.append((nums, den))
            assert (integral_pairs if integral else swept_pairs)(pts) == kept
    # over Z the zero search visits fibers: the box without its widest axis
    assert first_zero_count(ZZ, [3, 1, 2]) == 3 * 5
    assert first_zero_count(ZI, [1, 0]) == 9


@pytest.mark.parametrize(
    "dom, d, height, box",
    [(ZZ, 3, 6, 2), (ZI, 2, 5, 1), (F2, 3, 2, 1), (F3, 2, 2, 1), (F5, 2, 1, 1)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_canonical_points_are_the_canonicalizing_filter(dom, d, height, box):
    """The raw pairs are exactly the points the canonicalizing constructor
    leaves unchanged, and the trusted constructor rebuilds each of them."""
    for integral in (False, True):
        dens = [dom.coerce_raw(1)] * integral + list(dom._denominator_raws(height))
        kept = [
            (nums, den)
            for den in dens
            for nums in product(list(dom._box_raws(box)), repeat=d)
            if FractionPoint(dom, nums, den).den.raw == den
        ]
        pairs = (integral_pairs if integral else swept_pairs)(CanonicalPoints(dom, d, height, box))
        assert pairs == kept
        assert any(not dom._is_unit(den) for _, den in pairs)
        for nums, den in pairs:
            x, public = FractionPoint._trusted(dom, nums, den), FractionPoint(dom, nums, den)
            assert (x, str(x), hash(x)) == (public, str(public), hash(public))


def test_three_squares_large_n_is_answered():
    f = QuadraticPolynomial(ZZ, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1}, const=-1000001)
    assert raws(brute_integral_zero(f, SearchBox(1000))) == (-1000, -1, 0)


def test_budget_refusal_before_anything_is_built(monkeypatch):
    big = GFpT(1000003)

    def boom(self, *args):
        raise AssertionError("enumeration started before the budget check")

    monkeypatch.setattr(PrimeFieldPolynomials, "_box_raws", boom)
    monkeypatch.setattr(PrimeFieldPolynomials, "_denominator_raws", boom)
    monkeypatch.setattr(PrimeFieldPolynomials, "_graded_raws", boom)
    with pytest.raises(SearchBudgetError):
        CanonicalPoints(big, 2, 1, 1).residue_rows(parse_form("x^2+y^2", big))
    with pytest.raises(SearchBudgetError):
        check_euclidean(parse_form("x^2+y^2", big), 1, 1)
    with pytest.raises(SearchBudgetError):
        first_zero(parse_form("x^2+y^2-1", big), [1, 1])


def test_budget_applies_to_z_fibers(monkeypatch):
    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 100)
    f = parse_form("x^2+y^2+z^2-13", ZZ)
    assert raws(brute_integral_zero(f, SearchBox(4))) == (-3, -2, 0)  # 81 fibers
    with pytest.raises(SearchBudgetError):
        brute_integral_zero(f, SearchBox(5))  # 121 fibers


def test_cli_budget_refusal_exit_2(capsys):
    code = main([
        "check", "euclidean", "--domain", "Fpt:1000003", "--form", "x^2+y^2",
        "--height", "1", "--box", "1",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "search budget" in err


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_box_sweep_is_box_raws_order(dom):
    for bound in range(4):
        sweep = BoxSweep(dom, bound)
        assert [e.raw for e in sweep] == list(dom._box_raws(bound))
        assert sweep.count() == len(list(dom._box_raws(bound)))


def test_box_sweep_refused_before_anything_is_built(monkeypatch):
    def boom(self, *args):
        raise AssertionError("enumeration started before the budget check")

    monkeypatch.setattr(PrimeFieldPolynomials, "_box_raws", boom)
    big = GFpT(1000003)
    with pytest.raises(SearchBudgetError, match="element sweep"):
        iter(BoxSweep(big, 1))
    with pytest.raises(SearchBudgetError):
        check_n2(big, parse_form("x^2+y^2", big), BoxSweep(big, 1))


def random_form(dom, rng, d, cross):
    """A form with random square terms and, when cross is set, at least one
    cross term per coordinate pair (0, j); any coefficient may be zero."""
    quad = {}
    for i in range(d):
        for j in range(i, d):
            forced = cross and i == 0 and j > 0
            if forced or (rng.random() < 0.6 and (i == j or cross)):
                quad[(i, j)] = dom._random_raw(rng, 2)
    return QuadraticPolynomial(dom, d, quad)


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_integral_values_match_the_point_filter_and_form_value(dom):
    """integral_values yields exactly the (nums, den, r) of the kept points
    where _form_value_raw is a ring value, in the same order, for forms with
    and without cross terms; height 0 leaves only the denominator 1."""
    rng = random.Random(11)
    cases = 0
    for d in range(1, 5):
        forms = [random_form(dom, rng, d, cross) for cross in (False, True, True)]
        for height, box in product(range(4), range(3)):
            pts = CanonicalPoints(dom, d, height, box)
            box_points = list(product(list(dom._box_raws(box)), repeat=d))
            if pts.count() + len(box_points) > 2000:
                continue
            # every box point at denominator 1, then the points the sweep keeps
            kept = [(nums, dom.coerce_raw(1)) for nums in box_points] + swept_pairs(pts)
            for q in forms:
                expected = [
                    (nums, den, r)
                    for nums, den in kept
                    if (r := q._form_value_raw(nums, den)) is not None
                ]
                assert list(pts.integral_values(q)) == expected
                cases += 1
    assert cases >= 40


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_integral_values_same_past_the_q2_table_bound(dom, monkeypatch):
    """A box over Q2_TABLE_MAX points sums q2 again per denominator instead
    of keeping it; both give the same values in the same order."""
    rng = random.Random(12)
    for d in range(1, 4):
        for cross in (False, True):
            q = random_form(dom, rng, d, cross)
            pts = CanonicalPoints(dom, d, 3, 1)
            kept = list(pts.integral_values(q))
            monkeypatch.setattr(enumeration, "Q2_TABLE_MAX", 0)
            assert list(pts.integral_values(q)) == kept
            monkeypatch.undo()


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_residue_rows_hold_the_cleared_value_of_each_point(dom):
    """Each axis element's a - b*round(a/b) is the residue of its class, the
    classes partition the axis, and each row value is f2 at the class
    residues, the cleared value f2(a - b*round(a/b)) the oracle's fast path
    tests at every point a/b of the class."""
    rng = random.Random(5)
    for d in range(1, 4):
        for cross in (False, True):
            q = random_form(dom, rng, d, cross)
            pts = CanonicalPoints(dom, d, 2, 1)
            for den, axis, residues, members, rows in pts.residue_rows(q):
                for w, ks in zip(residues, members):
                    assert ks == sorted(ks)
                    for k in ks:
                        u = axis[k]
                        assert dom._add(u, dom._neg(dom._mul(den, dom._round_quotient(u, den)))) == w
                assert sorted(k for ks in members for k in ks) == list(range(len(axis)))
                assert len(set(residues)) == len(residues)
                seen = []
                for pos, vals, _ in rows:
                    seen.append(pos)
                    assert len(vals) == len(residues)
                    for j, v in enumerate(vals):
                        assert v == q._f2_raw([residues[p] for p in pos + (j,)])
                assert seen == list(product(range(len(residues)), repeat=d - 1))


def test_integral_values_is_sized_like_the_sweep(monkeypatch):
    def boom(self, *args):
        raise AssertionError("enumeration started before the budget check")

    monkeypatch.setattr(PrimeFieldPolynomials, "_box_raws", boom)
    monkeypatch.setattr(PrimeFieldPolynomials, "_denominator_raws", boom)
    big = GFpT(1000003)
    with pytest.raises(SearchBudgetError, match="canonical point sweep"):
        CanonicalPoints(big, 2, 1, 1).integral_values(parse_form("x^2+y^2", big))
