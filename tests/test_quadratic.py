import pickle
import random
from fractions import Fraction

import pytest

from qdescent import (
    DimensionMismatchError,
    DomainElement,
    DomainMismatchError,
    FractionElement,
    FractionPoint,
    GFpT,
    QuadraticPolynomial,
    ZI,
    ZZ,
)

from helpers import random_quadratic

F2 = GFpT(2)
F3 = GFpT(3)


def circle_minus_5():
    return QuadraticPolynomial(ZZ, 2, {(0, 0): 1, (1, 1): 1}, const=-5)


def test_construction_normalizes():
    f = QuadraticPolynomial(ZZ, 2, {(0, 0): 1, (0, 1): 0, (1, 1): 2}, [0, 3], 4)
    assert f.quad == {(0, 0): 1, (1, 1): 2}  # zero coefficient dropped
    assert f.lin == (0, 3)
    assert f.const == 4
    assert not f.is_form()


def test_construction_validates():
    with pytest.raises(DimensionMismatchError):
        QuadraticPolynomial(ZZ, 0, {})
    with pytest.raises(DimensionMismatchError):
        QuadraticPolynomial(ZZ, 2, {(0, 2): 1})
    with pytest.raises(DimensionMismatchError):
        QuadraticPolynomial(ZZ, 2, {(1, 0): 1})  # i <= j required
    with pytest.raises(DimensionMismatchError):
        QuadraticPolynomial(ZZ, 1, {}, [1, 2])


def test_eval_exact():
    f = circle_minus_5()
    assert f.eval(FractionPoint(ZZ, [-11, 2], 5)).is_zero()
    # f(1/2, 1/2) = 1/4 + 1/4 - 5 = -9/2
    assert f.eval(FractionPoint(ZZ, [1, 1], 2)) == FractionElement(ZZ, -9, 2)
    assert f.eval_at_integral([1, 2]) == 0
    assert f.eval_at_integral([3, 1]) == 5
    # the homogeneous part alone, on a raw vector
    assert f._f2_raw([3, 1]) == 10


def test_eval_checks_domain_and_dimension():
    f = circle_minus_5()
    with pytest.raises(DomainMismatchError):
        f.eval(FractionPoint(ZI, [(1, 0), (1, 0)], (1, 0)))
    with pytest.raises(DimensionMismatchError):
        f.eval(FractionPoint(ZZ, [1, 2, 3], 1))
    with pytest.raises(TypeError):
        f.eval_at_integral(FractionPoint(ZZ, [1, 2], 1))
    with pytest.raises(DimensionMismatchError):
        f.eval_at_integral([1, 2, 3])


def test_gaussian_eval():
    # x1*x2 - 2i at (-4i, -i)/(1+i): (-4i)(-i)/(1+i)^2 - 2i = -4/2i - 2i = 0
    f = QuadraticPolynomial(ZI, 2, {(0, 1): (1, 0)}, const=(0, -2))
    x = FractionPoint(ZI, [(0, -4), (0, -1)], (1, 1))
    assert f.eval(x).is_zero()


def test_expand_along_line_identities():
    f = circle_minus_5()
    exp = f.expand_along_line([-2, 0], [-1, 2])
    # A = f2(v), C = f(y), and f(y + 1*v) = A + B + C
    assert exp.A.raw == f._f2_raw([-1, 2])
    assert exp.C == f.eval_at_integral([-2, 0])
    assert exp.A.raw + exp.B.raw + exp.C.raw == f.eval_at_integral([-3, 2]).raw
    # frozen values for the worked example geometry
    assert (exp.A.raw, exp.B.raw, exp.C.raw) == (5, 4, -1)


def test_expand_along_line_char2_diagonal_is_tangent_everywhere():
    # in characteristic 2 the bilinear form of a diagonal form vanishes
    # identically, so without a linear part B = 0 for every y and v
    f = QuadraticPolynomial(F2, 2, {(0, 0): 1, (1, 1): (0, 1)}, const=(0, 0, 1))
    rng = random.Random(3)
    for _ in range(50):
        y = [F2._random_raw(rng, 3), F2._random_raw(rng, 3)]
        v = [F2._random_raw(rng, 3), F2._random_raw(rng, 3)]
        assert f.expand_along_line(y, v).B.is_zero()
    # a linear part restores movement along lines
    g = QuadraticPolynomial(F2, 2, {(0, 0): 1, (1, 1): (0, 1)}, [(1,), ()], (0, 0, 1))
    assert not g.expand_along_line([(0, 1), (1,)], [(1,), (1,)]).B.is_zero()


def test_is_form_and_sub_scalar():
    q = QuadraticPolynomial(ZZ, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    assert q.is_form()
    f = q.sub_scalar(13)
    assert f.const == -13
    assert not f.is_form()
    assert f.eval_at_integral([3, 2, 0]) == 0
    # subtracting restores equality with an explicitly built polynomial
    assert f == QuadraticPolynomial(ZZ, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1}, const=-13)


SUB_SCALARS = {
    # raw literals each domain may or may not accept, beyond an int
    ZZ: [(1, 2)],
    ZI: [(2, -3), (0, 0)],
    F2: [(1, 0, 1), (0, 2)],
    F3: [(2, 1), (4, 0, 3, 0), ()],
}


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_sub_scalar_equals_the_constructed_polynomial(dom):
    # sub_scalar shares the checked tables and swaps the constant; the
    # result is the polynomial the constructor builds, in every view of it
    rng = random.Random(20)
    for _ in range(12):
        d = rng.randint(1, 3)
        f = random_quadratic(dom, d, rng, 4)
        scalars = [rng.randint(-7, 7), 0] + SUB_SCALARS[dom] + [DomainElement(dom, dom._random_raw(rng, 3))]
        for r in scalars:
            try:
                const = dom._add(f.const, dom._neg(dom.coerce_raw(r)))
            except TypeError:
                with pytest.raises(TypeError):
                    f.sub_scalar(r)
                continue
            expected = QuadraticPolynomial(dom, d, f.quad, f.lin, const)
            got = f.sub_scalar(r)
            assert got == expected
            assert repr(got) == repr(expected)
            assert got._quad_terms == expected._quad_terms
            assert got._lin_terms == expected._lin_terms
            assert got.quad is not f.quad
            back = pickle.loads(pickle.dumps(got))
            assert back == expected and repr(back) == repr(expected)
            assert back._quad_terms == expected._quad_terms
            assert back._lin_terms == expected._lin_terms
            y = [dom._random_raw(rng, 3) for _ in range(d)]
            assert got._eval_raw(y) == expected._eval_raw(y)


def test_sub_scalar_refuses_a_wrong_domain_scalar():
    q = QuadraticPolynomial(ZZ, 2, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(DomainMismatchError):
        q.sub_scalar(DomainElement(ZI, (1, 0)))
    with pytest.raises(TypeError):
        q.sub_scalar((1, 0))
    with pytest.raises(TypeError):
        QuadraticPolynomial(F3, 1, {(0, 0): 1}).sub_scalar("t")


def test_equality():
    assert circle_minus_5() == circle_minus_5()
    assert circle_minus_5() != QuadraticPolynomial(ZZ, 2, {(0, 0): 1, (1, 1): 1})


# -- raw evaluation against reference sums -------------------------------------


def _reference_ring(dom):
    """(add, mul) on raws by schoolbook arithmetic that shares nothing with
    the domain's kernels."""
    if dom is ZZ:
        return (lambda a, b: a + b), (lambda a, b: a * b)
    if dom is ZI:
        return (
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
        )
    p = dom.p

    def strip(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return tuple(c)

    def add(a, b):
        n = max(len(a), len(b))
        return strip([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])

    def mul(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return strip(out)

    return add, mul


def _reference_sums(dom, quad, lin, const):
    """f2, f and the cleared numerator b^2 f(a/b) as the plain sums over
    every monomial, every coefficient multiplied in."""
    add, mul = _reference_ring(dom)

    def f2(y):
        acc = dom._ZERO
        for (i, j), c in quad.items():
            acc = add(acc, mul(c, mul(y[i], y[j])))
        return acc

    def f1(y):
        acc = dom._ZERO
        for i, c in enumerate(lin):
            acc = add(acc, mul(c, y[i]))
        return acc

    def f(y):
        return add(add(f2(y), f1(y)), const)

    def cleared(a, b):
        return add(add(f2(a), mul(b, f1(a))), mul(mul(b, b), const))

    return f2, f, cleared


EVAL_DOMAINS = [ZZ, ZI, F2, F3, GFpT(1000003)]


@pytest.mark.parametrize("dom", EVAL_DOMAINS, ids=lambda d: d.name)
def test_raw_evaluation_matches_reference_sums(dom):
    # coefficients drawn from zero, one, minus one and random raws, so the
    # term table holds unit entries (no multiply), -1 entries (a multiply)
    # and dropped zeros; with and without a linear part and a constant
    rng = random.Random(f"raw-eval-{dom.name}")
    minus_one = dom._neg(dom._ONE)
    small = [dom._ZERO, dom._ONE, minus_one]
    saw_unit = saw_other = False
    def coeff():
        return rng.choice(small + [dom._random_raw(rng, 3)])

    for trial in range(120):
        d = rng.randint(1, 4)
        quad = {(i, j): coeff() for i in range(d) for j in range(i, d) if rng.random() < 0.7}
        lin = [coeff() for _ in range(d)] if trial % 3 else []
        const = coeff() if trial % 2 else dom._ZERO
        f = QuadraticPolynomial(dom, d, quad, lin, const)
        kept = {k: c for k, c in quad.items() if not dom._is_zero(c)}
        assert [(i, j) for i, j, _ in f._quad_terms] == sorted(kept)
        for i, j, c in f._quad_terms:
            assert (c is None) == (kept[i, j] == dom._ONE)
            saw_unit |= c is None
            saw_other |= c is not None
        lin_full = list(lin) + [dom._ZERO] * (d - len(lin))
        ref_f2, ref_f, ref_cleared = _reference_sums(dom, kept, lin_full, const)
        for _ in range(6):
            # magnitudes of about 2, 8 and 120 bits, or degrees 2, 8 and 120
            size = rng.choice([2, 8, 120])
            bound = size if dom not in (ZZ, ZI) else 1 << size
            y = [rng.choice(small + [dom._random_raw(rng, bound)]) for _ in range(d)]
            b = dom._random_raw(rng, bound)
            assert f._f2_raw(y) == ref_f2(y), (quad, y)
            assert f._eval_raw(y) == ref_f(y), (quad, lin, const, y)
            assert f._cleared_raw(y, b) == ref_cleared(y, b), (quad, lin, const, y, b)
    assert saw_unit and saw_other
    # an empty quadratic part evaluates to zero, with or without the rest
    f = QuadraticPolynomial(dom, 2, {}, [dom._ONE], minus_one)
    assert f._f2_raw([dom._ONE, dom._ONE]) == dom._ZERO
    assert f._eval_raw([dom._ONE, dom._ZERO]) == dom._ZERO
    assert QuadraticPolynomial(dom, 1, {})._cleared_raw([dom._ONE], dom._ONE) == dom._ZERO
