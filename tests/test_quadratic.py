import random
from fractions import Fraction

import pytest

from qdescent import (
    DimensionMismatchError,
    DomainMismatchError,
    FractionElement,
    FractionPoint,
    GFpT,
    QuadraticPolynomial,
    ZI,
    ZZ,
)

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


def test_equality():
    assert circle_minus_5() == circle_minus_5()
    assert circle_minus_5() != QuadraticPolynomial(ZZ, 2, {(0, 0): 1, (1, 1): 1})
