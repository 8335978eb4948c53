import copy
import math
import operator
import pickle
import random
import time
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdescent import (
    DomainElement,
    DomainMismatchError,
    ExactDivisionError,
    FractionElement,
    FractionPoint,
    GFpT,
    N2Failure,
    SearchBudgetError,
    ZI,
    ZZ,
    ZeroDenominatorError,
    check_norm_axioms,
    domain_from_name,
)
from qdescent import domains
from qdescent.enumeration import SEARCH_BUDGET

F2 = GFpT(2)
F3 = GFpT(3)


# -- construction and lookup -------------------------------------------------


def test_domain_from_name():
    assert domain_from_name("Z") is ZZ
    assert domain_from_name("Zi") is ZI
    assert domain_from_name("Fpt:3") is F3
    with pytest.raises(ValueError):
        domain_from_name("Q")
    with pytest.raises(ValueError):
        domain_from_name("Fpt:4")  # not prime


def test_gfpt_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        GFpT(6)
    with pytest.raises(ValueError):
        GFpT(1)


def test_large_characteristic_primality_is_decided_quickly():
    start = time.perf_counter()
    assert GFpT(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match=r"divisible by 1000003\)"):
        GFpT(1000036000099)  # 1000003 * 1000033, found by trial division
    # both factors lie above the trial-division limit 2^20
    assert 1048583 * 1048589 == 1099532599387
    with pytest.raises(ValueError, match="strong probable-prime test"):
        GFpT(1099532599387)
    # the strong pseudoprime to the first twelve prime bases needs the 13th
    with pytest.raises(ValueError, match="base 41"):
        GFpT(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        GFpT(2**89 - 1)  # prime, but above the bound where the test is a proof


def test_element_coercion():
    assert ZZ.element(7).raw == 7
    assert ZI.element(7).raw == (7, 0)
    assert ZI.element((2, -3)).raw == (2, -3)
    assert F3.element(5).raw == (2,)
    assert F3.element((4, 7, 3)).raw == (1, 1)  # coefficients mod 3, stripped
    assert F3.element(3).raw == ()
    with pytest.raises(DomainMismatchError):
        ZZ.element(ZI.element(1))


@pytest.mark.parametrize(
    "dom, other", [(ZZ, ZI), (ZI, F3), (F3, GFpT(5))], ids=["Z", "Zi", "Fpt:3"]
)
def test_coerce_raw_mismatch_message(dom, other):
    with pytest.raises(DomainMismatchError) as err:
        dom.coerce_raw(other.one)
    assert str(err.value) == f"expected {dom.name} element, got {other.name}"
    assert dom.coerce_raw(dom.one) == dom._ONE


def test_domain_equality_and_hashing():
    from qdescent.domains import PrimeFieldPolynomials

    assert PrimeFieldPolynomials(3) == GFpT(3) and PrimeFieldPolynomials(3) is not GFpT(3)
    assert hash(PrimeFieldPolynomials(3)) == hash(GFpT(3))
    assert GFpT(3) != GFpT(5)
    assert ZZ != ZI and ZI != GFpT(3) and ZZ != GFpT(2)
    table = {ZZ: "Z", ZI: "Zi", GFpT(3): "Fpt:3", GFpT(5): "Fpt:5"}
    assert table[PrimeFieldPolynomials(3)] == "Fpt:3"
    assert table[PrimeFieldPolynomials(5)] == "Fpt:5"
    assert table[type(ZZ)()] == "Z" and table[type(ZI)()] == "Zi"
    assert len(table) == 4


# -- arithmetic --------------------------------------------------------------


def test_integer_arithmetic():
    a, b = ZZ.element(-6), ZZ.element(4)
    assert (a + b).raw == -2
    assert (a * b).raw == -24
    assert (-a).raw == 6
    assert (a - b).raw == -10
    assert a.norm() == 6
    assert not a.is_unit()
    assert ZZ.element(-1).is_unit()
    assert a == -6 and b == 4  # int comparison


def test_gaussian_arithmetic():
    u = ZI.element((1, 2))
    v = ZI.element((3, -1))
    assert (u * v).raw == (5, 5)
    assert (u + v).raw == (4, 1)
    assert u.norm() == 5
    assert ZI.element((3, 4)).norm() == 25
    assert ZI.element((0, 1)).is_unit()
    assert not ZI.element((1, 1)).is_unit()


def test_polynomial_arithmetic():
    # (t + 2)^2 = t^2 + t + 1 over F_3
    a = F3.element((2, 1))
    assert (a * a).raw == (1, 1, 1)
    assert a.norm() == 3
    assert (a * a).norm() == 9
    assert F3.element(2).is_unit()
    assert not a.is_unit()
    # char-2 Frobenius: (t+1)^2 = t^2+1
    b = F2.element((1, 1))
    assert (b * b).raw == (1, 0, 1)


def _schoolbook(a, b, p):
    """Reference F_p[t] product: every coefficient pair, reduced at the end."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _kernel_operands(p, length, rng):
    """Polynomials with exactly `length` coefficients: random ones, one with
    leading coefficient p-1, and the all-(p-1) one, which fills every slot
    of a Kronecker product to its bound min(len)*(p-1)^2."""
    if length == 0:
        return [()]
    top = p - 1
    polys = [
        tuple(rng.randrange(p) for _ in range(length - 1)) + (rng.randrange(1, p),),
        tuple(rng.randrange(p) for _ in range(length - 1)) + (top,),
        (top,) * length,
    ]
    if length > 2:  # sparse: a monomial-like shape with zeros inside
        polys.append((rng.randrange(1, p),) + (0,) * (length - 2) + (top,))
    return polys


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1000003, 2**31 - 1])
def test_polynomial_mul_matches_schoolbook(p):
    # every p below 16 takes the Kronecker path while the shorter factor fits
    # one-byte slots, and its bytes are reduced through that p's table: p = 2
    # throughout lengths 0-40, p = 3 up to 63 coefficients, 5 up to 15, 7 up
    # to 7 and 13 only for a constant factor; 1000003 and 2**31-1 never, so
    # they keep the schoolbook loop; p = 2 takes two-byte slots past 255
    dom = GFpT(p)
    rng = random.Random(p)
    for la in range(41):
        for lb in (0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 23, 32, 40):
            for a in _kernel_operands(p, la, rng):
                for b in _kernel_operands(p, lb, rng)[:2]:
                    prod = dom._mul(a, b)
                    assert prod == _schoolbook(a, b, p), (la, lb, a, b)
                    assert dom._mul(b, a) == prod
                    if b:
                        assert dom._divexact(prod, b) == a
    if p == 2:
        # past 255 coefficients F_2[t] products take two-byte slots; the
        # all-ones factor fills each slot to min(la, lb), past one byte
        lengths = (255, 256, 257, 258, 400, 1000)
        for la in lengths:
            for lb in lengths:
                if la <= lb:
                    a = _kernel_operands(p, la, rng)[2]
                    b = _kernel_operands(p, lb, rng)[0]
                    prod = dom._mul(a, b)
                    assert prod == _schoolbook(a, b, p), (la, lb)
                    assert dom._mul(b, a) == prod
                    assert dom._divexact(prod, b) == a


@pytest.mark.parametrize(
    "p, lengths", [(2, range(254, 259)), (3, range(62, 67))], ids=["Fpt:2", "Fpt:3"]
)
def test_polynomial_mul_across_one_byte_slot_limit(p, lengths):
    # one-byte Kronecker slots hold min(len)*(p-1)^2 <= 255: up to 255
    # coefficients for p = 2 and 63 for p = 3; past that p = 2 takes
    # two-byte slots and p = 3 the schoolbook loop
    dom = GFpT(p)
    rng = random.Random(p)
    for la in lengths:
        for lb in lengths:
            for a in _kernel_operands(p, la, rng)[1:3]:
                for b in _kernel_operands(p, lb, rng)[1:3]:
                    prod = dom._mul(a, b)
                    assert prod == _schoolbook(a, b, p), (la, lb)
                    assert dom._divexact(prod, b) == a


def test_element_str():
    assert str(ZZ.element(-3)) == "-3"
    assert str(ZI.element((3, -2))) == "3-2i"
    assert str(ZI.element((0, 1))) == "i"
    assert str(ZI.element((0, -2))) == "-2i"
    assert str(ZI.element((1, 1))) == "1+i"
    assert str(ZI.element(0)) == "0"
    assert str(F3.element((1, 0, 2))) == "2*t^2+1"
    assert str(F2.element((1, 1))) == "t+1"
    assert str(F2.element(0)) == "0"


def test_gcd_values():
    assert ZZ.element(12).raw == 12
    g = ZZ._gcd(12, -18)
    assert g == 6
    # gcd(5, 3+i): 5 = (2+i)(2-i) and (2-i) | 3+i; first-quadrant associate
    g = ZI._gcd((5, 0), (3, 1))
    assert ZI._norm(g) == 5
    assert g == (1, 2)
    # monic gcd over F_3: gcd(t^2-1, t+1) = t+1
    g = F3._gcd((2, 0, 1), (1, 1))
    assert g == (1, 1)


# -- fractions ---------------------------------------------------------------


def test_fraction_canonicalization_z():
    x = FractionElement(ZZ, 4, -6)
    assert str(x) == "-2/3"
    assert x.ext_norm() == Fraction(2, 3)
    assert not x.is_integral()
    y = FractionElement(ZZ, -8, -2)
    assert y.is_integral()
    assert y.to_element() == 4
    with pytest.raises(ZeroDenominatorError):
        FractionElement(ZZ, 1, 0)


def test_fraction_canonicalization_zi():
    # 2i/(1+i) = 1+i exactly
    x = FractionElement(ZI, (0, 2), (1, 1))
    assert x.is_integral()
    assert x.to_element().raw == (1, 1)
    # 1/i = -i, denominator normalized away
    y = FractionElement(ZI, (1, 0), (0, 1))
    assert y.is_integral()
    assert y.to_element().raw == (0, -1)
    # denominator forced into the first quadrant
    z = FractionElement(ZI, (1, 0), (0, 2))  # 1/(2i) = -i/2
    assert z.den.raw == (2, 0)
    assert z.num.raw == (0, -1)


def test_fraction_canonicalization_fpt():
    # (1+t)/2t over F_3: denominator made monic
    x = FractionElement(F3, (1, 1), (0, 2))
    assert x.den.raw == (0, 1)
    assert x.num.raw == (2, 2)
    assert x.ext_norm() == Fraction(3, 3)  # deg 1 over deg 1
    y = FractionElement(F3, (0, 0, 1), (0, 1))  # t^2/t = t
    assert y.is_integral()
    assert y.to_element().raw == (0, 1)


def test_fraction_arithmetic():
    a = FractionElement(ZZ, 1, 2)
    b = FractionElement(ZZ, 1, 3)
    assert str(a + b) == "5/6"
    assert str(a * b) == "1/6"
    assert str(a - b) == "1/6"
    assert (a - a).is_zero()
    assert a + b == FractionElement(ZZ, 5, 6)
    assert FractionElement(ZZ, 4, 2) == 2
    assert FractionElement(ZZ, -3, 2).ext_norm() == Fraction(3, 2)


@pytest.mark.parametrize("dom, other", [(ZZ, ZI), (ZI, F3), (F3, GFpT(5))],
                         ids=["Z", "Zi", "Fpt:3"])
def test_cross_ring_values_are_unequal_but_do_not_mix(dom, other):
    # == and != answer a bool across rings, so `in`, list.index and records
    # holding elements of different rings compare; arithmetic still refuses
    a, b = dom.element(1), other.element(1)
    assert (a == b) is False and (a != b) is True and (b == a) is False
    assert a not in [b] and [b, a].index(a) == 1
    assert N2Failure(a, "why") != N2Failure(b, "why")
    fa, fb = FractionElement(dom, 1, 2), FractionElement(other, 1, 2)
    assert (fa == fb) is False and (fa != fb) is True
    assert (FractionElement(dom, 1, 1) == b) is False
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(DomainMismatchError, match="cannot mix elements"):
            op(fa, fb)
        with pytest.raises(DomainMismatchError, match="cannot mix elements"):
            op(a, b)


def test_fraction_point_canonicalization():
    p = FractionPoint(ZZ, [2, 4], 6)
    assert [n.raw for n in p.nums] == [1, 2]
    assert p.den.raw == 3
    assert str(p) == "1,2/3"
    q = FractionPoint(ZZ, [2, 4], -2)
    assert q.is_integral()
    assert [c.raw for c in q.integral_point()] == [-1, -2]
    # (2i, 2)/(1+i): the gcd 1+i divides everything, so the point is integral
    r = FractionPoint(ZI, [(0, 2), (2, 0)], (1, 1))
    assert r.is_integral()
    assert [n.raw for n in r.nums] == [(1, 1), (1, -1)]
    # (2i, 1)/(1+i) does not reduce but the denominator is already canonical
    s = FractionPoint(ZI, [(0, 2), (1, 0)], (1, 1))
    assert s.den.raw == (1, 1)
    assert [n.raw for n in s.nums] == [(0, 2), (1, 0)]
    # (1, 2)/(-2) picks up the sign-normalized denominator
    u = FractionPoint(ZZ, [1, 2], -2)
    assert u.den.raw == 2 and [n.raw for n in u.nums] == [-1, -2]


# -- enumeration helpers -------------------------------------------------------


def test_box_enumeration():
    assert list(ZZ._box_raws(2)) == [-2, -1, 0, 1, 2]
    zi = list(ZI._box_raws(1))
    assert len(zi) == 9 and (0, 0) in zi and (-1, 1) in zi
    assert list(F2._box_raws(1)) == [(), (1,), (0, 1), (1, 1)]  # 0, 1, t, t+1


def test_denominator_enumeration():
    assert list(ZZ._denominator_raws(3)) == [2, 3]
    assert list(ZI._denominator_raws(2)) == [(1, 1)]
    # first-quadrant representatives only, one per associate class
    assert list(ZI._denominator_raws(4)) == [(1, 1), (2, 0)]
    assert list(F2._denominator_raws(1)) == [(0, 1), (1, 1)]


def test_offset_enumeration_contains_zero():
    for dom, w in ((ZZ, 2), (ZI, 2), (F2, 2), (F3, 0)):
        assert dom.coerce_raw(0) in dom._offset_raws(w)


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_offset_count_matches_enumeration(dom):
    for w in range(7 if dom.name.startswith("Fpt") else 40):
        offsets = dom._offset_raws(w)
        assert dom._offset_count(w) == len(offsets) == len(set(offsets))
        # norm <= w for Z and Z[i], degree < w for F_p[t]
        if dom.name.startswith("Fpt"):
            assert all(len(o) <= w for o in offsets)
        else:
            assert all(dom._norm(o) <= w for o in offsets)


def test_counts_past_the_ceiling_are_inf_and_quick():
    start = time.perf_counter()
    for count in (
        ZI._denominator_count(10**18),
        ZI._offset_count(10**18),
        F3._box_count(10**8),
        F2._denominator_count(10**8),
        F3._offset_count(10**8),
        GFpT(1000003)._box_count(10**4),
    ):
        assert count == math.inf
    assert time.perf_counter() - start < 0.5
    # below the ceilings the counts stay exact, past every search budget
    assert ZI._denominator_count(2**36) == 53972150300
    assert F3._box_count(10**4) == 3**10001
    assert F3._denominator_count(10**4) == sum(3**k for k in range(1, 10**4 + 1))
    assert F2._denominator_count(0) == F2._denominator_count(-1) == 0


# -- norm axioms ----------------------------------------------------------------


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_norm_axioms_hold(dom):
    report = check_norm_axioms(dom, samples=300, seed=11)
    assert report.ok, report.failures
    assert report.checked == 300


@pytest.mark.parametrize("dom", [ZZ, ZI, F3], ids=lambda d: d.name)
@pytest.mark.parametrize("kwargs", [{"samples": -3}, {"bound": -2}], ids=["samples", "bound"])
def test_norm_axioms_refuse_negative_inputs(dom, kwargs):
    with pytest.raises(ValueError, match="samples and bound must be nonnegative"):
        check_norm_axioms(dom, **kwargs)
    assert check_norm_axioms(dom, samples=0, bound=0) == domains.NormAxiomReport(0, ())


def test_norm_axioms_refused_over_budget():
    start = time.perf_counter()
    with pytest.raises(SearchBudgetError, match="norm-axiom check"):
        check_norm_axioms(ZZ, samples=SEARCH_BUDGET + 1)
    assert time.perf_counter() - start < 1
    assert check_norm_axioms(ZZ, samples=1).checked == 1


@pytest.mark.parametrize(
    "dom, limit",
    # the most samples each default check takes under a budget of 10^5; at
    # the real budget of 10^7 they scale by 100 (Z takes 25,001 and more),
    # and each limit runs for about the same time; over F_p[t] the limit
    # falls as p grows
    [(ZZ, 3125), (ZI, 1219), (F2, 1562), (F3, 1515), (GFpT(1000003), 1063)],
    ids=lambda v: getattr(v, "name", v),
)
def test_norm_axioms_sized_by_modelled_sample_cost(monkeypatch, dom, limit):
    import qdescent.enumeration as enumeration

    monkeypatch.setattr(enumeration, "SEARCH_BUDGET", 10**5)
    with pytest.raises(SearchBudgetError, match="at this element size"):
        check_norm_axioms(dom, samples=limit + 1)
    assert check_norm_axioms(dom, samples=limit).ok


@given(a=st.integers(-50, 50), b=st.integers(-50, 50), c=st.integers(-7, 7), d=st.integers(-7, 7))
@settings(max_examples=200, deadline=None)
def test_gaussian_norm_multiplicative(a, b, c, d):
    u = ZI.element((a, b))
    v = ZI.element((c, d))
    assert (u * v).norm() == u.norm() * v.norm()


@given(st.lists(st.integers(0, 2), max_size=6), st.lists(st.integers(0, 2), max_size=6))
@settings(max_examples=200, deadline=None)
def test_polynomial_norm_multiplicative(u, v):
    a = F3.element(tuple(u))
    b = F3.element(tuple(v))
    assert (a * b).norm() == a.norm() * b.norm()


def test_divexact_and_gcd_random():
    rng = random.Random(4)
    for dom in (ZZ, ZI, F3, GFpT(1000003)):
        zero = dom._ZERO
        pairs = []
        for _ in range(200):
            a = dom._random_raw(rng, 9)
            b = dom._random_raw(rng, 9)
            # operands with a common factor, zero operands and equal ones
            c = dom._random_raw(rng, 4)
            pairs += [(a, b), (dom._mul(c, a), dom._mul(c, b)), (a, zero), (zero, b), (a, a)]
        pairs.append((zero, zero))
        for a, b in pairs:
            g = dom._gcd(a, b)
            if dom not in (ZZ, ZI):
                assert g == _reference_gcd(dom, a, b), (a, b)
            if dom._is_zero(g):
                assert dom._is_zero(a) and dom._is_zero(b)
                continue
            # gcd divides both, exactly
            for c in (a, b):
                q = dom._divexact(c, g)
                assert dom._add(dom._mul(q, g), dom._neg(c)) == dom.coerce_raw(0)


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3], ids=lambda d: d.name)
def test_quotient_or_none_agrees_with_divexact(dom):
    rng = random.Random(13)
    zero = dom._ZERO
    for _ in range(300):
        a = dom._random_raw(rng, 12)
        b = dom._random_raw(rng, 6)
        if dom._is_zero(b):
            continue
        prod = dom._mul(a, b)
        # divisible: both give the cofactor
        assert dom._quotient_or_none(prod, b) == dom._divexact(prod, b) == a
        # a random dividend: None exactly when the division is inexact
        c = dom._random_raw(rng, 12)
        q = dom._quotient_or_none(c, b)
        if q is None:
            with pytest.raises(ExactDivisionError) as err:
                dom._divexact(c, b)
            assert str(err.value) == "inexact division"
        else:
            assert dom._mul(q, b) == c and dom._divexact(c, b) == q
        # zero divisor, with a zero or nonzero dividend
        for n in (zero, a, c):
            with pytest.raises(ExactDivisionError) as err:
                dom._divexact(n, zero)
            assert str(err.value) == "division by zero"


@pytest.mark.parametrize("dom", [ZZ, ZI], ids=lambda d: d.name)
def test_sqrt_finds_exactly_the_squares(dom):
    # every square root of a raw of norm at most norm(R^2) lies in box(R),
    # so over those raws _sqrt must find a root exactly at the squares of
    # box(R): none for a negative integer, and over Z[i] one with v < 0
    # when y < 0
    R = 8 if dom == ZZ else 5
    limit = dom._norm(dom.coerce_raw(R * R))
    squares = {dom._mul(w, w) for w in dom._box_raws(R)}
    found = 0
    for a in dom._box_raws(R * R):
        if dom._norm(a) > limit:
            continue
        r = dom._sqrt(a)
        assert (r is not None) == (a in squares), a
        if r is not None:
            assert dom._mul(r, r) == a
            found += 1
    assert found > R


def test_sqrt_known_roots():
    assert [ZZ._sqrt(a) for a in (-4, -1, 0, 1, 4, 5)] == [None, None, 0, 1, 2, None]
    # (1 - 2i)^2 = -3 - 4i and (2 + i)^2 = 3 + 4i
    assert ZI._sqrt((-3, -4)) == (1, -2) and ZI._sqrt((3, 4)) == (2, 1)
    assert ZI._sqrt((-1, 0)) == (0, 1) and ZI._sqrt((0, 2)) == (1, 1)
    assert ZI._sqrt((0, -1)) is None and ZI._sqrt((5, 0)) is None
    assert F2._sqrt is F3._sqrt is None  # F_p[t] tests the solved axis instead


# -- ring kernels against their straightforward versions -------------------------


_ZI_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _reference_zi_unit(a):
    # the unit whose product with a nonzero a lies in re > 0, im >= 0, by
    # trial products
    for u in _ZI_UNITS:
        c = ZI._mul(a, u)
        if c[0] > 0 and c[1] >= 0:
            return u
    raise AssertionError(f"no first-quadrant associate of {a}")


def _reference_zi_gcd(a, b):
    # Euclid through the public-protocol operations, then the trial-product unit
    while not ZI._is_zero(b):
        q = ZI._round_quotient(a, b)
        a, b = b, ZI._add(a, ZI._neg(ZI._mul(b, q)))
    if not ZI._is_zero(a):
        a = ZI._mul(a, _reference_zi_unit(a))
    return a


def _reference_add(dom, a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return dom._strip([c % dom.p for c in out])


def _reference_divmod(dom, a, b):
    # schoolbook long division over every coefficient of the divisor
    p = dom.p
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            factor = (c * inv) % p
            q[i - db] = factor
            for j, cb in enumerate(b):
                r[i - db + j] = (r[i - db + j] - factor * cb) % p
    return dom._strip(q), dom._strip(r)


def _reference_gcd(dom, a, b):
    while b:
        a, b = b, _reference_divmod(dom, a, b)[1]
    inv = pow(a[-1], -1, dom.p) if a else 1
    return tuple(c * inv % dom.p for c in a)


def test_gaussian_gcd_matches_reference():
    rng = random.Random(61)
    special = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (3, 4), (-4, 3), (2, 2), (5, 0)]
    operands = special + [
        (rng.randint(-10**k, 10**k), rng.randint(-10**k, 10**k))
        for k in (1, 3, 9, 40) for _ in range(60)
    ]
    for a in operands:
        for b in rng.sample(operands, 12) + special:
            g = ZI._gcd(a, b)
            assert g == _reference_zi_gcd(a, b), (a, b)
            assert g == ZI._gcd(b, a)
    # a common factor times a unit comes back as the first-quadrant associate
    for u in _ZI_UNITS:
        assert ZI._gcd(ZI._mul((6, 8), u), (0, 0)) == (6, 8)
        assert ZI._gcd((0, 0), ZI._mul((0, 7), u)) == (7, 0)
    # the gcd runs through m = gcd(N(a), N(b)): operands sharing a large
    # Gaussian factor (m large), operands with coprime norms (m = 1, gcd 1)
    # and one zero operand (m the other's norm)
    for k in (3, 20, 60):
        for _ in range(20):
            g, x, y = ((rng.randint(-10**k, 10**k), rng.randint(-10**k, 10**k)) for _ in range(3))
            for a, b in ((ZI._mul(g, x), ZI._mul(g, y)), (ZI._mul(g, x), g)):
                got = ZI._gcd(a, b)
                assert got == _reference_zi_gcd(a, b) == ZI._gcd(b, a), (a, b)
                assert g == (0, 0) or ZI._quotient_or_none(got, g) is not None
    coprime = 0
    while coprime < 100:
        a, b = ((rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)) for _ in range(2))
        if math.gcd(ZI._norm(a), ZI._norm(b)) == 1:
            coprime += 1
            assert ZI._gcd(a, b) == _reference_zi_gcd(a, b) == (1, 0), (a, b)
    for a in operands:
        for u in _ZI_UNITS:
            assert ZI._gcd(ZI._mul(a, u), (0, 0)) == ZI._gcd((0, 0), a) == _reference_zi_gcd(a, (0, 0))


@pytest.mark.parametrize("p", [2, 3, 1000003], ids=lambda p: f"Fpt:{p}")
def test_polynomial_divmod_and_add_match_reference(p):
    dom = GFpT(p)
    rng = random.Random(p + 1)
    operands = [()]
    for length in (1, 1, 2, 3, 5, 8, 13, 21, 40):
        operands += _kernel_operands(p, length, rng)
    operands += [(0,) * k + (1,) for k in (0, 1, 4, 9)]  # units and monomials
    for a in operands:
        for b in operands:
            assert dom._add(a, b) == _reference_add(dom, a, b), (a, b)
            assert dom._add(a, dom._neg(a)) == ()
            if not b:
                with pytest.raises(ExactDivisionError):
                    dom._divmod(a, b)
                continue
            q, r = dom._divmod(a, b)
            assert (q, r) == _reference_divmod(dom, a, b), (a, b)
            assert len(r) < len(b)
            assert dom._add(dom._mul(q, b), r) == a
            assert dom._gcd(a, b) == dom._gcd(b, a)
    if p != 2:
        return
    # F_2[t] adds, divides and takes gcds on byte-packed ints; operands of
    # 7-10, 31-33, 80-82, 160-162 and 255-258 coefficients, each against a
    # sample of the others and against divisors and dividends of length 1
    # and monomials, which make the dividend shorter than the divisor
    operands = []
    for length in (7, 8, 9, 10, 31, 32, 33, 80, 81, 82, 160, 161, 162, 255, 256, 257, 258):
        operands += _kernel_operands(2, length, rng)
    small = [(), (1,), (0, 1), (0,) * 8 + (1,), (0,) * 40 + (1,)]
    pairs = [(a, b) for a in operands for b in rng.sample(operands, 4) + small]
    pairs += [(b, a) for a in operands for b in small]
    for a, b in pairs:
        assert dom._add(a, b) == _reference_add(dom, a, b), (a, b)
        assert dom._add(a, dom._neg(a)) == () and dom._neg(a) == a
        assert dom._gcd(a, b) == _reference_gcd(dom, a, b), (a, b)
        if not b:
            continue
        q, r = dom._divmod(a, b)
        assert (q, r) == _reference_divmod(dom, a, b), (a, b)
        assert dom._add(dom._mul(q, b), r) == a


def _is_raw(x):
    return type(x) is tuple and all(type(c) is int for c in x)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 1000003])
def test_fpt_kernels_return_tuples_of_ints(p):
    # a bytes result would compare unequal to the equal tuple (b"\x01" !=
    # (1,)), so it would break canonical equality and memo keys silently
    dom = GFpT(p)
    rng = random.Random(p)
    operands = [()]
    for length in (1, 2, 3, 8, 16, 40, 81):
        operands += _kernel_operands(p, length, rng)[:2]
    for a in operands:
        assert _is_raw(dom._neg(a)) and _is_raw(dom._coerce(a))
        if a:
            assert _is_raw(dom._normalizing_unit(a))
        for b in operands:
            assert _is_raw(dom._add(a, b)) and _is_raw(dom._mul(a, b))
            assert _is_raw(dom._gcd(a, b))
            if b:
                q, r = dom._divmod(a, b)
                assert _is_raw(q) and _is_raw(r)
                assert _is_raw(dom._round_quotient(a, b))
                assert _is_raw(dom._divexact(dom._mul(a, b), b))
                assert _is_raw(dom._quotient_or_none(dom._mul(a, b), b))
    x = dom.element((1, 1)) * dom.element((1, 0, 1)) + dom.element((0, 1))
    assert _is_raw(x.raw) and _is_raw((-x).raw)



# -- content, normalizing unit and element construction ---------------------------


def _gcd_fold(dom, a, rest):
    # the content by definition: a fold of a gcd that _content does not
    # run, the reference Euclid over Z[i] and F_p[t] and math.gcd over Z
    if dom is ZZ:
        gcd = dom._gcd
    elif dom is ZI:
        gcd = _reference_zi_gcd
    else:
        gcd = partial(_reference_gcd, dom)
    g = a
    for r in rest:
        g = gcd(g, r)
    return g


@pytest.mark.parametrize("dom", [ZZ, ZI, F2, F3, GFpT(1000003)], ids=lambda d: d.name)
def test_content_matches_the_gcd_fold(dom):
    # operands sharing a random factor (often a non-unit content), unrelated
    # operands (mostly unit content) and zero numerators, 1 to 4 of them
    rng = random.Random(f"content-{dom.name}")
    fpt = dom not in (ZZ, ZI)
    zero = dom._ZERO
    for _ in range(400):
        size = rng.choice([1, 3, 40])
        bound = size if fpt else 10**size
        g = dom._random_raw(rng, 2 if fpt else 6)
        a = dom._mul(g, dom._random_raw(rng, bound))
        if dom._is_zero(a):
            a = dom._neg(dom._ONE)
        rest = [
            rng.choice([zero, dom._mul(g, dom._random_raw(rng, bound)), dom._random_raw(rng, bound)])
            for _ in range(rng.randint(1, 4))
        ]
        got = dom._content(a, rest)
        assert got == _gcd_fold(dom, a, rest), (a, rest)
        # only zero numerators: the denominator's canonical associate
        assert dom._content(a, [zero] * len(rest)) == _gcd_fold(dom, a, [zero] * len(rest))
    assert dom._content(zero, [zero, zero]) == zero
    if dom is not ZI:
        return
    # the operands of an x1*x2 step: a1*a2 = c*b^2, so numerators and
    # denominator of 10^300 and more share large Gaussian factors, some
    # shared outright (a non-unit content) and some only through a
    # conjugate (a common norm factor, often a unit content); with units,
    # zeros and all-zero lists among them
    def big():
        return (rng.randint(-10**150, 10**150), rng.randint(-10**150, 10**150))

    units = list(_ZI_UNITS)
    for _ in range(12):
        p, x, y, z = big(), big(), big(), big()
        conj = (p[0], -p[1])
        a = ZI._mul(p, x)
        assert min(map(abs, a)) > 10**250
        for rest in (
            [ZI._mul(p, y), ZI._mul(p, z)],
            [ZI._mul(conj, y), zero, ZI._mul(p, z)],
            [ZI._mul(ZI._mul(p, conj), y), ZI._mul(ZI._mul(p, p), z)],
            [ZI._mul(p, y), rng.choice(units), ZI._mul(p, z)],
            [zero, ZI._mul(p, y)],
            [zero, zero],
        ):
            assert ZI._content(a, rest) == _gcd_fold(ZI, a, rest), (a, rest)
            assert ZI._content(zero, rest) == _gcd_fold(ZI, zero, rest), rest
        u = rng.choice(units)
        assert ZI._content(u, [a, ZI._mul(p, y)]) == ZI._content(a, [u]) == (1, 0)
        assert ZI._content(a, [zero]) == _gcd_fold(ZI, a, [zero]) == ZI._mul(a, _reference_zi_unit(a))
    assert ZI._content(zero, [zero] * 5) == zero


def test_gaussian_content_runs_one_euclid_chain(monkeypatch):
    """One _content call runs _zi_euclid at most len(rest) + 1 times, on
    operands reduced mod the gcd of the norms, and never folds _gcd pair
    by pair."""
    calls = []
    euclid = domains._zi_euclid

    def counted(*args):
        calls.append(args)
        return euclid(*args)

    def no_gcd(self, a, b):
        raise AssertionError("_content folded through _gcd")

    monkeypatch.setattr(domains, "_zi_euclid", counted)
    monkeypatch.setattr(type(ZI), "_gcd", no_gcd)
    rng = random.Random("one-chain")
    folded = 0
    for _ in range(200):
        g = (rng.randint(-10**40, 10**40), rng.randint(-10**40, 10**40))
        a = ZI._mul(g, ZI._random_raw(rng, 10**40))
        rest = [
            rng.choice([(0, 0), ZI._mul(g, ZI._random_raw(rng, 10**40)), ZI._random_raw(rng, 10**40)])
            for _ in range(rng.randint(1, 5))
        ]
        calls.clear()
        got = ZI._content(a, rest)
        assert len(calls) <= len(rest) + 1
        folded += bool(calls)
        # every Euclid operand is reduced below m, the gcd of the norms
        m = math.gcd(*(ZI._norm(r) for r in [a, *rest]))
        assert all(max(map(abs, args)) <= m for args in calls)
        if got != (1, 0):
            assert all(ZI._quotient_or_none(r, got) is not None for r in [a, *rest])
    assert folded >= 50


def test_gaussian_content_with_a_common_norm_factor_but_unit_content():
    # N(1+2i) = N(1-2i) = 5, so the norm test cannot decide and the fold runs
    assert math.gcd(ZI._norm((1, 2)), ZI._norm((1, -2))) == 5
    assert ZI._content((1, 2), [(1, -2)]) == (1, 0) == _gcd_fold(ZI, (1, 2), [(1, -2)])
    assert ZI._content((1, 2), [(0, 0), (1, -2), (0, 0)]) == (1, 0)
    # coprime norms decide it without the fold
    assert ZI._content((1, 2), [(1, 1)]) == (1, 0)
    # a content that is no unit: 5 = (2+i)(2-i) and -1+2i = i(2+i)
    assert ZI._content((5, 0), [(-1, 2), (0, 0)]) == _gcd_fold(ZI, (5, 0), [(-1, 2)]) == (2, 1)


def test_gaussian_normalizing_unit_exhaustive():
    # the sign-read unit against the trial products, on every |re|, |im| <= 6
    for a in product(range(-6, 7), repeat=2):
        if a == (0, 0):
            with pytest.raises(ZeroDenominatorError):
                ZI._normalizing_unit(a)
            continue
        u = ZI._normalizing_unit(a)
        assert u == _reference_zi_unit(a), a
        c = ZI._mul(a, u)
        assert c[0] > 0 and c[1] >= 0
        # every associate of a has the same canonical associate
        for w in _ZI_UNITS:
            aw = ZI._mul(a, w)
            assert ZI._mul(aw, ZI._normalizing_unit(aw)) == c


@pytest.mark.parametrize("dom, raw", [(ZZ, -7), (ZI, (3, -4)), (F3, (1, 0, 2))],
                         ids=["Z", "Zi", "Fpt:3"])
def test_domain_element_is_an_immutable_value(dom, raw):
    e = DomainElement(dom, raw)
    assert e.domain is dom and e.raw == raw
    for name, value in (("raw", raw), ("domain", dom), ("other", 1)):
        with pytest.raises(AttributeError, match="^DomainElement is immutable$"):
            setattr(e, name, value)
        with pytest.raises(AttributeError, match="^DomainElement is immutable$"):
            delattr(e, name)
    assert e.raw == raw
    # fraction elements and points refuse assignment and deletion the same way
    fe = FractionElement(dom, raw, 1)
    for name in ("domain", "num", "den"):
        with pytest.raises(AttributeError, match="^FractionElement is immutable$"):
            setattr(fe, name, e)
        with pytest.raises(AttributeError, match="^FractionElement is immutable$"):
            delattr(fe, name)
    assert fe == e
    twin = DomainElement(dom, raw)
    assert e == twin and hash(e) == hash(twin) == hash((dom, raw))
    assert e != DomainElement(dom, dom._ONE)
    for copier in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        again = copier(e)
        assert type(again) is DomainElement and again == e and hash(again) == hash(e)
        assert again.domain == dom and again.raw == raw and str(again) == str(e)
    # a point built from trusted canonical raws equals the checked constructor's
    x = FractionPoint._trusted(dom, [raw, dom._ONE], dom._ONE)
    assert x == FractionPoint(dom, [raw, dom._ONE], dom._ONE) and hash(x) == hash(copy.deepcopy(x))
    for name in ("domain", "nums", "den"):
        with pytest.raises(AttributeError, match="^FractionPoint is immutable$"):
            setattr(x, name, e)
        with pytest.raises(AttributeError, match="^FractionPoint is immutable$"):
            delattr(x, name)
    assert x.den == dom.one
