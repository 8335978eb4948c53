import random
import sys
import time
from collections import Counter
from itertools import product

import pytest

from qdescent import (
    FormCoefficientError,
    FormDegreeError,
    FormError,
    FormSyntaxError,
    FormVariableError,
    GFpT,
    QuadraticPolynomial,
    ZI,
    ZZ,
    format_form,
    parse_element,
    parse_form,
)

from helpers import random_quadratic

F2 = GFpT(2)
F3 = GFpT(3)


def test_parse_circle():
    f = parse_form("x^2+y^2-5", ZZ)
    assert f.d == 2
    assert f.quad == {(0, 0): 1, (1, 1): 1}
    assert f.lin == (0, 0)
    assert f.const == -5


def test_parse_aliases_and_indexed_variables():
    f = parse_form("w^2+x^2+y^2+z^2", ZZ)
    assert f.d == 4
    assert f.quad == {(i, i): 1 for i in range(4)}
    g = parse_form("x1*x2 - 1", ZZ)
    assert g.quad == {(0, 1): 1}
    assert g.const == -1
    assert parse_form("x3^2", ZZ).d == 3  # dimension inferred from the index


def test_parse_polynomial_coefficients():
    f = parse_form("(t+1)*x1^2+x2^2", F2)
    assert f.quad == {(0, 0): (1, 1), (1, 1): (1,)}
    g = parse_form("x1^2+t*x2^2+x1+t^2", F2)
    assert g.quad == {(0, 0): (1,), (1, 1): (0, 1)}
    assert g.lin == ((1,), ())
    assert g.const == (0, 0, 1)
    # coefficients reduce mod p
    h = parse_form("3*x^2+4", F3)
    assert h.quad == {}
    assert h.const == (1,)


def test_parse_gaussian_coefficients():
    f = parse_form("x1*x2-2*i", ZI)
    assert f.quad == {(0, 1): (1, 0)}
    assert f.const == (0, -2)
    g = parse_form("(1+i)*x^2", ZI)
    assert g.quad == {(0, 0): (1, 1)}
    # 2i as a single token
    h = parse_form("x^2+2i", ZI)
    assert h.const == (0, 2)


def test_parse_leading_minus():
    f = parse_form("-x^2+y", ZZ)
    assert f.quad == {(0, 0): -1}
    assert f.lin == (0, 1)
    g = parse_form("-(x+y)^2", ZZ)
    assert g.quad == {(0, 0): -1, (0, 1): -2, (1, 1): -1}


def test_parse_products_and_powers():
    f = parse_form("(x+y)*(x-y)", ZZ)
    assert f.quad == {(0, 0): 1, (1, 1): -1}
    g = parse_form("(x+2)^2", ZZ)
    assert g.quad == {(0, 0): 1}
    assert g.lin == (4,)
    assert g.const == 4


def test_syntax_error_positions():
    with pytest.raises(FormSyntaxError) as err:
        parse_form("x^2 + + y", ZZ)
    assert err.value.offset == 6
    with pytest.raises(FormSyntaxError) as err:
        parse_form("x^2 + $", ZZ)
    assert err.value.offset == 6
    with pytest.raises(FormSyntaxError) as err:
        parse_form("(x+y", ZZ)
    assert err.value.offset == 4
    with pytest.raises(FormSyntaxError):
        parse_form("", ZZ)


def test_degree_error_positions():
    with pytest.raises(FormDegreeError) as err:
        parse_form("x^3", ZZ)
    assert err.value.offset == 0
    with pytest.raises(FormDegreeError) as err:
        parse_form("1 + x*y*z", ZZ)
    assert err.value.offset == 4
    with pytest.raises(FormDegreeError):
        parse_form("x^2*(y+1)", ZZ)
    # enormous exponents are rejected before expansion
    with pytest.raises(FormDegreeError):
        parse_form("x^999", ZZ)
    # a product or power creates its monomials where its first factor
    # starts: inside a parenthesized single term, but at the first token
    # of a sum or of a leading minus
    for text, offset in [
        ("((x)+y)*z*w", 1),
        ("((x+y))*((z))*w", 2),
        ("-(x)*y*z", 2),
        ("(x+1)^2*y", 1),
    ]:
        with pytest.raises(FormDegreeError) as err:
            parse_form(text, ZZ)
        assert err.value.offset == offset, text
    with pytest.raises(FormError) as err:
        parse_form("(" + "+".join(f"x{k}" for k in range(1, 31)) + ")^4", ZZ)
    assert err.value.offset == 1


@pytest.mark.parametrize("parse", [parse_form, parse_element], ids=["form", "element"])
def test_nesting_deeper_than_limit_is_refused(parse):
    assert parse("(" * 100 + "2" + ")" * 100, ZZ) is not None
    with pytest.raises(FormSyntaxError) as err:
        parse("(" * 300 + "2" + ")" * 300 + "^2", ZZ)
    assert err.value.offset == 100
    assert "nested deeper than 100" in str(err.value)


def test_variable_and_coefficient_errors():
    with pytest.raises(FormVariableError) as err:
        parse_form("x1^2+x3^2", ZZ, d=2)
    assert err.value.offset == 5
    with pytest.raises(FormVariableError) as err:
        parse_form("q^2", ZZ)  # unknown name
    assert err.value.offset == 0
    with pytest.raises(FormCoefficientError) as err:
        parse_form("x^2 + i", ZZ)  # imaginary unit outside Z[i]
    assert err.value.offset == 6
    with pytest.raises(FormCoefficientError):
        parse_form("t*x^2", ZZ)  # polynomial variable outside F_p[t]
    with pytest.raises(FormCoefficientError):
        parse_form("x^2+2i", F3)
    # each ring accepts only its own generator literal
    for literal, domain, text in [
        ("i", ZZ, "'i' is not an element of Z"),
        ("i", F3, "'i' is not an element of Fpt:3"),
        ("t", ZZ, "'t' is not an element of Z"),
        ("t", ZI, "'t' is not an element of Zi"),
        ("3i", ZZ, "imaginary literal '3i' is not an element of Z"),
        ("3i", F3, "imaginary literal '3i' is not an element of Fpt:3"),
    ]:
        with pytest.raises(FormCoefficientError) as err:
            parse_form(f"x^2+{literal}*y^2", domain)
        assert (str(err.value), err.value.offset) == (f"{text} (at offset 4)", 4), literal
    assert parse_form("x^2+i*y^2+3i", ZI).const == (0, 3)
    assert parse_form("x^2+t^3*y^2+t", F3).quad[1, 1] == (0, 0, 0, 1)


@pytest.mark.parametrize("name", ["x99999999999999999999", "x30000000", "x1001", "x501", "x" + "9" * 5000])
def test_variable_index_beyond_limit_is_refused(name):
    start = time.perf_counter()
    with pytest.raises(FormVariableError) as err:
        parse_form(f"y^2+{name}^2-1", ZZ)
    assert time.perf_counter() - start < 1
    assert err.value.offset == 4
    assert "beyond x500" in str(err.value)
    assert parse_form("x500^2", ZZ).d == 500


@pytest.mark.parametrize(
    "text, error",
    [("x\u00b2^2-1", FormVariableError), ("\u00b2x^2-1", FormSyntaxError)],
    ids=["index", "leading"],
)
def test_non_ascii_digits_are_form_errors(text, error):
    # '\u00b2' (superscript two) passes str.isdigit() but not int()
    with pytest.raises(error) as err:
        parse_form(text, ZZ)
    assert err.value.offset == 0


@pytest.mark.parametrize(
    "text, domain, offset",
    [
        ("x^2-" + "7" * 5001, ZZ, 4),
        ("x^2+" + "1" * 4301 + "i", ZI, 4),
        ("x^" + "0" * 5000 + "2", ZZ, 2),
        ("(t+1)*x^2+" + "2" * 4400, F3, 10),
    ],
    ids=["integer", "imaginary", "exponent", "fpt"],
)
def test_literal_over_the_int_string_limit_is_positioned(text, domain, offset):
    with pytest.raises(FormError) as err:
        parse_form(text, domain)
    assert err.value.offset == offset
    assert "exceeds the limit of 4300 digits" in str(err.value)
    with pytest.raises(FormError) as err:
        parse_element("1" + "0" * 5000, ZZ)
    assert err.value.offset == 0
    # at the limit a literal still reads, and leading zeros of an index are free
    assert parse_element("9" * 4300, ZZ).raw == 10**4300 - 1
    assert parse_form("x" + "0" * 5000 + "1^2", ZZ).quad == {(0, 0): 1}


def test_int_string_limit_is_read_when_parsing(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 10, raising=False)
    assert parse_element("1" * 10, ZZ).raw == int("1" * 10)
    with pytest.raises(FormError, match="literal of 11 digits exceeds the limit of 10 digits"):
        parse_element("1" * 11, ZZ)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
    assert parse_element("1" * 11, ZZ).raw == int("1" * 11)
    # without the function (Python before 3.10.7/3.11) the limit is taken as 4300
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    with pytest.raises(FormError, match="limit of 4300 digits"):
        parse_element("1" * 4301, ZZ)


def test_error_message_carries_offset():
    with pytest.raises(FormDegreeError) as err:
        parse_form("y*x^2", ZZ)
    assert "(at offset 0)" in str(err.value)


def test_parse_element():
    assert parse_element("-7", ZZ) == -7
    assert parse_element("3-2i", ZI).raw == (3, -2)
    assert parse_element("(1+i)", ZI).raw == (1, 1)
    assert parse_element("t^2+t+1", F2).raw == (1, 1, 1)
    assert parse_element("2*t+1", F3).raw == (1, 2)
    with pytest.raises(FormVariableError):
        parse_element("x+1", ZZ)


def test_powers_of_t_read_back():
    assert parse_element("t^68+t", F2).raw == (0, 1) + (0,) * 66 + (1,)
    assert parse_element("t^0", F3).raw == (1,)
    assert parse_element("2*t^300+t^65", F3).raw == (0,) * 65 + (1,) + (0,) * 234 + (2,)
    assert parse_element("t^20000", F2).raw == (0,) * 20000 + (1,)
    rng = random.Random(3)
    for dom in (F2, F3):
        for _ in range(20):
            raw = dom._random_raw(rng, 400)
            assert parse_element(dom._format(raw), dom).raw == raw
    f = parse_form("t^100*x1^2+x2^2", F2)
    assert f.quad[(0, 0)] == (0,) * 100 + (1,)
    assert parse_form(format_form(f), F2, 2) == f


@pytest.mark.parametrize(
    "text, offset",
    [("t^20001", 2), ("t+t^99999", 4), ("(t)^65", 4), ("(t+1)^65", 6), ("x^65", 2)],
)
def test_power_caps_are_positioned(text, offset):
    with pytest.raises(FormDegreeError) as err:
        parse_form(text, F2)
    assert err.value.offset == offset
    assert "too large" in str(err.value)


def test_format_form_frozen():
    f = QuadraticPolynomial(ZZ, 2, {(0, 0): 1, (1, 1): 1}, const=-5)
    assert format_form(f) == "x1^2+x2^2-5"
    g = QuadraticPolynomial(F2, 2, {(0, 0): (1, 1), (1, 1): (1,)})
    assert format_form(g) == "(t+1)*x1^2+x2^2"
    h = QuadraticPolynomial(ZZ, 2, {(0, 1): -3}, [0, 2], 7)
    assert format_form(h) == "-3*x1*x2+2*x2+7"
    k = QuadraticPolynomial(ZI, 2, {(0, 0): (0, 1)}, [(1, 1), (0, 0)], (0, -2))
    assert format_form(k) == "i*x1^2+(1+i)*x1-2i"
    z = QuadraticPolynomial(ZZ, 1, {})
    assert format_form(z) == "0"
    # mod-p coefficients are canonical residues, never sign-lifted
    m = QuadraticPolynomial(F3, 1, {(0, 0): (2,)})
    assert format_form(m) == "2*x1^2"
    # the sign of x1^2+c is lifted exactly for negative integers and negative
    # real or pure-imaginary Gaussian integers, whose text is - and then
    # text with no other sign; every other c is parenthesized when its text
    # holds a sign
    lifted = Counter()
    for dom, raws in (
        (ZZ, range(-300, 301)),
        (ZI, product(range(-40, 41), repeat=2)),
        (F3, F3._box_raws(4)),
        (F2, F2._box_raws(6)),
    ):
        for c in raws:
            if dom._is_zero(c):
                continue
            if dom is ZZ:
                lift = c < 0
            elif dom is ZI:
                lift = (c[1] == 0 and c[0] < 0) or (c[0] == 0 and c[1] < 0)
            else:
                lift = False
            mag = dom._format(c)
            if lift:
                expected = f"x1^2-{dom._format(dom._neg(c))}"
            else:
                expected = f"x1^2+({mag})" if "+" in mag or "-" in mag else f"x1^2+{mag}"
            assert format_form(QuadraticPolynomial(dom, 1, {(0, 0): 1}, const=c)) == expected
            lifted[dom.name, lift] += 1
    assert lifted == {
        ("Z", True): 300, ("Z", False): 300, ("Zi", True): 80, ("Zi", False): 6480,
        ("Fpt:3", False): 242, ("Fpt:2", False): 127,
    }


def test_roundtrip_random_forms():
    rng = random.Random(20260817)
    for dom in (ZZ, ZI, F2, F3):
        for _ in range(150):
            d = rng.randint(1, 4)
            f = random_quadratic(dom, d, rng)
            text = format_form(f)
            g = parse_form(text, dom, d)
            assert g == f, (dom.name, text)
