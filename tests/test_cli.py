import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import qdescent.cli as cli_module
import qdescent.descent as descent_module
import qdescent.enumeration as enumeration_module
import qdescent.oracle as oracle_module
import qdescent.zerotools as zerotools_module
from qdescent.cli import main, parse_point
from qdescent import (
    ExactDivisionError,
    FractionPoint,
    GFpT,
    SearchBox,
    ZI,
    ZZ,
    adc_represent,
    brute_integral_zero,
    descend,
    parse_form,
    random_rational_zero,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- argument handling ------------------------------------------------------------


def test_parse_point_variants():
    assert parse_point("-11,2/5", ZZ) == FractionPoint(ZZ, [-11, 2], 5)
    assert parse_point("1,2", ZZ) == FractionPoint(ZZ, [1, 2], 1)
    assert parse_point("-4i,-i/1+i", ZI) == FractionPoint(ZI, [(0, -4), (0, -1)], (1, 1))
    F2 = GFpT(2)
    assert parse_point("t^2+t+1,t/t+1", F2) == FractionPoint(
        F2, [(1, 1, 1), (0, 1)], (1, 1)
    )


def test_missing_subcommand_is_input_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_domain_is_input_error(capsys):
    code, _, err = run(
        capsys, "descend", "--domain", "Q", "--form", "x^2", "--point", "1,1"
    )
    assert code == 1
    assert "error" in err


def test_bad_n_is_input_error(capsys):
    code, _, _ = run(capsys, "three-squares", "--n", "0")
    assert code == 1


_DEEP = "(" * 300


@pytest.mark.parametrize(
    "form, point",
    [(f"{_DEEP}x{')' * 300}^2-1", "1"), ("x^2-1", f"{_DEEP}1{')' * 300}")],
    ids=["form", "point"],
)
def test_deeply_nested_text_is_input_error(capsys, form, point):
    code, out, err = run(
        capsys, "descend", "--domain", "Z", "--form", form, "--point", point
    )
    assert code == 1
    assert out == ""
    assert err == "error: parentheses nested deeper than 100 (at offset 100)\n"


def test_large_prime_characteristic_is_accepted_quickly(capsys):
    start = time.perf_counter()
    code, _, err = run(
        capsys,
        "descend", "--domain", "Fpt:2305843009213693951", "--form", "x^2", "--point", "1/t",
    )
    assert time.perf_counter() - start < 1
    assert code == 1
    assert err == "error: point is not a zero: f(1/t) = 1/t^2\n"


# -- descend ------------------------------------------------------------------


def test_descend_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "descend", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "-11,2/5",
        "--trace",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # one trace row, one result
    assert lines[0].startswith("step 1: b=5 |b|=5 y=(-2,0) v=(-1,2) A=5 B=4 C=-1")
    assert lines[1] == "(-1,-2)"


def test_descend_integral_echo(capsys):
    code, out, _ = run(
        capsys,
        "descend", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "1,2/1",
        "--trace",
    )
    assert code == 0
    assert out.strip() == "(1,2)"  # zero trace rows


def test_descend_not_a_zero(capsys):
    code, out, err = run(
        capsys, "descend", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "1,1/1"
    )
    assert code == 1
    assert "point is not a zero" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_over_the_int_digit_limit_is_one_error_line(capsys, fmt):
    # the descent succeeds; q(x) has 4,401 digits, over Python's default
    # limit of 4,300 for int-to-str, which the CLI leaves as it is
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(
            capsys, "represent", "--domain", "Z", "--form", "x^2", "--point", "1" * 2201,
            "--format", fmt,
        )
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 1
    assert out == ""
    assert err.startswith("error: the output would hold an integer of more than 4300 digits")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["represent", "--form", "x^2"], "is not in the base ring"),
        (["descend", "--form", "x^2-5"], "point is not a zero"),
    ],
    ids=["represent", "descend"],
)
def test_rejected_value_over_the_int_digit_limit_keeps_its_message(capsys, argv, message):
    # q(x) = (1...1/2)^2 has 4,401 digits in its numerator; the error
    # message stands in for it rather than failing to print it
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, *argv, "--domain", "Z", "--point", "1" * 2201 + "/2")
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert " = <a value of more than 4300 digits>" in err


def test_descend_oracle_failure_exit_2(capsys):
    code, _, err = run(
        capsys,
        "descend", "--domain", "Z", "--form", "w^2+x^2+y^2+z^2-1",
        "--point", "1,1,1,1/2",
    )
    assert code == 2
    assert "no" in err.lower() or "window" in err


def test_internal_fault_exits_4(capsys, monkeypatch):
    search = descent_module._search

    def misreported_norm(f, b, base, w0, window):
        y, v, n, b2, nb2 = search(f, b, base, w0, window)
        return y, v, n + 1, b2, nb2

    monkeypatch.setattr(descent_module, "_search", misreported_norm)
    code, out, err = run(
        capsys, "descend", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "-11,2/5"
    )
    assert code == 4
    assert out == ""
    assert err == "error: internal invariant violated: norm(b') != norm(f2(x - y)) * norm(b)\n"


def test_escaped_inexact_division_is_an_internal_fault(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ExactDivisionError("inexact division")

    monkeypatch.setattr(cli_module, "descend", broken)
    code, out, err = run(
        capsys, "descend", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "-11,2/5"
    )
    assert (code, out) == (4, "")
    assert err == "error: internal invariant violated: inexact division\n"


def test_printed_fpt_point_with_high_powers_of_t_descends(capsys):
    F2 = GFpT(2)
    f = parse_form("x1*x2+x3^2+t", F2)
    x = random_rational_zero(f, brute_integral_zero(f, SearchBox(1)), seed=0, direction_bound=40)
    assert "t^68" in str(x)
    code, out, err = run(
        capsys, "descend", "--domain", "Fpt:2", "--form", "x1*x2+x3^2+t",
        "--point", str(x), "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["start"] == str(x)
    assert doc["result"] == [str(c) for c in descend(f, x).result]


def test_power_of_t_over_the_monomial_budget_is_positioned(capsys):
    code, out, err = run(
        capsys, "descend", "--domain", "Fpt:2", "--form", "x1^2", "--point", "t^20001"
    )
    assert (code, out) == (1, "")
    assert err == "error: exponent 20001 is too large (at offset 2)\n"


def test_descend_form_error_positioned(capsys):
    code, _, err = run(
        capsys, "descend", "--domain", "Z", "--form", "x^3", "--point", "1,1"
    )
    assert code == 1
    assert "offset 0" in err


@pytest.mark.parametrize("name", ["x99999999999999999999", "x30000000"])
def test_variable_index_beyond_limit_is_input_error(capsys, name):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "descend", "--domain", "Z", "--form", f"{name}^2-1", "--point", "1"
    )
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err == f"error: variable '{name}' is beyond x1000 (at offset 0)\n"


@pytest.mark.parametrize(
    "form, message",
    [
        ("x\u00b2^2-1", "unknown variable 'x\u00b2'"),
        ("\u00b2x^2-1", "unexpected character '\u00b2'"),
    ],
    ids=["index", "leading"],
)
def test_non_ascii_digit_is_positioned_form_error(capsys, form, message):
    code, out, err = run(capsys, "descend", "--domain", "Z", "--form", form, "--point", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: {message} (at offset 0)\n"


@pytest.mark.parametrize(
    "argv, offset",
    [
        (["--form", "x^2-1", "--point", "1" + "0" * 5000 + "/1" + "0" * 5000], 0),
        (["--form", "x^2-1" + "0" * 5000, "--point", "1"], 4),
    ],
    ids=["point", "form"],
)
def test_literal_over_the_int_string_limit_is_positioned_form_error(capsys, argv, offset):
    code, out, err = run(capsys, "descend", "--domain", "Z", *argv)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: literal of 5001 digits exceeds the limit of 4300 digits (at offset {offset})\n"
    )


def test_descend_json_document(capsys):
    code, out, _ = run(
        capsys,
        "descend", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "-11,2/5",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["domain"] == "Z"
    assert doc["form"] == "x1^2+x2^2-5"
    assert doc["start"] == "-11,2/5"
    assert doc["result"] == ["-1", "-2"]
    step = doc["steps"][0]
    assert step["step"] == 1
    assert step["b"] == "5" and step["norm_b"] == 5
    assert step["y"] == ["-2", "0"]
    assert step["v"] == ["-1", "2"]
    assert (step["A"], step["B"], step["C"]) == ("5", "4", "-1")
    assert step["b_next"] == "1" and step["norm_b_next"] == 1
    assert step["x_next"] == "-1,-2/1"


def test_descend_gaussian_cli(capsys):
    code, out, _ = run(
        capsys,
        "descend", "--domain", "Zi", "--form", "x1*x2-2*i", "--point", "-4i,-i/1+i",
    )
    assert code == 0
    assert out.strip() == "(1,2i)"


# The full --format json stdout of descend over F_2[t] at two chord zeros
# with denominators of degree 40 and 41, as the per-coefficient kernels
# printed it: the packed ones must print every step the same.
FPT2_DESCEND_GOLDEN = [
    (
        "t^41+t^40+t^39+t^36+t^35+t^32+t^30+t^29+t^26+t^23+t^21+t^20+t^19+t^18+t^17+t^16+t^14+t^12+t^11+t^8+t^7+t^5+t^4+t^3+t,t^40+t^37+t^30+t^29+t^25+t^24+t^20+t^19+t^18+t^16+t^13+t^12+t^9+t^8+t^6+t^4+t^3+t+1/t^40+t^39+t^35+t^31+t^30+t^29+t^25+t^24+t^22+t^20+t^19+t^17+t^15+t^14+t^13+t^12+t^11+t^7+t^4+t^3+1",
        """\
{
  "domain": "Fpt:2",
  "form": "x1^2+t*x2^2+x1+t^2",
  "start": "t^41+t^40+t^39+t^36+t^35+t^32+t^30+t^29+t^26+t^23+t^21+t^20+t^19+t^18+t^17+t^16+t^14+t^12+t^11+t^8+t^7+t^5+t^4+t^3+t,t^40+t^37+t^30+t^29+t^25+t^24+t^20+t^19+t^18+t^16+t^13+t^12+t^9+t^8+t^6+t^4+t^3+t+1/t^40+t^39+t^35+t^31+t^30+t^29+t^25+t^24+t^22+t^20+t^19+t^17+t^15+t^14+t^13+t^12+t^11+t^7+t^4+t^3+1",
  "steps": [
    {
      "step": 1,
      "b": "t^40+t^39+t^35+t^31+t^30+t^29+t^25+t^24+t^22+t^20+t^19+t^17+t^15+t^14+t^13+t^12+t^11+t^7+t^4+t^3+1",
      "norm_b": 1099511627776,
      "y": [
        "t",
        "1"
      ],
      "v": [
        "t^39+t^35+t^31+t^29+t^25+t^19+t^17+t^15+t^13+t^11+t^7+t^3",
        "t^39+t^37+t^35+t^31+t^22+t^18+t^17+t^16+t^15+t^14+t^11+t^9+t^8+t^7+t^6+t"
      ],
      "A": "t^79+t^78+t^75+t^71+t^70+t^63+t^62+t^58+t^50+t^45+t^38+t^37+t^35+t^34+t^33+t^31+t^30+t^29+t^26+t^23+t^22+t^19+t^17+t^15+t^14+t^13+t^6+t^3",
      "B": "t^39+t^35+t^31+t^29+t^25+t^19+t^17+t^15+t^13+t^11+t^7+t^3",
      "C": "0",
      "b_next": "t^39+t^35+t^31+t^29+t^25+t^19+t^17+t^15+t^13+t^11+t^7+t^3",
      "norm_b_next": 549755813888,
      "x_next": "t,1/1"
    }
  ],
  "result": [
    "t",
    "1"
  ]
}
""",
    ),
    (
        "t^42+t^41+t^39+t^38+t^37+t^33+t^29+t^25+t^24+t^23+t^19+t^15+t^13+t^12+t^10+t^8+t^5+t^4+t^2+t+1,t^41+t^39+t^38+t^36+t^32+t^29+t^28+t^27+t^26+t^25+t^23+t^22+t^21+t^19+t^17+t^16+t^12+t^9+t^6+t^5+t^3+t^2+t/t^41+t^40+t^39+t^38+t^36+t^35+t^32+t^31+t^28+t^27+t^24+t^22+t^21+t^18+t^17+t^14+t^13+t^12+t^9+t^7+t^4+t+1",
        """\
{
  "domain": "Fpt:2",
  "form": "x1^2+t*x2^2+x1+t^2",
  "start": "t^42+t^41+t^39+t^38+t^37+t^33+t^29+t^25+t^24+t^23+t^19+t^15+t^13+t^12+t^10+t^8+t^5+t^4+t^2+t+1,t^41+t^39+t^38+t^36+t^32+t^29+t^28+t^27+t^26+t^25+t^23+t^22+t^21+t^19+t^17+t^16+t^12+t^9+t^6+t^5+t^3+t^2+t/t^41+t^40+t^39+t^38+t^36+t^35+t^32+t^31+t^28+t^27+t^24+t^22+t^21+t^18+t^17+t^14+t^13+t^12+t^9+t^7+t^4+t+1",
  "steps": [
    {
      "step": 1,
      "b": "t^41+t^40+t^39+t^38+t^36+t^35+t^32+t^31+t^28+t^27+t^24+t^22+t^21+t^18+t^17+t^14+t^13+t^12+t^9+t^7+t^4+t+1",
      "norm_b": 2199023255552,
      "y": [
        "t",
        "1"
      ],
      "v": [
        "t^40+t^38+t^36+t^32+t^28+t^24+t^22+t^18+t^14+t^12+t^4+1",
        "t^40+t^35+t^31+t^29+t^26+t^25+t^24+t^23+t^19+t^18+t^16+t^14+t^13+t^7+t^6+t^5+t^4+t^3+t^2+1"
      ],
      "A": "t^81+t^80+t^76+t^72+t^71+t^64+t^63+t^59+t^56+t^53+t^51+t^49+t^48+t^47+t^44+t^39+t^37+t^36+t^33+t^29+t^28+t^27+t^24+t^15+t^13+t^11+t^9+t^8+t^7+t^5+t+1",
      "B": "t^40+t^38+t^36+t^32+t^28+t^24+t^22+t^18+t^14+t^12+t^4+1",
      "C": "0",
      "b_next": "t^40+t^38+t^36+t^32+t^28+t^24+t^22+t^18+t^14+t^12+t^4+1",
      "norm_b_next": 1099511627776,
      "x_next": "t,1/1"
    }
  ],
  "result": [
    "t",
    "1"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("point, expected", FPT2_DESCEND_GOLDEN, ids=["den40", "den41"])
def test_descend_fpt2_json_golden(capsys, point, expected):
    code, out, err = run(
        capsys,
        "descend", "--domain", "Fpt:2", "--form", "x1^2+t*x2^2+x1+t^2",
        "--point", point, "--format", "json",
    )
    assert (code, out, err) == (0, expected, "")


# chord zeros whose denominator norms have 121 to 262 bits
BIG_POINTS = {
    "z3": (
        "8456379370721598582929830501683749908171,"
        "-13457250962952304181466286134472053327484,"
        "3731584049996863318274963443999350558364/"
        "443839888984401981591183172855533785609"
    ),
    "zi_prod": (
        "-2099565283606462366612866668130276729968+576165882093604268073266362156211374384i,"
        "-3074224321639436774172469247600020431315-1547269387206527032029670888317184111970i/"
        "124613213411279715766366754383106530934+67385018530080898474981694826883099282i"
    ),
    "zi_diag": (
        "22040928553471593797661320733930437211209-91170775459908029003535343935002963643469i,"
        "-95592785599972344583465866596824950303377+35666305359807349277847693821380781570042i/"
        "1936561033846857916583564208014333105364+1692040065778379191619640894308726033531i"
    ),
    "f2_c5": (
        "t^122+t^121+t^116+t^115+t^114+t^111+t^109+t^107+t^100+t^98+t^96+t^94+t^90+"
        "t^89+t^88+t^85+t^83+t^82+t^81+t^73+t^72+t^71+t^70+t^67+t^66+t^64+t^63+t^62+"
        "t^59+t^58+t^56+t^55+t^50+t^49+t^48+t^47+t^46+t^41+t^40+t^38+t^36+t^34+t^29+"
        "t^28+t^25+t^23+t^21+t^20+t^19+t^18+t^13+t^12+t^11+t^9+t^8+t^5+t^4+t^3+t^2+t+1,"
        "t^121+t^116+t^114+t^113+t^112+t^110+t^107+t^106+t^105+t^96+t^93+t^92+t^89+"
        "t^86+t^79+t^78+t^77+t^75+t^70+t^69+t^68+t^66+t^62+t^60+t^59+t^57+t^56+t^55+"
        "t^54+t^52+t^49+t^48+t^46+t^43+t^41+t^39+t^38+t^37+t^36+t^34+t^30+t^25+t^24+"
        "t^21+t^20+t^19+t^18+t^17+t^15+t^12+t^10+t^6+t^5+t^2+1/t^121+t^120+t^119+t^115+"
        "t^114+t^110+t^109+t^108+t^107+t^106+t^105+t^99+t^97+t^95+t^93+t^89+t^88+t^84+"
        "t^83+t^82+t^80+t^79+t^72+t^70+t^66+t^63+t^62+t^58+t^55+t^54+t^53+t^49+t^48+"
        "t^46+t^40+t^37+t^35+t^33+t^28+t^24+t^23+t^22+t^21+t^20+t^18+t^12+t^10+t^9+t^8+"
        "t^4+t^2+1"
    ),
    "f2_cross": (
        "t^122+t^120+t^118+t^116+t^114+t^106+t^100+t^98+t^90+t^86+t^84+t^82+t^74+t^72+"
        "t^70+t^68+t^66+t^64+t^50+t^48+t^46+t^40+t^38+t^32+t^28+t^24+t^22+t^18+t^16+"
        "t^14+t^12+t^10+t^8+t^6+t^2,t^122+t^121+t^120+t^119+t^118+t^116+t^115+t^114+"
        "t^111+t^107+t^106+t^105+t^103+t^101+t^100+t^98+t^97+t^95+t^91+t^90+t^89+t^87+"
        "t^86+t^84+t^82+t^79+t^75+t^74+t^72+t^70+t^68+t^66+t^65+t^64+t^63+t^61+t^55+"
        "t^53+t^50+t^49+t^48+t^46+t^43+t^41+t^40+t^39+t^38+t^33+t^32+t^31+t^29+t^28+"
        "t^27+t^24+t^22+t^19+t^18+t^17+t^16+t^14+t^12+t^11+t^10+t^9+t^8+t^7+t^6+t^5+"
        "t^2+t/t^120+t^118+t^117+t^115+t^113+t^110+t^109+t^105+t^102+t^101+t^98+t^97+"
        "t^95+t^94+t^92+t^90+t^89+t^88+t^86+t^84+t^81+t^79+t^72+t^70+t^69+t^67+t^66+"
        "t^65+t^64+t^63+t^62+t^61+t^59+t^58+t^56+t^53+t^50+t^49+t^46+t^42+t^41+t^38+"
        "t^33+t^31+t^29+t^26+t^25+t^24+t^23+t^22+t^21+t^18+t^17+t^16+t^14+t^13+t^11+"
        "t^10+t^9+t^7+t^5+t^4+1"
    ),
}

BIG_POINT_GOLDEN = [
    ("descend", "Z", "x^2+y^2+z^2-1353", "z3", 0,
     "278aae441808082887a6ede6d1cf481b5f132a80b384543d8690db326f90e92f"),
    ("represent", "Z", "x^2+y^2+z^2", "z3", 0,
     "7ed16fac8de82dad641cdee81224605210d8cd9f985c9467140a3d252696366f"),
    ("descend", "Zi", "x1*x2+(-262+266i)", "zi_prod", 1,
     "9da0aad3ba0be21ea7614bdb9a77e49be1992013633b26deec812d04f691c973"),
    ("represent", "Zi", "x1*x2", "zi_prod", 1,
     "a834db4fb17a37f0115317e9f1b31caf91c19bc6ffc2938d48edadb1db116742"),
    ("descend", "Zi", "x1^2+i*x2^2+(-556-229i)", "zi_diag", 0,
     "73c56f3bfc5f3b67072da930989bb9debbd3c587055d918d121652fc1742434c"),
    ("represent", "Zi", "x1^2+i*x2^2", "zi_diag", 0,
     "c623982a2cc689b2b28856437527df10f324db8173821e78b287b2a8cf89ca5b"),
    ("descend", "Fpt:2", "x1^2+t*x2^2+x1+t^2", "f2_c5", 0,
     "190a4ba5802598505fbd44271d76f88663ddc5c6a01592bab0a3157c1db392b9"),
    ("descend", "Fpt:2", "x1^2+x1*x2+t*x2^2+t^5", "f2_cross", 0,
     "47a077133b2e26cf48a6d2d9e2b7f3cf0d28145adeb381d88a0e723db540f130"),
    ("represent", "Fpt:2", "x1^2+x1*x2+t*x2^2", "f2_cross", 0,
     "76c1617d4e471fdaadd33d504767a40ad3b3b28dddadb2b973cc6cd0ebfc45f9"),
]

@pytest.mark.parametrize("command, domain, form, point, scans, digest", BIG_POINT_GOLDEN,
                         ids=[f"{c[0]}-{c[3]}" for c in BIG_POINT_GOLDEN])
def test_big_denominator_json_golden(capsys, monkeypatch, command, domain, form, point, scans,
                                     digest):
    # descend and represent from 100+ bit denominators over Z, Zi and F_2[t];
    # digest is the sha256 of the complete stdout, so every step's y, v, A,
    # B, C, b' and x' is pinned; scans counts the steps whose oracle left
    # the fast path for the window scan
    calls = []
    budget = oracle_module._within_budget

    def spy(count, what):
        calls.append(what)
        return budget(count, what)

    monkeypatch.setattr(oracle_module, "_within_budget", spy)
    code, out, err = run(
        capsys, command, "--domain", domain, "--form", form, "--point", BIG_POINTS[point],
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert calls == ["the oracle's window scan"] * scans


BIG_POINT_TRACE_GOLDEN = [
    ("Z", "x^2+y^2+z^2-1353", "z3", 38,
     "ff2c121708149f0ef9c00f156e819e580918062ce2588972daf31e157c752a0c"),
    ("Zi", "x1*x2+(-262+266i)", "zi_prod", 25,
     "e745c72c6646a192a8f9a55b4e5e0cab8c938b34275165110840219487063ac7"),
    ("Fpt:2", "x1^2+t*x2^2+x1+t^2", "f2_c5", 1,
     "606a73cd518f6e36227873ba60df3bc42477314f9d279e46a15b808f8c12d7a2"),
]


@pytest.mark.parametrize("domain, form, point, steps, digest", BIG_POINT_TRACE_GOLDEN,
                         ids=[c[2] for c in BIG_POINT_TRACE_GOLDEN])
def test_big_denominator_trace_text_golden(capsys, domain, form, point, steps, digest):
    # the sha256 of the complete text stdout of descend --trace: one line
    # per step, then the result
    code, out, err = run(
        capsys, "descend", "--domain", domain, "--form", form, "--point", BIG_POINTS[point],
        "--trace",
    )
    assert (code, err) == (0, "")
    assert out.count("\n") == steps + 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (domain, f with linear terms, a form q, c with q - c isotropic, search box)
DESCENT_CORPUS = [
    (ZZ, "x^2+y^2+z^2+x-3*z-26", "x^2+y^2+z^2", "26", 6),
    (ZI, "x1*x2+(1+i)*x1+x2-2*i", "x1*x2", "-2*i", 2),
    (GFpT(2), "x1*x2+x3^2+x1+t", "x1*x2+x3^2", "t", 1),
    (GFpT(3), "x1^2+t*x2^2+x2-t", "x1^2+t*x2^2", "t", 1),
]


def test_descent_corpus_golden(monkeypatch):
    # 200 seeded chord zeros, 25 per form and use: repr(descend(f, x)) pins
    # every step's record, and adc_represent(q, x) the integral point found
    # from a zero of q - c; 63 of the steps leave the oracle's fast path
    scans = []
    budget = oracle_module._within_budget

    def spy(count, what):
        scans.append(what)
        return budget(count, what)

    monkeypatch.setattr(oracle_module, "_within_budget", spy)
    digest = hashlib.sha256()
    for dom, text, qtext, c, box in DESCENT_CORPUS:
        f = parse_form(text, dom)
        q = parse_form(qtext, dom)
        g = parse_form(f"{qtext}-({c})", dom)
        f_zero = brute_integral_zero(f, SearchBox(box))
        g_zero = brute_integral_zero(g, SearchBox(box))
        for seed in range(25):
            x = random_rational_zero(f, f_zero, seed=seed, height_min=3, direction_bound=40)
            digest.update(repr(descend(f, x)).encode())
            x = random_rational_zero(g, g_zero, seed=seed, height_min=3, direction_bound=40)
            digest.update(repr(adc_represent(q, x)).encode())
    assert len(scans) == 63
    assert digest.hexdigest() == "b02da7defcdde6a0919b48943552f8208112f9f85f0ecea493effb31245f0fbe"


# -- represent ------------------------------------------------------------------


def test_represent(capsys):
    code, out, _ = run(
        capsys,
        "represent", "--domain", "Z", "--form", "x^2+y^2+z^2", "--point", "1,18,0/5",
    )
    assert code == 0
    assert out.strip().splitlines() == ["(3,-2,0)", "value=13"]


def test_represent_integral_echo(capsys):
    code, out, _ = run(
        capsys, "represent", "--domain", "Z", "--form", "x^2+y^2", "--point", "3,4/1"
    )
    assert code == 0
    assert out.strip().splitlines() == ["(3,4)", "value=25"]


def test_represent_nonintegral_value(capsys):
    code, _, err = run(
        capsys, "represent", "--domain", "Z", "--form", "x^2+y^2", "--point", "1,1/2"
    )
    assert code == 1
    assert "not" in err


def test_represent_requires_form(capsys):
    code, _, err = run(
        capsys, "represent", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "1,2/1"
    )
    assert code == 1


# -- three-squares ------------------------------------------------------------------


def test_three_squares_13(capsys):
    code, out, _ = run(capsys, "three-squares", "--n", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("start=")
    coords = [int(c) for c in lines[-1].strip("()").split(",")]
    assert sum(c * c for c in coords) == 13


def test_three_squares_7_not_representable(capsys):
    code, out, _ = run(capsys, "three-squares", "--n", "7")
    assert code == 3
    assert "not representable" in out


def test_three_squares_obstruction_detects_powers_of_4(capsys):
    # 60 = 4^1 * (8*1 + 7) is obstructed even though 60 % 8 != 7
    code, out, _ = run(capsys, "three-squares", "--n", "60")
    assert code == 3
    assert "not representable" in out
    # 48 = 4^2 * 3 is fine
    code, out, _ = run(capsys, "three-squares", "--n", "48")
    assert code == 0
    coords = [int(c) for c in out.strip().splitlines()[-1].strip("()").split(",")]
    assert sum(c * c for c in coords) == 48


def test_three_squares_1(capsys):
    code, out, _ = run(capsys, "three-squares", "--n", "1")
    assert code == 0
    coords = [int(c) for c in out.strip().splitlines()[-1].strip("()").split(",")]
    assert sum(c * c for c in coords) == 1


def test_three_squares_json(capsys):
    code, out, _ = run(capsys, "three-squares", "--n", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 13
    coords = [int(c) for c in doc["result"]]
    assert sum(c * c for c in coords) == 13
    assert doc["steps"]


@pytest.mark.parametrize(
    "n, start, result, digest",
    [
        (2000003, "-100251,29291,-70241/89", ["1279", "-321", "511"],
         "dcfa053a02502c3af1ccd8d8bd890eab05170ef932874bf36ebd6c2e7bd5e8f5"),
        (999998, "-71505,20182,-48997/89", ["-34", "29", "999"],
         "d92311210851cba222a43f5c384bb18ca9fe649a22f51d650f976c27dc26f54f"),
        (2011, "-3269,-57,-2289/89", ["-33", "29", "9"],
         "9dff84252486582b609d4881d96494ac4e2f9e05d88e2ef99d8f6d337f83e539"),
        (1000003, "-71435,17457,-50133/89", ["-63", "-997", "45"],
         "6e0c3707764c6b5a70fb6d8b4c6109a3639519d69f52f40008a43237f5658166"),
    ],
)
def test_three_squares_json_golden(capsys, n, start, result, digest):
    # the brute witness sets the start point, so the whole document pins
    # the zero search; digest is the sha256 of the complete stdout
    code, out, err = run(capsys, "three-squares", "--n", str(n), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["start"], doc["result"]) == (start, result)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- check ------------------------------------------------------------------


def test_check_euclidean_clean(capsys):
    code, out, _ = run(
        capsys,
        "check", "euclidean", "--domain", "Z", "--form", "x^2+y^2+z^2",
        "--height", "6", "--box", "3",
    )
    assert code == 0
    assert out.strip() == "checked=1580 failures=0"


def test_check_euclidean_failures(capsys):
    code, out, _ = run(
        capsys,
        "check", "euclidean", "--domain", "Z", "--form", "w^2+x^2+y^2+z^2",
        "--height", "2", "--box", "2",
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert lines[0] == "checked=544 failures=16"
    assert "x=1,1,1,1/2 window=2 min_norm=1" in lines[1:]


def test_check_euclidean_char2(capsys):
    code, out, _ = run(
        capsys,
        "check", "euclidean", "--domain", "Fpt:2", "--form", "x1^2+t*x2^2",
        "--height", "2", "--box", "2",
    )
    assert code == 0
    assert out.strip() == "checked=288 failures=0"


# The full --format json stdout of three failing sweeps, as the
# point-by-point sweep printed it: points in sweep order, each min_norm.
EUCLID_GOLDEN = [
    (
        ["Z", "w^2+x^2+y^2+z^2", "2", "2"],
        """\
{
  "checked": 544,
  "failures": [
    "x=-1,-1,-1,-1/2 window=2 min_norm=1",
    "x=-1,-1,-1,1/2 window=2 min_norm=1",
    "x=-1,-1,1,-1/2 window=2 min_norm=1",
    "x=-1,-1,1,1/2 window=2 min_norm=1",
    "x=-1,1,-1,-1/2 window=2 min_norm=1",
    "x=-1,1,-1,1/2 window=2 min_norm=1",
    "x=-1,1,1,-1/2 window=2 min_norm=1",
    "x=-1,1,1,1/2 window=2 min_norm=1",
    "x=1,-1,-1,-1/2 window=2 min_norm=1",
    "x=1,-1,-1,1/2 window=2 min_norm=1",
    "x=1,-1,1,-1/2 window=2 min_norm=1",
    "x=1,-1,1,1/2 window=2 min_norm=1",
    "x=1,1,-1,-1/2 window=2 min_norm=1",
    "x=1,1,-1,1/2 window=2 min_norm=1",
    "x=1,1,1,-1/2 window=2 min_norm=1",
    "x=1,1,1,1/2 window=2 min_norm=1"
  ]
}
""",
    ),
    (
        ["Zi", "x^2+3*y^2", "2", "1"],
        """\
{
  "checked": 56,
  "failures": [
    "x=-1,-1/1+i window=2 min_norm=1",
    "x=-1,-i/1+i window=2 min_norm=1",
    "x=-1,i/1+i window=2 min_norm=1",
    "x=-1,1/1+i window=2 min_norm=1",
    "x=-i,-1/1+i window=2 min_norm=1",
    "x=-i,-i/1+i window=2 min_norm=1",
    "x=-i,i/1+i window=2 min_norm=1",
    "x=-i,1/1+i window=2 min_norm=1",
    "x=i,-1/1+i window=2 min_norm=1",
    "x=i,-i/1+i window=2 min_norm=1",
    "x=i,i/1+i window=2 min_norm=1",
    "x=i,1/1+i window=2 min_norm=1",
    "x=1,-1/1+i window=2 min_norm=1",
    "x=1,-i/1+i window=2 min_norm=1",
    "x=1,i/1+i window=2 min_norm=1",
    "x=1,1/1+i window=2 min_norm=1"
  ]
}
""",
    ),
    (
        ["Fpt:2", "x1^2+t*x2*x3+x3^2", "2", "1"],
        """\
{
  "checked": 336,
  "failures": [
    "x=0,1,0/t window=2 min_norm=1",
    "x=0,1,t/t window=2 min_norm=1",
    "x=0,t+1,0/t window=2 min_norm=1",
    "x=0,t+1,t/t window=2 min_norm=1",
    "x=1,0,1/t window=2 min_norm=1",
    "x=1,0,t+1/t window=2 min_norm=1",
    "x=1,t,1/t window=2 min_norm=1",
    "x=1,t,t+1/t window=2 min_norm=1",
    "x=t,1,0/t window=2 min_norm=1",
    "x=t,1,t/t window=2 min_norm=1",
    "x=t,t+1,0/t window=2 min_norm=1",
    "x=t,t+1,t/t window=2 min_norm=1",
    "x=t+1,0,1/t window=2 min_norm=1",
    "x=t+1,0,t+1/t window=2 min_norm=1",
    "x=t+1,t,1/t window=2 min_norm=1",
    "x=t+1,t,t+1/t window=2 min_norm=1"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("args, expected", EUCLID_GOLDEN, ids=[c[0][0] for c in EUCLID_GOLDEN])
def test_check_euclidean_json_golden(capsys, args, expected):
    dom, form, height, box = args
    code, out, err = run(
        capsys,
        "check", "euclidean", "--domain", dom, "--form", form,
        "--height", height, "--box", box, "--format", "json",
    )
    assert (code, out, err) == (2, expected, "")


@pytest.mark.parametrize(
    "domain, form, height, box, window, code, digest",
    [
        # the euclid-sweep requests
        ("Z", "w^2+x^2+y^2+z^2", "4", "3", "2", 2,
         "3c8b18a40764bb6a5e071f90ecf6f6331ca0868dc4889713e0c03339a6cacdff"),
        ("Z", "x^2+y^2+z^2", "6", "3", "2", 0,
         "3936047de2fe73aef74a793aa4da0b7f596f8789df564d7b8a198d0c42045d9a"),
        ("Zi", "x^2+i*y^2", "8", "2", "2", 0,
         "f8b34c190cf180562e92efe9a38a2287bf16d4421f6e6e48af6727b1dbd21944"),
        ("Fpt:3", "x1^2+t*x2^2", "3", "1", "2", 0,
         "bba5609588573f2be531094a956394a18ac307e2da1e0737f532378f7b9d03c8"),
        # 2,456 failures in many classes of one denominator, in product order
        ("Zi", "x1^2+x2*x3+x4^2", "2", "1", "0", 2,
         "c11b4dedda42ed8756c6a16a0dcd7d6fe6e96c6b764aa416562a297f536ac116"),
    ],
    ids=["four-squares", "three-squares", "Zi", "Fpt3", "Zi-isotropic"],
)
def test_check_euclidean_sweep_json_golden(capsys, domain, form, height, box, window, code, digest):
    # digest is the sha256 of the complete stdout: checked, and every
    # failing point with its min_norm in sweep order
    got, out, err = run(
        capsys,
        "check", "euclidean", "--domain", domain, "--form", form, "--height", height,
        "--box", box, "--window", window, "--format", "json",
    )
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_adc_four_squares(capsys):
    code, out, _ = run(
        capsys,
        "check", "adc", "--domain", "Z", "--form", "w^2+x^2+y^2+z^2",
        "--box", "2", "--height", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "checked=641 failures=0 inapplicable=16"
    assert any("1,1,1,1/2" in line for line in lines[1:])


@pytest.mark.parametrize(
    "domain, form, height, box, code, counts, digest",
    [
        # the adc-referee requests
        ("Z", "x^2+y^2+z^2", "4", "8", 0, (5489, 0, 0),
         "290c68e9e8b24a5ae6035d495bcd09c594abd6444cabd98620a17969fd830bf6"),
        ("Zi", "x^2+i*y^2", "2", "2", 0, (625, 0, 0),
         "ca51f1d92c71e32e6490674ba70fec36d8dd80f266458713f42df90fc2dc7940"),
        ("Fpt:3", "x1^2+t*x2^2", "3", "1", 0, (93, 0, 0),
         "40f0000ed80c380716bd4270e8f00d8b12cb451386579a5ba284c31f96e84f54"),
        # heuristic failures, inapplicable points, a Zi form with both
        ("Z", "x^2+y^2+z^2+x*y+5*z^2", "3", "2", 2, (157, 4, 28),
         "92386fbbeee185ba66b7233cf62f7ac95ce74251cabb0deac9dba8b8941957b1"),
        ("Z", "w^2+x^2+y^2+z^2", "2", "2", 0, (641, 0, 16),
         "ddee086a5e46928e452c7756b1771dbad383099e22dd784f4ba2574d44805f64"),
        ("Zi", "x^2+i*x*y+2*y^2", "2", "1", 2, (93, 8, 4),
         "14e2812b4c3c3a1ebce4d7883a04fc3ff469b2289cbb6a2616d4163af4afb311"),
    ],
    ids=["Z3", "Zi", "Fpt3", "Z-failures", "four-squares", "Zi-failures"],
)
def test_check_adc_json_golden(capsys, domain, form, height, box, code, counts, digest):
    # digest is the sha256 of the complete stdout: every reported point,
    # value and detail, in sweep order
    got, out, err = run(
        capsys,
        "check", "adc", "--domain", domain, "--form", form,
        "--height", height, "--box", box, "--format", "json",
    )
    assert (got, err) == (code, "")
    doc = json.loads(out)
    assert (doc["checked"], len(doc["failures"]), len(doc.get("inapplicable", ()))) == counts
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# forms over every domain for the check adc corpus: diagonal and not,
# isotropic, with inapplicable points, failures and witness searches
ADC_CORPUS = [
    ("Z", "x^2+y^2"), ("Z", "x^2+y^2+z^2"), ("Z", "x^2+100*y^2"), ("Z", "x^2+y^2+7*z^2"),
    ("Z", "-3*x^2+3*x*y+4*y^2"), ("Z", "2*x^2+x*y-3*y^2"), ("Z", "x^2+y^2+z^2+x*y+5*z^2"),
    ("Z", "w^2+x^2+y^2+z^2"), ("Z", "x*y"), ("Z", "3*x^2+5*y^2"),
    ("Zi", "x^2+i*y^2"), ("Zi", "x^2+3*y^2"), ("Zi", "x^2+i*x*y+2*y^2"),
    ("Zi", "(3-2*i)*x*y+(1+2*i)*y^2"), ("Zi", "x*y+(1+i)*z^2"),
    ("Fpt:2", "x1^2+t*x2^2"), ("Fpt:2", "x1*x2+x3^2"),
    ("Fpt:3", "x1^2+t*x2^2"), ("Fpt:3", "x^2+t*y^2"), ("Fpt:3", "x1^2+x2^2+t*x3^2"),
    ("Fpt:5", "x^2+t*y^2"),
]


def test_check_adc_corpus_digest(capsys, monkeypatch):
    # every form at heights 1-3 and boxes 0-3, each run at one of four
    # (window, format) pairs, under a budget of 10^5 so that the sweep, the
    # witness total and a witness search alone are all refused somewhere;
    # the digest covers the exit code, stdout and stderr of all 252 runs
    for module in (enumeration_module, zerotools_module):
        monkeypatch.setattr(module, "SEARCH_BUDGET", 100_000)
    pairs = [("0", "text"), ("2", "json"), ("0", "json"), ("2", "text")]
    digest = hashlib.sha256()
    outcomes = Counter()
    for domain, form in ADC_CORPUS:
        for height in range(1, 4):
            for box in range(4):
                window, fmt = pairs[(height + box) % 4]
                code, out, err = run(
                    capsys, "check", "adc", "--domain", domain, "--form", form,
                    "--height", str(height), "--box", str(box), "--window", window,
                    "--format", fmt,
                )
                digest.update(f"{code}\0{out}\0{err}\0".encode())
                outcomes[code, err.split(" would")[0]] += 1
    assert outcomes == {
        (0, ""): 178,
        (2, ""): 24,
        (2, "error: the witness searches of a representation check"): 34,
        (2, "error: a canonical point sweep"): 15,
        (2, "error: a graded box search"): 1,
    }
    assert digest.hexdigest() == "70cef262176d14f0d4d72f928f87d4b23a1a5b29f1c2992dbcb003fc55ab6760"


@pytest.mark.parametrize(
    "args, total",
    [
        (["--domain", "Fpt:5", "--form", "x^2+t*y^2", "--height", "1", "--box", "3"], 10156250),
        (["--domain", "Fpt:5", "--form", "x^2+t*y^2", "--height", "1", "--box", "2"], 10015625),
        (["--domain", "Zi", "--form", "x^2+i*y^2", "--height", "9", "--box", "8"], 10022520),
    ],
    ids=["Fpt:5-box3", "Fpt:5-box2", "Zi-height9"],
)
def test_check_adc_witness_total_refusal_text(capsys, args, total):
    # the witness queries together pass the budget, none of them alone
    code, out, err = run(capsys, "check", "adc", *args)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the witness searches of a representation check would enumerate {total} "
        "candidates, over the search budget of 10000000\n"
    )


def test_check_norm_axioms(capsys):
    code, out, _ = run(
        capsys, "check", "norm-axioms", "--domain", "Zi", "--samples", "1000",
        "--seed", "7",
    )
    assert code == 0
    assert out.strip() == "checked=1000 failures=0"


def test_check_n2(capsys):
    code, out, _ = run(
        capsys, "check", "n2", "--domain", "Z", "--form", "x^2+y^2+z^2", "--box", "10"
    )
    assert code == 0
    assert out.strip() == "checked=18 failures=0"


def test_check_n2_failing_form(capsys):
    code, out, _ = run(
        capsys, "check", "n2", "--domain", "Z", "--form", "5*x^2+5*y^2", "--box", "3"
    )
    assert code == 2
    assert "failures=0" not in out.splitlines()[0]


def test_check_json_format(capsys):
    code, out, _ = run(
        capsys,
        "check", "euclidean", "--domain", "Z", "--form", "x^2+y^2",
        "--height", "3", "--box", "3", "--format", "json",
    )
    doc = json.loads(out)
    assert set(doc) == {"checked", "failures"}
    assert code == (0 if not doc["failures"] else 2)



def test_closed_stdout_pipe_exits_quietly():
    # stdout block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    # 168 KB of JSON, past a pipe's 64 KB buffer, so the command is still
    # writing when its reader closes the pipe after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "qdescent", "check", "euclidean", "--domain", "Z",
         "--form", "w^2+x^2+y^2+z^2", "--height", "8", "--box", "8", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli_module.EXIT_BROKEN_PIPE == 141
    assert err == b""
    # a short output sits in stdout's buffer until the command ends; with the
    # pipe closed before anything is written, that last flush must fail
    # inside main, not at interpreter exit (exit 120 and an ignored
    # exception on stderr)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qdescent", "three-squares", "--n", "13"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")

# -- flag validation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["descend", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "-11,2/5", "--window", "-1"],
        ["three-squares", "--n", "13", "--window", "-1"],
        ["check", "euclidean", "--domain", "Z", "--form", "x^2+y^2", "--height", "2", "--box", "-2"],
        ["check", "adc", "--domain", "Z", "--form", "x^2+y^2", "--box", "-1"],
        ["check", "n2", "--domain", "Z", "--form", "x^2+y^2", "--box", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_negative_window_or_box_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "must be a nonnegative integer" in err


# -- budget refusals ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["descend", "--domain", "Fpt:1000003", "--form", "x1*x2", "--point", "1,0/t"],
        ["descend", "--domain", "Z", "--form", "x1*x2", "--point", "1,0/2", "--window", "100000"],
        ["check", "n2", "--domain", "Fpt:1000003", "--form", "x^2+y^2", "--box", "1"],
        ["check", "norm-axioms", "--domain", "Z", "--samples", "1000000000"],
        # counts that would take too long to take, or to print
        ["check", "euclidean", "--domain", "Zi", "--form", "x^2+i*y^2", "--height", "1" + "0" * 18,
         "--box", "1"],
        ["check", "adc", "--domain", "Zi", "--form", "x^2+i*y^2", "--height", "1" + "0" * 18,
         "--box", "1"],
        ["check", "euclidean", "--domain", "Fpt:2", "--form", "x^2+t*y^2", "--height", "100000000",
         "--box", "1"],
        ["descend", "--domain", "Zi", "--form", "x1*x2", "--point", "1,0/2",
         "--window", "1" + "0" * 18],
        ["descend", "--domain", "Fpt:3", "--form", "x1*x2", "--point", "1,0/t",
         "--window", "100000000"],
        ["check", "euclidean", "--domain", "Fpt:3", "--form", "x^2+t*y^2", "--height", "1",
         "--box", "10000"],
        # sized by the product of the parts, not by each part alone
        ["check", "adc", "--domain", "Fpt:5", "--form", "x^2+t*y^2", "--height", "1", "--box", "3"],
        ["check", "norm-axioms", "--domain", "Fpt:3", "--box", "100000000", "--samples", "2"],
        ["check", "norm-axioms", "--domain", "Zi", "--box", "1" + "0" * 4000, "--samples", "2"],
    ],
    ids=[
        "descend Fpt:1000003",
        "descend --window 100000",
        "check n2 Fpt:1000003",
        "check norm-axioms --samples 1000000000",
        "check euclidean Zi --height 1e18",
        "check adc Zi --height 1e18",
        "check euclidean Fpt:2 --height 1e8",
        "descend Zi --window 1e18",
        "descend Fpt:3 --window 1e8",
        "check euclidean Fpt:3 --box 10000",
        "check adc Fpt:5 witness total",
        "check norm-axioms Fpt:3 --box 1e8",
        "check norm-axioms Zi --box 1e4000",
    ],
)
def test_oversized_scan_or_sweep_exits_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "search budget" in err
