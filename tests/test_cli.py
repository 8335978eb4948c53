import json
import sys
import time

import pytest

import qdescent.cli as cli_module
import qdescent.descent as descent_module
from qdescent.cli import main, parse_point
from qdescent import (
    ExactDivisionError,
    FractionPoint,
    GFpT,
    SearchBox,
    ZI,
    ZZ,
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

    def misreported_norm(f, a, b, window):
        y, v, n, b2, nb2 = search(f, a, b, window)
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
    ],
    ids=[
        "descend Fpt:1000003",
        "descend --window 100000",
        "check n2 Fpt:1000003",
        "check norm-axioms --samples 1000000000",
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
