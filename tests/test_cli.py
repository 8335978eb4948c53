import json

import pytest

from qdescent.cli import main, parse_point
from qdescent import FractionPoint, GFpT, ZI, ZZ


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


def test_descend_oracle_failure_exit_2(capsys):
    code, _, err = run(
        capsys,
        "descend", "--domain", "Z", "--form", "w^2+x^2+y^2+z^2-1",
        "--point", "1,1,1,1/2",
    )
    assert code == 2
    assert "no" in err.lower() or "window" in err


def test_descend_form_error_positioned(capsys):
    code, _, err = run(
        capsys, "descend", "--domain", "Z", "--form", "x^3", "--point", "1,1"
    )
    assert code == 1
    assert "offset 0" in err


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
