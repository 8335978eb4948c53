"""Random form and point text through the command line.

Whatever the text, a run of `descend`, `represent` or `check adc` must
return an exit code and never raise.  Over these subcommands the code is
one of 0 (success), 1 (bad input) and 2 (search failure or a refusal over
the budget): 3 belongs to three-squares and 4 to an internal fault, which
no input may cause.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from qdescent.cli import main

DOMAINS = ("Z", "Zi", "Fpt:2", "Fpt:3")
LITERALS = {
    "Z": ("0", "1", "2", "3", "5", "12"),
    "Zi": ("0", "1", "2", "i", "2i", "(1+i)", "(2-i)"),
    "Fpt:2": ("0", "1", "t", "(t+1)", "t^2"),
    "Fpt:3": ("0", "1", "2", "t", "(t+2)", "2*t^2"),
}
# random text over the grammar's characters: a tail on a form, or a whole point
NOISE = st.text(alphabet="xyzt0123456789i+-*^()/, ", max_size=12)


@st.composite
def form_text(draw, domain, variables):
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.sampled_from(LITERALS[domain]))
        mono = draw(st.sampled_from(
            [""] + list(variables) + [f"{v}^2" for v in variables]
            + [f"{u}*{v}" for u in variables for v in variables if u < v]
        ))
        terms.append(f"{coeff}*{mono}" if mono else coeff)
    text = draw(st.sampled_from("+-")).join(terms)
    if draw(st.integers(0, 4)) == 0:
        text += draw(NOISE)
    return text


@st.composite
def point_text(draw, domain, d):
    coords = [draw(st.sampled_from(LITERALS[domain])) for _ in range(d)]
    text = ",".join(coords)
    if draw(st.booleans()):
        text += "/" + draw(st.sampled_from(LITERALS[domain]))
    if draw(st.integers(0, 4)) == 0:
        text = draw(NOISE)
    return text


@st.composite
def zero_case(draw, domain):
    """A form with a point text that is a zero of it, when the point parses."""
    a, b, c, den = (draw(st.sampled_from(LITERALS[domain])) for _ in range(4))
    if draw(st.booleans()):
        return f"{a}*x*y+{b}*y^2", f"{c},0/{den}"
    return f"{a}*(x^2-y^2)", f"{c},{c}/{den}"


@st.composite
def command(draw):
    domain = draw(st.sampled_from(DOMAINS))
    sub = draw(st.sampled_from(("descend", "represent", "adc")))
    # check adc sweeps a box per coordinate, so it gets at most two
    variables = "xy" if sub == "adc" else draw(st.sampled_from(("x", "xy", "xyz")))
    argv = ["--domain", domain, "--form", draw(form_text(domain, variables))]
    if sub == "adc":
        argv = ["check", "adc", *argv, "--box", draw(st.sampled_from("01")),
                "--height", draw(st.sampled_from("12"))]
    elif draw(st.integers(0, 2)) == 0:
        form, point = draw(zero_case(domain))
        argv = [sub, "--domain", domain, "--form", form, "--point", point]
    else:
        argv = [sub, *argv, "--point", draw(point_text(domain, len(variables)))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@given(command())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_exit_codes_on_random_text(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
