"""Command-line front end.

    qdescent descend       --domain Z --form "x^2+y^2-5" --point "-11,2/5"
    qdescent represent     --domain Z --form "x^2+y^2+z^2" --point "1,18,0/5"
    qdescent three-squares --n 13
    qdescent check euclidean|adc|norm-axioms|n2 ...

Exit codes: 0 success (and clean check reports), 1 input error (bad flags,
unparseable form or point, precondition violations, a result with an
integer too long for Python's int-to-str limit), 2 oracle failure, a
search refused over the enumeration budget, or a check report with
failures, 3 value not representable (three-squares only), 4 internal fault (a
violated invariant the algorithm guarantees, never bad input), 141 stdout
closed by its reader before the output was written (say by `| head -1`).

Output is text by default; --format json emits a single document with the
full step trace, stable across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .descent import adc_trace, check_n2, descend
from .domains import FractionPoint, ZZ, check_norm_axioms, domain_from_name
from .enumeration import box_elements
from .errors import ExactDivisionError, InternalInvariantError, OracleNotFound, SearchBudgetError
from .formparse import format_form, parse_element, parse_form
from .oracle import check_euclidean
from .quadratic import QuadraticPolynomial
from .zerotools import SearchBox, brute_integral_zero, random_rational_zero, verify_adc


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; input errors are 1 here,
    # 2 is reserved for oracle/check failures
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_point(text: str, domain) -> FractionPoint:
    """Read "a1,...,ad/b" (or "a1,...,ad" with denominator 1)."""
    if "/" in text:
        num_text, den_text = text.rsplit("/", 1)
    else:
        num_text, den_text = text, "1"
    coords = [parse_element(part, domain) for part in num_text.split(",")]
    return FractionPoint(domain, coords, parse_element(den_text, domain))


def _step_rows(steps):
    rows = []
    for k, s in enumerate(steps):
        rows.append(
            {
                "step": k + 1,
                "b": str(s.b),
                "norm_b": s.b.norm(),
                "y": [str(c) for c in s.y],
                "v": [str(c) for c in s.v],
                "A": str(s.A),
                "B": str(s.B),
                "C": str(s.C),
                "b_next": str(s.b_next),
                "norm_b_next": s.b_next.norm(),
                "x_next": str(s.x_next),
            }
        )
    return rows


def _trace_lines(steps):
    return [
        "step {step}: b={b} |b|={norm_b} y=({y}) v=({v}) A={A} B={B} C={C} "
        "b'={b_next} |b'|={norm_b_next} x'={x_next}".format(
            **{**row, "y": ",".join(row["y"]), "v": ",".join(row["v"])}
        )
        for row in _step_rows(steps)
    ]


def _trace_text(args, domain, f, x, trace, extra, n):
    if args.format == "json":
        doc = {"domain": domain.name, "form": format_form(f)}
        if n is not None:
            doc["n"] = n
        doc["start"] = str(x)
        doc["steps"] = _step_rows(trace.steps)
        doc["result"] = [str(c) for c in trace.result]
        doc.update((key, str(val)) for key, val in (extra or {}).items())
        return json.dumps(doc, indent=2)
    lines = [] if n is None else [f"start={x}"]
    if args.trace:
        lines.extend(_trace_lines(trace.steps))
    lines.append("(" + ",".join(str(c) for c in trace.result) + ")")
    lines.extend(f"{key}={val}" for key, val in (extra or {}).items())
    return "\n".join(lines)


def _emit_trace(args, domain, f, x, trace, extra=None, n=None):
    # the whole text is made before anything is printed: str() of an int
    # over the interpreter's digit limit raises ValueError, and that ends
    # the command with one error line, not a bare message or half a document
    try:
        text = _trace_text(args, domain, f, x, trace, extra, n)
    except ValueError as err:
        raise ValueError(
            f"the output would hold an integer of more than {sys.get_int_max_str_digits()} "
            "digits, Python's limit for integer-to-text conversion "
            "(sys.get_int_max_str_digits(); PYTHONINTMAXSTRDIGITS raises it)"
        ) from err
    print(text)


def cmd_descend(args) -> int:
    domain = domain_from_name(args.domain)
    f = parse_form(args.form, domain)
    x = parse_point(args.point, domain)
    trace = descend(f, x, window=args.window)
    _emit_trace(args, domain, f, x, trace)
    return 0


def cmd_represent(args) -> int:
    domain = domain_from_name(args.domain)
    q = parse_form(args.form, domain)
    x = parse_point(args.point, domain)
    trace, r = adc_trace(q, x, window=args.window)
    _emit_trace(args, domain, q, x, trace, extra={"value": r})
    return 0


def cmd_three_squares(args) -> int:
    n = args.n
    m, a = n, 0
    while m % 4 == 0:
        m, a = m // 4, a + 1
    if m % 8 == 7:
        if args.format == "json":
            print(json.dumps({"n": n, "representable": False}, indent=2))
        else:
            print(f"{n} is not representable: {n} = 4^{a}*(8*{(m - 7) // 8}+7)")
        return 3
    domain = ZZ
    f = QuadraticPolynomial(domain, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1}, const=-n)
    y0 = brute_integral_zero(f, SearchBox(math.isqrt(n)))
    if y0 is None:
        # every n outside the 4^a(8b+7) family is a sum of three squares,
        # and the box bound sqrt(n) is exhaustive
        raise InternalInvariantError(f"no integral witness found for n={n} in box(isqrt(n))")
    x = random_rational_zero(f, y0, seed=args.seed)
    trace = descend(f, x, window=args.window)
    _emit_trace(args, domain, f, x, trace, n=n)
    return 0


def _print_report(args, checked, failure_lines, inapplicable=None):
    # inapplicable (check adc's lines): always counted in text, listed in json when any
    if args.format == "json":
        doc = {"checked": checked, "failures": list(failure_lines)}
        if inapplicable:
            doc["inapplicable"] = inapplicable
        print(json.dumps(doc, indent=2))
    else:
        counted = "" if inapplicable is None else f" inapplicable={len(inapplicable)}"
        print(f"checked={checked} failures={len(failure_lines)}{counted}")
        for line in failure_lines:
            print(line)
        for line in inapplicable or ():
            print(f"inapplicable: {line}")
    return 0 if not failure_lines else 2


def cmd_check_euclidean(args) -> int:
    domain = domain_from_name(args.domain)
    f = parse_form(args.form, domain)
    report = check_euclidean(f, args.height, args.box, window=args.window)
    lines = [
        f"x={fail.x} window={fail.window} min_norm={fail.min_norm}"
        for fail in report.failures
    ]
    return _print_report(args, report.checked, lines)


def cmd_check_adc(args) -> int:
    domain = domain_from_name(args.domain)
    q = parse_form(args.form, domain)
    report = verify_adc(q, SearchBox(args.box, args.height), window=args.window)
    lines = [f"x={f.x} value={f.value}: {f.detail}" for f in report.failures]
    extra = [f"x={f.x} value={f.value}: {f.detail}" for f in report.inapplicable]
    return _print_report(args, report.checked, lines, inapplicable=extra)


def cmd_check_norm_axioms(args) -> int:
    domain = domain_from_name(args.domain)
    report = check_norm_axioms(domain, samples=args.samples, seed=args.seed, bound=args.box)
    return _print_report(args, report.checked, list(report.failures))


def cmd_check_n2(args) -> int:
    domain = domain_from_name(args.domain)
    q = parse_form(args.form, domain)
    report = check_n2(domain, q, box_elements(domain, args.box), window=args.window)
    lines = [f"a={f.element}: {f.reason}" for f in report.failures]
    return _print_report(args, report.checked, lines)


def _add_output_flags(p, trace=True):
    p.add_argument("--format", choices=("text", "json"), default="text")
    if trace:
        p.add_argument("--trace", action="store_true", help="print one line per descent step")


def _add_form_point_flags(p, point=True):
    p.add_argument("--domain", required=True, help="Z, Zi, or Fpt:<p>")
    p.add_argument("--form", required=True, help='polynomial text, e.g. "x^2+y^2-5"')
    if point:
        p.add_argument("--point", required=True, help='rational point "a1,...,ad/b"')
    p.add_argument(
        "--window", type=_nonnegative_int, default=2, help="oracle search window (default 2)"
    )


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdescent", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("descend", help="descend a rational zero to an integral one")
    _add_form_point_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("represent", help="represent q(x) by an integral point of q")
    _add_form_point_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("three-squares", help="write n as a sum of three squares")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed for the rational-zero draw")
    p.add_argument("--window", type=_nonnegative_int, default=2)
    _add_output_flags(p)
    p.set_defaults(func=cmd_three_squares)

    p = sub.add_parser("check", help="bounded verification harnesses")
    csub = p.add_subparsers(dest="check_command", required=True)

    c = csub.add_parser("euclidean", help="search a box for oracle failures")
    _add_form_point_flags(c, point=False)
    c.add_argument("--height", type=_positive_int, required=True, help="max denominator norm")
    c.add_argument("--box", type=_nonnegative_int, required=True, help="numerator coordinate bound")
    _add_output_flags(c, trace=False)
    c.set_defaults(func=cmd_check_euclidean)

    c = csub.add_parser("adc", help="compare descent with brute-force representation")
    _add_form_point_flags(c, point=False)
    c.add_argument("--height", type=_positive_int, default=1, help="max denominator norm")
    c.add_argument("--box", type=_nonnegative_int, required=True, help="numerator coordinate bound")
    _add_output_flags(c, trace=False)
    c.set_defaults(func=cmd_check_adc)

    c = csub.add_parser("norm-axioms", help="sampled norm-axiom checks")
    c.add_argument("--domain", required=True, help="Z, Zi, or Fpt:<p>")
    c.add_argument("--samples", type=_positive_int, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--box", type=_nonnegative_int, default=None, help="sampling bound override")
    _add_output_flags(c, trace=False)
    c.set_defaults(func=cmd_check_norm_axioms)

    c = csub.add_parser("n2", help="norm-one elements are units, via the oracle")
    _add_form_point_flags(c, point=False)
    c.add_argument("--box", type=_nonnegative_int, required=True, help="element enumeration bound")
    _add_output_flags(c, trace=False)
    c.set_defaults(func=cmd_check_n2)

    return parser


# argparse refuses option values that begin with '-' unless they look like
# plain negative numbers, but points and forms legitimately start with '-'
# (e.g. --point "-11,2/5").  Joining flag and value with '=' sidesteps the
# heuristic without touching argparse internals.
_VALUE_FLAGS = ("--point", "--form", "--domain")


def _merge_flag_values(argv):
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# 128 + SIGPIPE, the status a shell reports for a program that a closed
# pipe ended
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # a closed pipe shows here, not in the flush at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output has no reader: send it, and the flush at
        # exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(argv) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_flag_values(list(argv)))
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 1
    try:
        return args.func(args)
    except (OracleNotFound, SearchBudgetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (InternalInvariantError, ExactDivisionError) as err:
        # the divisions that input can make inexact catch their own
        # ExactDivisionError, so one that escapes is a fault as well
        print(f"error: internal invariant violated: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
