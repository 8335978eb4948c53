"""The benchmark's workloads: seeded inputs, requests and output checks.

A workload builds its inputs from a seed and then yields rounds, each a
list of Requests.  A request's call runs the library and returns plain
data (ints and tuples), check compares that data with an answer from
refcheck and returns a list of problems (empty when correct), and work
counts the units the throughput metric is made of.  Library functions are
looked up on the qdescent modules at call time, so the tracer's patches
see every call.

A workload's inputs are built once per run and cycled through, so every
input is timed several times.  Request kinds are fixed and only their
inputs depend on the seed, so every seed costs about the same.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, List

import refcheck as ref
from refcheck import Form

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(eq=False)  # hashed by identity: run.py keys timings by request
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], List[str]]
    work: Callable[[object], int] = lambda out: 1


def _qd():
    import qdescent

    return qdescent


def _raws(point):
    return tuple(c.raw for c in point)


def _point_key(x):
    return (tuple(n.raw for n in x.nums), x.den.raw)


def _check_zero(R, form):
    def check(y):
        val = ref.eval_form(R, form, y)
        return [] if val == R.zero else [f"f{y} = {val}, not 0"]

    return check


def _check_value(R, form, value):
    def check(y):
        got = ref.eval_form(R, form, y)
        return [] if got == value else [f"q{y} = {got}, expected {value}"]

    return check


# -- descend-mix ------------------------------------------------------------

Z3 = Form({(0, 0): 1, (1, 1): 1, (2, 2): 1}, (0, 0, 0), 0, 3)
ZI_PROD = Form({(0, 1): (1, 0)}, ((0, 0), (0, 0)), (0, 0), 2)
# criterion 5's form: the linear x1 keeps chords moving in characteristic 2
FPT2_C5 = Form({(0, 0): (1,), (1, 1): (0, 1)}, ((1,), ()), (0, 0, 1), 2)
FPT2_C5_TEXT = "x1^2+t*x2^2+x1+t^2"

DESCEND_BITS = (10, 160)  # denominator bit-lengths, spread evenly over this range
POOL = 256  # chord zeros per domain


def _rand_bits(rng, bits):
    return rng.choice((-1, 1)) * rng.getrandbits(max(bits, 2)) | 1


def _fpt_poly(rng, deg):
    return tuple(rng.randrange(2) for _ in range(deg)) + (1,)


def _spread_bits(rng):
    """POOL bit-lengths, one drawn from each of POOL equal slices of
    DESCEND_BITS: every seed covers the range evenly, so the cost of the
    mix, and its median, hardly depend on the seed."""
    lo, hi = DESCEND_BITS
    return [round(lo + (hi - lo) * (j + rng.random()) / POOL) for j in range(POOL)]


class DescendMix:
    """Chord-generated rational zeros over Z, Zi and Fpt:2 at denominator
    norms spread over 10-160 bits; Z and Zi alternate descend and
    represent."""

    name = "descend-mix"

    def build(self, seed, reference=True):
        qd = _qd()
        rng = random.Random(seed)
        q_z = qd.parse_form("x^2+y^2+z^2", qd.ZZ)
        q_zi = qd.parse_form("x1*x2", qd.ZI)
        f_f2 = qd.parse_form(FPT2_C5_TEXT, qd.GFpT(2))
        base_f2 = _raws(qd.brute_integral_zero(f_f2, qd.SearchBox(3)))
        RZ, RZi, RF2 = ref.RefZ(), ref.RefZi(), ref.RefFpt(2)
        zs, zis, f2s = [], [], []
        for bits in _spread_bits(rng):
            while True:
                y0 = [rng.randint(-30, 30) for _ in range(3)]
                n = sum(c * c for c in y0)
                if n == 0:
                    continue
                f = q_z.sub_scalar(n)
                w = [_rand_bits(rng, bits // 2) for _ in range(3)]
                x = qd.chord_zero(f, y0, w)
                if not x.is_integral():
                    zs.append((f, x, n))
                    break
        for bits in _spread_bits(rng):
            while True:
                a = (rng.randint(-20, 20), rng.randint(-20, 20))
                b = (rng.randint(-20, 20), rng.randint(-20, 20))
                c = RZi.mul(a, b)
                if c == RZi.zero:
                    continue
                f = q_zi.sub_scalar(c)
                w = [(_rand_bits(rng, bits // 4), _rand_bits(rng, bits // 4)) for _ in range(2)]
                x = qd.chord_zero(f, [a, b], w)
                if not x.is_integral():
                    zis.append((f, x, c))
                    break
        for bits in _spread_bits(rng):
            while True:
                w = [_fpt_poly(rng, bits // 2), _fpt_poly(rng, bits // 2)]
                try:
                    x = qd.chord_zero(f_f2, base_f2, w)
                except qd.IsotropicDirectionError:
                    continue
                if not x.is_integral():
                    f2s.append(x)
                    break
        kinds = [
            ("Z.descend", [self._descend(RZ, f, _z_form(n), x) for f, x, n in zs]),
            ("Z.represent", [self._represent(RZ, q_z, Z3, x, n) for f, x, n in zs]),
            ("Zi.descend", [self._descend(RZi, f, _zi_form(c), x) for f, x, c in zis]),
            ("Zi.represent", [self._represent(RZi, q_zi, ZI_PROD, x, c) for f, x, c in zis]),
            ("Fpt2.descend", [self._descend(RF2, f_f2, FPT2_C5, x) for x in f2s]),
        ]
        return {"kinds": kinds, "rng": random.Random(seed ^ 0x5EED)}

    @staticmethod
    def _descend(R, f, form, x):
        return Request(
            "descend",
            lambda: _raws(_qd().descend(f, x).result),
            _check_zero(R, form),
        )

    @staticmethod
    def _represent(R, q, form, x, value):
        return Request(
            "represent",
            lambda: _raws(_qd().adc_represent(q, x)),
            _check_value(R, form, value),
        )

    def rounds(self, state):
        """One round is one request of every kind, in a seeded order."""
        kinds, rng = state["kinds"], state["rng"]
        k = 0
        while True:
            order = list(range(len(kinds)))
            rng.shuffle(order)
            yield [kinds[i][1][k % POOL] for i in order]
            k += 1

    def trace_rounds(self, state, tracer=None):
        """Twelve rounds, from the shortest denominators to the longest."""
        return [[reqs[k] for _, reqs in state["kinds"]] for k in range(POOL // 24, POOL, POOL // 12)]


def _z_form(n):
    return Z3._replace(const=-n)


def _zi_form(c):
    return ZI_PROD._replace(const=ref.RefZi().neg(c))


# -- euclid-sweep -----------------------------------------------------------

Z4 = Form({(i, i): 1 for i in range(4)}, (0,) * 4, 0, 4)
# x^2 + i*y^2 is anisotropic over Q(i) and rounding leaves |f2(x - y)| < 1,
# so it is Euclidean; x^2 + y^2 = (x + iy)(x - iy) would not be
ZI_DIAG = Form({(0, 0): (1, 0), (1, 1): (0, 1)}, ((0, 0),) * 2, (0, 0), 2)
FPT3_DIAG = Form({(0, 0): (1,), (1, 1): (0, 1)}, ((), ()), (), 2)

# name, domain, form text, reference form, height, box
SWEEPS = (
    ("four-squares", "Z", "w^2+x^2+y^2+z^2", Z4, 4, 3),
    ("three-squares", "Z", "x^2+y^2+z^2", Z3, 6, 3),
    ("Zi", "Zi", "x^2+i*y^2", ZI_DIAG, 8, 2),
    ("Fpt3", "Fpt:3", "x1^2+t*x2^2", FPT3_DIAG, 3, 1),
)


class EuclidSweep:
    """check_euclidean on four squares (fails exactly on its deep holes)
    and on three Euclidean forms over Z, Zi and Fpt:3 (no failures)."""

    name = "euclid-sweep"

    def build(self, seed, reference=True):
        qd = _qd()
        sweeps = []
        for name, dom, text, form, height, box in SWEEPS:
            f = qd.parse_form(text, qd.domain_from_name(dom))
            expected = ref.euclid_checked(ref.ring(dom), form.d, height, box) if reference else None
            holes = ref.four_squares_deep_holes(box) if name == "four-squares" else set()
            sweeps.append(self._request(name, f, height, box, expected, holes))
        return {"sweeps": sweeps, "rng": random.Random(seed)}

    @staticmethod
    def _request(name, f, height, box, expected, holes):
        def call():
            report = _qd().check_euclidean(f, height, box)
            return report.checked, {_point_key(x.x): x.min_norm for x in report.failures}

        def check(out):
            checked, failures = out
            problems = []
            if checked != expected:
                problems.append(f"{name}: checked {checked}, expected {expected}")
            if set(failures) != holes:
                problems.append(f"{name}: {len(failures)} failures, expected {len(holes)} deep holes")
            if any(m != 1 for m in failures.values()):
                problems.append(f"{name}: a deep hole with min_norm != 1")
            return problems

        return Request(name, call, check, lambda out: out[0])

    def rounds(self, state):
        while True:
            order = list(state["sweeps"])
            state["rng"].shuffle(order)
            yield order

    def trace_rounds(self, state, tracer=None):
        return [list(state["sweeps"])]


# -- adc-referee ------------------------------------------------------------

# name, domain, form text, reference form, height, box
ADC_RUNS = (
    ("Z3", "Z", "x^2+y^2+z^2", Z3, 4, 8),
    ("Zi", "Zi", "x^2+i*y^2", ZI_DIAG, 2, 2),
    ("Fpt3", "Fpt:3", "x1^2+t*x2^2", FPT3_DIAG, 3, 1),
)


class AdcReferee:
    """verify_adc, which enumerates with a per-run witness cache; every run
    must be ok with a checked count recomputed here (5489 for Z3)."""

    name = "adc-referee"

    def build(self, seed, reference=True):
        qd = _qd()
        runs = []
        for name, dom, text, form, height, box in ADC_RUNS:
            q = qd.parse_form(text, qd.domain_from_name(dom))
            expected = ref.adc_checked(ref.ring(dom), form, height, box) if reference else None
            runs.append(self._request(name, q, height, box, expected))
        return {"runs": runs, "rng": random.Random(seed)}

    @staticmethod
    def _request(name, q, height, box, expected):
        def call():
            report = _qd().verify_adc(q, _qd().SearchBox(box, height))
            return report.checked, len(report.failures), len(report.inapplicable)

        def check(out):
            checked, failures, inapplicable = out
            problems = []
            if checked != expected:
                problems.append(f"{name}: checked {checked}, expected {expected}")
            if failures or inapplicable:
                problems.append(f"{name}: {failures} failures, {inapplicable} inapplicable")
            return problems

        return Request(name, call, check, lambda out: out[0])

    def rounds(self, state):
        while True:
            order = list(state["runs"])
            state["rng"].shuffle(order)
            yield order

    def trace_rounds(self, state, tracer=None):
        return [list(state["runs"])]


# -- three-squares ----------------------------------------------------------

LADDER = (250, 1000, 2000)  # brute boxes of 15, 31 and 44 per coordinate


class ThreeSquares:
    """The CLI's three-squares route (brute_integral_zero, then
    random_rational_zero, then descend) on a ladder of n, each with a
    seeded rational-zero draw (the CLI's --seed).  The ladder is fixed
    because the cost of the uncached brute enumeration, which sets both
    time and peak memory, depends on n."""

    name = "three-squares"

    def build(self, seed, reference=True):
        return {"ladder": self._ladder(random.Random(seed)), "rng": random.Random(seed ^ 0x5EED), "seed": seed}

    def _ladder(self, rng):
        return [self._request(n, rng.randrange(1 << 30)) for n in LADDER]

    @staticmethod
    def _request(n, seed):
        def call():
            qd = _qd()
            f = qd.QuadraticPolynomial(qd.ZZ, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1}, const=-n)
            y0 = qd.brute_integral_zero(f, qd.SearchBox(math.isqrt(n)))
            x = qd.random_rational_zero(f, y0, seed=seed)
            return _raws(qd.descend(f, x).result)

        return Request(f"n={n}", call, _check_value(ref.RefZ(), Z3, n))

    def rounds(self, state):
        while True:
            order = list(state["ladder"])
            state["rng"].shuffle(order)
            yield order

    def trace_rounds(self, state, tracer=None):
        return [self._ladder(random.Random(state["seed"] + 1))]


# -- cli-cold ---------------------------------------------------------------

PROBE_LIMIT_BYTES = 512 << 20
PROBE_TIMEOUT_S = 60
CLI_TIMEOUT_S = 60

# n of the seeded three-squares commands: a 4^a(8b+7) verdict and a brute
# search.  n is fixed because the brute box sets the command's time and
# its memory, the workload's peak; the seed draws the rational zero
SEEDED_SQUARES = (175, 350)
CRITERION8 = (
    ["descend", "--domain", "Z", "--form", "x^2+y^2-5", "--point", "-11,2/5"],
    ["represent", "--domain", "Z", "--form", "x^2+y^2+z^2", "--point", "1,18,0/5"],
    ["three-squares", "--n", "13"],
    ["check", "euclidean", "--domain", "Z", "--form", "w^2+x^2+y^2+z^2", "--height", "2", "--box", "2"],
)
OVER_BUDGET = (
    ["three-squares", "--n", "1000001"],
    ["check", "euclidean", "--domain", "Fpt:1000003", "--form", "x^2+y^2", "--height", "1", "--box", "1"],
)


def cli_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _chord_point(R, form, y0, w):
    """(A*y0 - B*w)/A, the second zero on the line y0 + T*w (f(y0) = 0)."""
    A = ref.form2_at(R, form, w)
    yw = [R.add(a, b) for a, b in zip(y0, w)]
    B = R.add(ref.eval_form(R, form, yw), R.neg(A))
    nums = [R.add(R.mul(A, a), R.neg(R.mul(B, b))) for a, b in zip(y0, w)]
    return nums, A


def _point_text(R, nums, den):
    return ",".join(R.fmt(c) for c in nums) + "/" + R.fmt(den)


def _json_result(R, doc):
    return tuple(R.parse(c) for c in doc["result"])


class CliCold:
    """One fresh interpreter per command: criterion 8's commands plus
    seeded Zi and Fpt:2 descents, a small check adc and three-squares.
    The two over-budget probes run once per run under a 512 MB address
    space limit; they are reported apart from the measured commands."""

    name = "cli-cold"

    def build(self, seed, reference=True):
        return {"commands": self._commands(random.Random(seed)), "rng": random.Random(seed ^ 0x5EED),
                "seed": seed}

    def _commands(self, rng, tracer=None):
        """Criterion 8's commands and a small check adc, then one draw of
        each seeded command per n in SEEDED_SQUARES."""
        RZ = ref.RefZ()
        cmds = [
            (CRITERION8[0], self._zero(RZ, Form({(0, 0): 1, (1, 1): 1}, (0, 0), -5, 2))),
            (CRITERION8[1], self._value(RZ, Z3, 13)),
            (CRITERION8[2], self._squares(13)),
            (CRITERION8[3], self._sweep(2)),
            (["check", "adc", "--domain", "Z", "--form", "x^2+y^2+z^2", "--box", "3", "--height", "2"],
             self._adc(ref.adc_checked(RZ, Z3, 2, 3))),
        ]
        for n in SEEDED_SQUARES:
            cmds.extend(self._seeded(rng, n))
        return [self._request(argv + ["--format", "json"], check, tracer) for argv, check in cmds]

    def _seeded(self, rng, n):
        RZ, RZi, RF2 = ref.RefZ(), ref.RefZi(), ref.RefFpt(2)
        cmds = []
        # Zi: a zero of x1*x2 - 5 through (1+2i, 1-2i) or a unit multiple
        u = rng.choice(((1, 0), (0, 1), (-1, 0), (0, -1)))
        y0 = [RZi.mul(u, (1, 2)), RZi.mul((u[0], -u[1]), (1, -2))]
        form = Form({(0, 1): (1, 0)}, ((0, 0),) * 2, (-5, 0), 2)
        nums, den = self._nonintegral(RZi, form, y0, lambda: (rng.randint(-40, 40), rng.randint(-40, 40)))
        cmds.append((["descend", "--domain", "Zi", "--form", "x1*x2-5", "--point",
                      _point_text(RZi, nums, den)], self._zero(RZi, form)))
        nums, den = self._nonintegral(RF2, FPT2_C5, _fpt2_base(RF2), lambda: _fpt_poly(rng, rng.randint(3, 12)))
        cmds.append((["descend", "--domain", "Fpt:2", "--form", FPT2_C5_TEXT, "--point",
                      _point_text(RF2, nums, den)], self._zero(RF2, FPT2_C5)))
        cmds.append((["three-squares", "--n", str(n), "--seed", str(rng.randrange(1000))],
                     self._squares(n)))
        y0 = [rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)]
        r = sum(c * c for c in y0)
        nums, den = self._nonintegral(RZ, _z_form(r), y0, lambda: rng.randint(-99, 99))
        cmds.append((["represent", "--domain", "Z", "--form", "x^2+y^2+z^2", "--point",
                      _point_text(RZ, nums, den)], self._value(RZ, Z3, r)))
        return cmds

    @staticmethod
    def _nonintegral(R, form, y0, draw):
        while True:
            w = [draw() for _ in y0]
            nums, den = _chord_point(R, form, y0, w)
            if den != R.zero and any(R.rem(a, den) != R.zero for a in nums):
                return nums, den

    @staticmethod
    def _zero(R, form):
        def check(out):
            code, doc = out
            if code != 0:
                return [f"exit code {code}"]
            return _check_zero(R, form)(_json_result(R, doc))

        return check

    @staticmethod
    def _value(R, form, value):
        def check(out):
            code, doc = out
            if code != 0:
                return [f"exit code {code}"]
            return _check_value(R, form, value)(_json_result(R, doc))

        return check

    @staticmethod
    def _squares(n):
        def check(out):
            code, doc = out
            if not ref.is_sum_of_three_squares(n):
                ok = code == 3 and doc == {"n": n, "representable": False}
                return [] if ok else [f"n={n}: expected the 4^a(8b+7) verdict"]
            if code != 0:
                return [f"exit code {code}"]
            return _check_value(ref.RefZ(), Z3, n)(_json_result(ref.RefZ(), doc))

        return check

    @staticmethod
    def _sweep(box):
        holes = ref.four_squares_deep_holes(box)
        expected = ref.euclid_checked(ref.RefZ(), 4, 2, box)

        def check(out):
            code, doc = out
            got = set()
            for line in doc["failures"]:
                x, _, rest = line.partition(" ")
                nums, den = x[2:].split("/")
                got.add((tuple(int(c) for c in nums.split(",")), int(den)))
                if not rest.endswith("min_norm=1"):
                    return [f"deep hole {x} with {rest}"]
            problems = []
            if code != 2:
                problems.append(f"exit code {code}, expected 2 (failures found)")
            if doc["checked"] != expected or got != holes:
                problems.append(f"checked {doc['checked']}/{expected}, {len(got)} failures")
            return problems

        return check

    @staticmethod
    def _adc(expected):
        def check(out):
            code, doc = out
            ok = code == 0 and doc["checked"] == expected and not doc["failures"]
            return [] if ok else [f"check adc: exit {code}, checked {doc.get('checked')}/{expected}"]

        return check

    @staticmethod
    def _request(argv, check, tracer):
        if tracer is None:
            return Request(argv[0], lambda: run_cli(argv), check)
        out = ROOT / ".bench_build" / "perfbench" / "cli-child.json"

        child = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(out),
                 *(str(int(flag)) for flag in tracer.installed)]

        def call():
            result = run_cli(argv, child)
            tracer.merge(json.loads(out.read_text()))
            return result

        return Request(argv[0], call, check)

    def rounds(self, state):
        while True:
            order = list(state["commands"])
            state["rng"].shuffle(order)
            yield order

    def trace_rounds(self, state, tracer=None):
        return [self._commands(random.Random(state["seed"] + 1), tracer)]

    def probes(self):
        """(argv, ok, seconds, detail) for each over-budget probe."""
        return [(argv, *run_probe(argv)) for argv in OVER_BUDGET]


def _fpt2_base(R):
    """An integral zero of criterion 5's form, by search over small polys."""
    polys = [()] + [c + (1,) for deg in range(3) for c in product(range(2), repeat=deg)]
    for a in polys:
        for b in polys:
            if ref.eval_form(R, FPT2_C5, [a, b]) == R.zero:
                return [a, b]
    raise RuntimeError("criterion 5's form has no small integral zero")


def run_cli(argv, child=None):
    """Run the CLI in a fresh interpreter; returns (exit code, parsed JSON).

    child, when given, is the argv prefix of a wrapper that runs cli.main
    in place of "python -m qdescent" (the traced run uses it)."""
    cmd = child + argv if child else [sys.executable, "-m", "qdescent", *argv]
    proc = subprocess.run(cmd, capture_output=True, env=cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout)


def run_probe(argv):
    """An over-budget command under an address-space limit and a timeout.

    Returns (ok, seconds, detail): ok when the command either answered
    correctly or refused cleanly (exit 2, an error line, no traceback)."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_LIMIT_BYTES, PROBE_LIMIT_BYTES))

    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "qdescent", *argv, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(), cwd=ROOT,
        preexec_fn=limit,
    )
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return False, time.perf_counter() - t0, f"no answer within {PROBE_TIMEOUT_S} s"
    dt = time.perf_counter() - t0
    err = err.decode(errors="replace")
    last = err.strip().splitlines()[-1] if err.strip() else ""
    if "Traceback" in err:
        return False, dt, f"exit {proc.returncode}: {last}"
    if proc.returncode == 2 and err.startswith("error:"):
        return True, dt, f"refused: {last}"
    if argv[0] == "three-squares" and proc.returncode == 0:
        n = int(argv[2])
        y = _json_result(ref.RefZ(), json.loads(out))
        ok = not _check_value(ref.RefZ(), Z3, n)(y)
        return ok, dt, "answered" if ok else f"wrong answer {y}"
    return False, dt, f"exit {proc.returncode}: {last}"


WORKLOADS = {w.name: w for w in (DescendMix(), EuclidSweep(), AdcReferee(), ThreeSquares(), CliCold())}
