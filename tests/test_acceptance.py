"""Acceptance gate: eight go/no-go checks with runtime budgets.

Run with `pytest -s tests/test_acceptance.py` to see the one-line verdicts.
Each check prints exactly one PASS/FAIL line; a FAIL line is followed by the
assertion detail pytest reports anyway.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from qdescent import (
    FractionPoint,
    FormCoefficientError,
    FormDegreeError,
    FormSyntaxError,
    GFpT,
    ZI,
    ZZ,
    brute_integral_zero,
    check_euclidean,
    check_n2,
    check_norm_axioms,
    descend,
    euclidean_step,
    format_form,
    parse_form,
    random_quadratic,
    random_rational_zero,
    verify_adc,
    SearchBox,
)

F2 = GFpT(2)
F3 = GFpT(3)


def _verdict(num, label, limit, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    dt = time.perf_counter() - t0
    assert limit is None or dt < limit, f"criterion {num} took {dt:.2f}s (limit {limit}s)"
    budget = "no limit" if limit is None else f"limit {limit:g}s"
    print(f"criterion {num}: PASS ({dt:.2f}s, {budget}) - {label}")


def _assert_chain_certificates(f, x, trace):
    assert len(trace.steps) <= x.den.norm()
    norms = [s.b.norm() for s in trace.steps]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    for s in trace.steps:
        assert s.b_next * s.b == s.A
        assert s.b_next == -s.B - s.C * s.b
        assert s.b_next.norm() < s.b.norm()
        # norm(b') = ext_norm(f2(x - y)) * norm(b), i.e. |b'|*|b| = |A|
        assert s.b_next.norm() * s.b.norm() == s.A.norm()
        assert f.eval(s.x_next).is_zero()
    assert f.eval_at_integral(trace.result).is_zero()


def test_criterion_1_worked_descent():
    def body():
        f = parse_form("x^2+y^2-5", ZZ)
        x = FractionPoint(ZZ, [-11, 2], 5)
        trace = descend(f, x)
        assert len(trace.steps) == 1
        s = trace.steps[0]
        assert [c.raw for c in s.y] == [-2, 0]
        assert [c.raw for c in s.v] == [-1, 2]
        assert (s.A.raw, s.B.raw, s.C.raw) == (5, 4, -1)
        assert s.b_next.raw == 1
        assert [c.raw for c in trace.result] == [-1, -2]
        _assert_chain_certificates(f, x, trace)

    _verdict(1, "worked descent for x^2+y^2-5 from (-11,2)/5", 1.0, body)


def test_criterion_2_certificate_suite():
    def body():
        q = parse_form("x^2+y^2+z^2", ZZ)

        def obstructed(n):
            while n % 4 == 0:
                n //= 4
            return n % 8 == 7

        reps = [n for n in range(2, 51) if not obstructed(n)]
        bases = {n: brute_integral_zero(q.sub_scalar(n), SearchBox(math.isqrt(n)))
                 for n in reps}
        for i in range(200):
            n = reps[i % len(reps)]
            f = q.sub_scalar(n)
            x = random_rational_zero(f, bases[n], seed=10000 + i, height_min=2)
            assert not x.is_integral()
            trace = descend(f, x)
            _assert_chain_certificates(f, x, trace)

    _verdict(2, "200 chord-generated descents, every step certified", 30.0, body)


def test_criterion_3_adc_cross_check():
    def body():
        q = parse_form("x^2+y^2+z^2", ZZ)
        report = verify_adc(q, SearchBox(8, 4))
        assert report.ok, report.failures[:3]
        assert report.inapplicable == ()
        assert report.checked == 5489

    _verdict(3, "descent vs brute-force representation, dens <=4 nums <=8", 300.0, body)


def test_criterion_4_euclidean_corroboration_and_refutation():
    def body():
        r1 = check_euclidean(parse_form("x^2+y^2+z^2", ZZ), 6, 3)
        assert r1.ok and r1.checked == 1580
        r2 = check_euclidean(parse_form("x1^2+t*x2^2", F2), 2, 2)
        assert r2.ok and r2.checked == 288
        r3 = check_euclidean(parse_form("w^2+x^2+y^2+z^2", ZZ), 2, 2)
        assert not r3.ok
        witness = [f for f in r3.failures if str(f.x) == "1,1,1,1/2"]
        assert len(witness) == 1
        assert witness[0].min_norm == Fraction(1)

    _verdict(4, "Euclidean checks: two corroborations, one refutation", 60.0, body)


def test_criterion_5_char2_end_to_end():
    def body():
        # X^2 + tY^2 + c alone is chord-degenerate in characteristic 2 (the
        # bilinear form of a diagonal form vanishes, so every chord returns
        # the base point); the linear term X keeps the diagonal Euclidean
        # part and makes chords move.
        f = parse_form("x1^2+t*x2^2+x1+t^2", F2)
        base = brute_integral_zero(f, SearchBox(3))
        assert base is not None
        assert f.eval_at_integral(base).is_zero()
        produced = 0
        for seed in range(25):
            x = random_rational_zero(f, base, seed=seed, direction_bound=4)
            assert not x.is_integral()
            trace = descend(f, x)
            assert len(trace.steps) >= 1
            _assert_chain_certificates(f, x, trace)
            # strict denominator-degree decrease: norms are powers of 2
            degs = [s.b.norm().bit_length() - 1 for s in trace.steps]
            assert all(a > b for a, b in zip(degs, degs[1:]))
            produced += 1
        assert produced == 25

    _verdict(5, "characteristic-2 brute base, chords, descents", None, body)


def test_criterion_6_norm_axioms_and_n2():
    def body():
        for dom in (ZZ, ZI, F3):
            report = check_norm_axioms(dom, samples=1000, seed=int(dom.name != "Z"))
            assert report.ok and report.checked == 1000
        # direct branch: enumerated nonzero non-units all have norm > 1
        # (nonzero |a| <= 100 over Z, nonzero norm <= 50 over Z[i], degree <= 3
        # over F_3[t])
        elements = [
            *(ZZ.element(a) for a in ZZ._box_raws(100) if a),
            *(ZI.element(a) for a in ZI._box_raws(7) if 0 < ZI._norm(a) <= 50),
            *(F3.element(a) for a in F3._box_raws(3) if a),
        ]
        assert len(elements) == 200 + 160 + 80
        for e in elements:
            if not e.is_unit():
                assert e.norm() > 1
        # constructive branch for q = X^2+Y^2+Z^2, a in {2..10}
        q = parse_form("x^2+y^2+z^2", ZZ)
        a_list = [ZZ.element(a) for a in range(2, 11)]
        report = check_n2(ZZ, q, a_list)
        assert report.ok and report.checked == 9
        for a in range(2, 11):
            x = FractionPoint(ZZ, [1, 0, 0], a)
            found = euclidean_step(q, x)
            w = [1 - a * found.y[0].raw, -a * found.y[1].raw, -a * found.y[2].raw]
            val = q.eval_at_integral(w).norm()
            assert 0 < val < a * a  # exact integer inequality

    _verdict(6, "norm axioms sampled, norm-1-implies-unit enumerated", 30.0, body)


def test_criterion_7_parser_roundtrip_and_diagnostics():
    def body():
        rng = random.Random(424242)
        for dom in (ZZ, ZI, F2, F3):
            for _ in range(500):
                d = rng.randint(1, 4)
                f = random_quadratic(dom, d, rng)
                assert parse_form(format_form(f), dom, d) == f
        for text, exc, offset in (
            ("x^2 + + y", FormSyntaxError, 6),
            ("x^3", FormDegreeError, 0),
            ("x^2 + i", FormCoefficientError, 6),
        ):
            try:
                parse_form(text, ZZ)
            except exc as err:
                assert err.offset == offset
            else:
                raise AssertionError(f"no {exc.__name__} for {text!r}")

    _verdict(7, "2000 format/parse round-trips, positioned diagnostics", None, body)


def test_criterion_8_cli_determinism():
    def body():
        commands = [
            ["descend", "--domain", "Z", "--form", "x^2+y^2-5",
             "--point", "-11,2/5", "--format", "json"],
            ["represent", "--domain", "Z", "--form", "x^2+y^2+z^2",
             "--point", "1,18,0/5", "--format", "json"],
            ["three-squares", "--n", "13", "--format", "json"],
            ["check", "euclidean", "--domain", "Z", "--form", "w^2+x^2+y^2+z^2",
             "--height", "2", "--box", "2", "--format", "json"],
        ]
        for cmd in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "qdescent", *cmd],
                    capture_output=True, check=False,
                ).stdout
                for _ in range(2)
            ]
            assert runs[0] == runs[1], cmd
            json.loads(runs[0])  # machine-readable

    _verdict(8, "byte-identical machine-readable reruns", None, body)
