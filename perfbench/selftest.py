"""Self-test of the benchmark itself (not of qdescent).

    python3 perfbench/selftest.py

1. Corrupted outputs: each checker must reject a deliberately corrupted
   result, and run.py's loop must count such a request as failed.
2. Determinism: two traced runs with the same seed must report identical
   work counters (every per-layer metric that is not a time).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import refcheck as ref  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

TIME_UNITS = {"s", "ms", "ns"}


def _bump(R, c):
    return R.add(c, R.one)


def corrupted_cases():
    """(label, request, correct output, corrupted output)."""
    cases = []
    state = W.WORKLOADS["descend-mix"].build(3)
    for kind, reqs in state["kinds"][:5]:
        req = reqs[0]
        out = req.call()
        R = ref.ring("Fpt:2" if kind.startswith("Fpt2") else kind.split(".")[0])
        # the last coordinate: x1 -> x1 + 1 keeps criterion 5's form in characteristic 2
        cases.append((kind, req, out, out[:-1] + (_bump(R, out[-1]),)))

    sweeps = {r.kind: r for r in W.WORKLOADS["euclid-sweep"].build(3)["sweeps"]}
    out = sweeps["three-squares"].call()
    cases.append(("sweep, failure added", sweeps["three-squares"], out,
                  (out[0], {((1, 1, 1), 2): 1})))
    cases.append(("sweep, checked off by one", sweeps["three-squares"], out, (out[0] - 1, out[1])))
    holes = {key: 1 for key in ref.four_squares_deep_holes(3)}
    expected = ref.euclid_checked(ref.RefZ(), 4, 4, 3)
    fewer = dict(holes)
    fewer.popitem()
    cases.append(("four-squares, deep hole missing", sweeps["four-squares"], (expected, holes),
                  (expected, fewer)))

    adc = {r.kind: r for r in W.WORKLOADS["adc-referee"].build(3)["runs"]}
    out = adc["Zi"].call()
    cases.append(("adc, one failure", adc["Zi"], out, (out[0], 1, out[2])))

    req = W.ThreeSquares._request(77, 5)
    out = req.call()
    cases.append(("three-squares", req, out, (out[0], out[1], _bump(ref.RefZ(), out[2]))))

    cli = W.WORKLOADS["cli-cold"]
    for req in cli.build(3)["commands"][:2]:
        code, doc = req.call()
        bad = dict(doc, result=doc["result"][:-1] + [str(int(doc["result"][-1]) + 1)])
        cases.append((f"cli {req.kind}", req, (code, doc), (code, bad)))
        cases.append((f"cli {req.kind} exit code", req, (code, doc), (1, doc)))
    return cases


def check_corruption():
    ok = True
    for label, req, good, bad in corrupted_cases():
        accepted = not req.check(good)
        rejected = bool(req.check(bad))
        counted = _counted_failures(req, bad) == 1
        if not (accepted and rejected and counted):
            ok = False
        print(f"{'PASS' if accepted and rejected and counted else 'FAIL'} corrupted {label}: "
              f"correct accepted={accepted} corrupted rejected={rejected} counted={counted}")
    return ok


def _counted_failures(req, bad):
    fake = W.Request(req.kind, lambda: bad, req.check, req.work)
    _, _, attempted, failed, _ = run.run_rounds([[fake]])
    return failed


def traced_counters(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent, timeout=170,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in doc["metrics"].items()
            if v["unit"] not in TIME_UNITS and k != "trace.overhead_ratio"}


def check_determinism():
    ok = True
    for workload in ("descend-mix", "cli-cold"):
        a, b = traced_counters(workload, 5), traced_counters(workload, 5)
        diff = sorted(k for k in a if a[k] != b.get(k))
        ok &= not diff
        print(f"{'PASS' if not diff else 'FAIL'} {workload}: {len(a)} counters identical across "
              f"two traced runs" + (f"; differing: {diff}" if diff else ""))
    return ok


if __name__ == "__main__":
    results = [check_corruption(), check_determinism()]
    sys.exit(0 if all(results) else 1)
