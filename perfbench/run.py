"""qdescent benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload descend-mix --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout (the library is imported from
src/).  With --trace 0 the run cycles through the workload's inputs for
--seconds and prints the end-to-end metrics, built from each input's
median calibrated time; with --trace 1 it runs a fixed, seed-determined
slice of the workload three times (untraced, with spans, counting ring
operations) and prints the per-layer metrics and the tracing overhead.
Every output is checked against refcheck; the last line of stdout is one
JSON object (correct, attempted, failed, metrics).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROBE_RESERVE_S = 4.0  # about what the two over-budget probes take
# Each timed call is followed by the calibration loop for CAL_SHARE of the
# call's time, and the call's time is scaled by CAL_REF_S / (the loop's mean
# time right after it).  The host is shared: while other jobs run on it, all
# code runs up to half as slow again, for stretches of many seconds, and
# the loop sees the same slowdown as the call before it.  CAL_REF_S is the
# loop's time on an idle core of the reference machine (README.md), so a
# scaled time is the call's time on that machine when it is idle.
CAL_LOOPS = 1500
CAL_SHARE = 0.1
CAL_REF_S = 85e-6
CLI_REPEATS = 5


def percentile(sorted_vals, pct):
    """Linear interpolation between closest ranks (numpy's default)."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = (len(sorted_vals) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(sorted_vals):
    """(value, percentile used): p99 when at least ten samples lie beyond
    it, else the highest percentile that has ten as long as that is p90 or
    above, else the maximum."""
    n = len(sorted_vals)
    pct = 99.0
    if n * (1 - pct / 100) < 10:
        pct = 100 * (1 - 10 / n) if n >= 100 else 100.0
    return percentile(sorted_vals, pct), pct


def calibration_scale(seconds):
    """Run the calibration loop for at least CAL_SHARE * seconds; returns
    CAL_REF_S / its mean time per loop."""
    budget = CAL_SHARE * seconds
    loops, t0 = 0, time.perf_counter()
    while True:
        acc = 0
        for i in range(CAL_LOOPS):
            acc += (i * i) % 7
        loops += 1
        spent = time.perf_counter() - t0
        if spent >= budget:
            return CAL_REF_S * loops / spent


def run_rounds(rounds, tracer=None, deadline=None, scaled=None):
    """Run requests in order, past the first round only until the deadline;
    returns (durations by request, work by request, attempted, failed,
    problems).  Only the library call is timed, not its check.  A dict
    passed as scaled gets each request's calibrated durations."""
    times, work, attempted, failed, problems = {}, {}, 0, 0, []
    for i, rnd in enumerate(rounds):
        for req in rnd:
            if i and deadline is not None and time.perf_counter() >= deadline:
                return times, work, attempted, failed, problems
            if tracer is not None:
                tracer.request_id += 1
            t0 = time.perf_counter()
            try:
                out = req.call()
                err = None
            except Exception as exc:  # a raising request is a failed request
                out, err = None, exc
            dt = time.perf_counter() - t0
            times.setdefault(req, []).append(dt)
            if scaled is not None:
                scaled.setdefault(req, []).append(dt * calibration_scale(dt))
            attempted += 1
            bad = [f"{type(err).__name__}: {err}"] if err else req.check(out)
            if bad:
                failed += 1
                problems.extend(f"{req.kind}: {b}" for b in bad)
            else:
                work[req] = req.work(out)
    return times, work, attempted, failed, problems


def measure_setup(workload, seed):
    """Median calibrated wall time of a fresh interpreter that imports the
    library and builds this workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120, capture_output=True)
        dt = time.perf_counter() - t0
        times.append(dt * calibration_scale(dt))
    return statistics.median(times)


def timed_run(w, state, seconds):
    """Cycle through the workload's inputs until the deadline.  An input's
    cost is the median of its calibrated repeats."""
    deadline = time.perf_counter() + seconds
    scaled = {}
    times, work, attempted, failed, problems = run_rounds(w.rounds(state), deadline=deadline, scaled=scaled)
    metrics, tail_pct = _cost_metrics(scaled, work)
    raw, _ = _cost_metrics(times, work)
    repeats = sorted(len(ts) for ts in times.values())
    summary = {
        "inputs": len(repeats),
        "samples": sum(repeats),
        "repeats_min": repeats[0],
        "repeats_median": statistics.median(repeats),
        "tail_percentile": tail_pct,
        "busy_s": sum(sum(ts) for ts in times.values()),
        "work": sum(work.values()),
    }
    summary.update({f"uncalibrated {k}": v for k, (v, _) in raw.items()})
    return metrics, summary, attempted, failed, problems


def _cost_metrics(times, work):
    """(work_per_s, p50_ms and tail_ms over the inputs' median times,
    the tail percentile used)."""
    costs = {req: statistics.median(ts) for req, ts in times.items()}
    ordered = sorted(costs.values())
    tail_s, tail_pct = tail(ordered)
    return {
        "work_per_s": (sum(work.get(req, 0) for req in costs) / sum(ordered), "1/s"),
        "p50_ms": (1000 * percentile(ordered, 50), "ms"),
        "tail_ms": (1000 * tail_s, "ms"),
    }, tail_pct


def cli_startup_ms():
    """Median wall time of a bare interpreter, and median time of
    "import qdescent" measured inside a fresh interpreter."""
    from workloads import cli_env

    def run(code):
        return subprocess.run([sys.executable, "-c", code], check=True, env=cli_env(), cwd=ROOT,
                              timeout=60, capture_output=True, text=True).stdout

    interp, imports = [], []
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        run("pass")
        interp.append(time.perf_counter() - t0)
        imports.append(float(run("import time; t = time.perf_counter(); import qdescent; "
                                 "print(time.perf_counter() - t)")))
    return 1000 * statistics.median(interp), 1000 * statistics.median(imports)


def traced_run(w, state, seed):
    from micro import ring_op_metrics
    from tracing import Tracer, layer_metrics

    t0 = time.perf_counter()
    _, _, att_u, fail_u, prob_u = run_rounds(w.trace_rounds(state))
    wall_u = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(ring_ops=False)
    try:
        t0 = time.perf_counter()
        _, _, attempted, failed, problems = run_rounds(w.trace_rounds(state, tracer), tracer)
        wall_t = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    counter = Tracer()
    counter.install(spans=False)
    try:
        _, _, att_c, fail_c, prob_c = run_rounds(w.trace_rounds(state, counter))
    finally:
        counter.uninstall()
    tracer.counts["domains.ring_ops.calls"] = counter.counts["domains.ring_ops.calls"]
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"trace-{w.name}-{seed}.json")

    metrics = {k: (v, _unit(k)) for k, v in layer_metrics(tracer).items()}
    metrics.update({k: (v, "ns") for k, v in ring_op_metrics(seed).items()})
    interp, imp = cli_startup_ms() if w.name == "cli-cold" else (0.0, 0.0)
    metrics["cli.interp_ms"] = (interp, "ms")
    metrics["cli.import_ms"] = (imp, "ms")
    metrics["trace.overhead_ratio"] = (wall_t / wall_u, "ratio")
    summary = {"untraced_s": wall_u, "traced_s": wall_t, "spans": len(tracer.spans)}
    return metrics, summary, att_u + attempted + att_c, fail_u + failed + fail_c, prob_u + problems + prob_c


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".ratio") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "qdescent" / "__init__.py").is_file():
        print(f"error: no qdescent sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.setup_only:
        w.build(args.seed, reference=False)
        return 0

    start = time.perf_counter()
    setup_s = None if args.trace else measure_setup(w.name, args.seed)
    state = w.build(args.seed)
    if args.trace:
        metrics, summary, attempted, failed, problems = traced_run(w, state, args.seed)
        probes = []
    else:
        # set-up timing, input building and the probes' reserve all count
        # against --seconds; the probes run last, so that their memory
        # stays out of peak_rss_mb
        reserve = PROBE_RESERVE_S if hasattr(w, "probes") else 0.0
        left = args.seconds - (time.perf_counter() - start) - reserve
        metrics, summary, attempted, failed, problems = timed_run(w, state, left)
        who = resource.RUSAGE_CHILDREN if w.name == "cli-cold" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
        probes = w.probes() if hasattr(w, "probes") else []
        metrics["setup_s"] = (setup_s, "s")

    print(f"workload={w.name} seed={args.seed} trace={args.trace}")
    for key, val in summary.items():
        print(f"  {key}: {val:.6g}" if isinstance(val, float) else f"  {key}: {val}")
    probe_failed = 0
    for argv_, ok, secs, detail in probes:
        probe_failed += not ok
        print(f"  over-budget probe {'ok' if ok else 'FAILED'} in {secs:.2f} s: {' '.join(argv_)}: {detail}")
    total = attempted + len(probes)
    print(f"  fail_ratio: {(failed + probe_failed) / total:.6g} ({failed + probe_failed}/{total}"
          + (f", of which over-budget probes {probe_failed}/{len(probes)})" if probes else ")"))
    for line in problems[:20]:
        print(f"  problem: {line}")
    for key, (val, unit) in sorted(metrics.items()):
        print(f"  {key} = {val:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
