"""Spans and work counters recorded from outside the library.

Tracer.install wraps library functions in place: every module attribute
that is bound to a traced function (the defining module and every module
that imported the name) is replaced by one wrapper, and the class methods
for ring operations, evaluation and FractionPoint construction are wrapped
on their classes.  Spans (name, start, end, parent, request id) stay in
memory; write() saves them when the run ends.  Counters that describe the
work (fast-path hits, scan candidates, brute-force points, descent steps)
are computed by hooks around the wrapped calls, from the arguments with
refcheck arithmetic or from the returned trace, with counting paused so
they add nothing to the counts.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

import refcheck as ref

RING_OPS = ("_add", "_neg", "_mul", "_divexact", "_gcd", "_round_quotient", "_norm")

# span name -> (module, attribute); methods are given as "Class.method"
SPANS = {
    "oracle.euclidean_step": ("qdescent.oracle", "euclidean_step"),
    "oracle.check_euclidean": ("qdescent.oracle", "check_euclidean"),
    "domains.FractionPoint": ("qdescent.domains", "FractionPoint.__init__"),
    "quadratic.eval": ("qdescent.quadratic", "QuadraticPolynomial.eval"),
    "quadratic.expand_along_line": ("qdescent.quadratic", "QuadraticPolynomial.expand_along_line"),
    "descent.descent_step": ("qdescent.descent", "descent_step"),
    "descent.descend": ("qdescent.descent", "descend"),
    "descent.adc_trace": ("qdescent.descent", "adc_trace"),
    "zerotools.brute_integral_zero": ("qdescent.zerotools", "brute_integral_zero"),
    "zerotools.first_value_witness": ("qdescent.zerotools", "_first_value_witness"),
    "zerotools.chord_zero": ("qdescent.zerotools", "chord_zero"),
    "zerotools.random_rational_zero": ("qdescent.zerotools", "random_rational_zero"),
    "zerotools.verify_adc": ("qdescent.zerotools", "verify_adc"),
    "formparse.parse_form": ("qdescent.formparse", "parse_form"),
    "formparse.format_form": ("qdescent.formparse", "format_form"),
}


def _box_size(dom, bound):
    """Points per coordinate in a search box, from the bound alone."""
    if dom.name == "Z":
        return 2 * bound + 1
    if dom.name == "Zi":
        return (2 * bound + 1) ** 2
    return dom.p ** (bound + 1)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.stack = []
        self.counts = Counter()
        self.request_id = 0
        self.counting = True
        self.installed = (False, False)  # (spans, ring_ops)
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.counting:
                return fn(*args, **kwargs)
            label = name
            if pre is not None:
                tracer.counting = False
                try:
                    label = pre(*args, **kwargs) or name
                finally:
                    tracer.counting = True
            counts[label + ".calls"] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [label, t0, t1, parent, tracer.request_id]
            if post is not None:
                tracer.counting = False
                try:
                    post(result, *args, **kwargs)
                finally:
                    tracer.counting = True
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts, tracer = self.counts, self

        def wrapper(*args):
            if tracer.counting:
                counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, spans=True, ring_ops=True):
        """Wrap the SPANS functions and/or count ring operations.  Counting
        ring operations slows every layer that calls them, so the parent
        process counts them in a pass of their own."""
        import qdescent.domains as domains

        self.installed = (spans, ring_ops)
        if ring_ops:
            for cls in (domains.RationalIntegers, domains.GaussianIntegers, domains.PrimeFieldPolynomials):
                for op in RING_OPS:
                    if op in cls.__dict__:
                        self._set(cls, op, self._counted("domains.ring_ops.calls", cls.__dict__[op]))
        if not spans:
            return
        hooks = {
            "oracle.euclidean_step": (self._oracle_pre, None),
            "descent.descend": (None, self._descend_post),
            "zerotools.brute_integral_zero": (self._brute_pre, None),
            "zerotools.first_value_witness": (self._witness_pre, None),
            "zerotools.verify_adc": (None, self._adc_post),
        }
        modules = [m for n, m in sys.modules.items() if n == "qdescent" or n.startswith("qdescent.")]
        for name, (modname, attr) in SPANS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                attr = meth
            fn = owner.__dict__[attr]
            wrapper = self._wrap(name, fn, *hooks.get(name, (None, None)))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            # every module that bound the name at import gets the wrapper
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- counters computed from the arguments -------------------------------

    def _oracle_pre(self, f, x, window=2, tie_seed=None):
        """Classify the call: does 0 < N(f2(x - round(x))) < N(b^2) hold?"""
        dom = f.domain
        R = ref.ring(dom.name)
        b = x.den.raw
        nums = [n.raw for n in x.nums]
        w = [R.add(a, R.neg(R.mul(b, R.round_quotient(a, b)))) for a in nums]
        v = ref.form2_at(R, ref.Form(f.quad, (), R.zero, f.d), w)
        fast = tie_seed is None and 0 < R.norm(v) < R.norm(R.mul(b, b))
        if fast:
            self.counts["oracle.fast_path.hits"] += 1
            return "oracle.euclidean_step.fast"
        self.counts["oracle.scan.candidates"] += len(dom._offset_raws(window)) ** f.d
        return "oracle.euclidean_step.scan"

    def _descend_post(self, trace, *args, **kwargs):
        self.counts["descent.descents"] += 1
        for s in trace.steps:
            self.counts["descent.steps"] += 1
            self.counts["descent.drop_bits"] += math.log2(s.b.norm()) - math.log2(s.b_next.norm())

    def _brute_pre(self, f, box):
        self.counts["zerotools.brute.points"] += _box_size(f.domain, box.num_bound) ** f.d

    def _witness_pre(self, q, r_raw, bounds):
        self.counts["zerotools.brute.points"] += math.prod(_box_size(q.domain, b) for b in bounds)

    def _adc_post(self, report, *args, **kwargs):
        self.counts["zerotools.adc.checked"] += report.checked

    # -- results -------------------------------------------------------------

    def merge(self, doc):
        """Add the spans and counts a traced child process wrote."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in doc["spans"]:
            self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, self.request_id])
        self.counts.update(doc["counts"])

    def self_times(self):
        covered = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - covered[i]
        return out

    def write(self, path):
        doc = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer):
    """The per-layer metrics that come from spans and counters."""
    c, st = tracer.counts, tracer.self_times()
    step_calls = c["oracle.euclidean_step.fast.calls"] + c["oracle.euclidean_step.scan.calls"]
    brute_calls = c["zerotools.brute_integral_zero.calls"] + c["zerotools.first_value_witness.calls"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "oracle.euclidean_step.calls": step_calls,
        "oracle.euclidean_step.self_s": st["oracle.euclidean_step.fast"] + st["oracle.euclidean_step.scan"],
        "oracle.fast_path.ratio": ratio(c["oracle.fast_path.hits"], step_calls),
        "oracle.scan.calls": c["oracle.euclidean_step.scan.calls"],
        "oracle.scan.candidates": c["oracle.scan.candidates"],
        "oracle.scan.self_s": st["oracle.euclidean_step.scan"],
        "domains.ring_ops.calls": c["domains.ring_ops.calls"],
        "domains.FractionPoint.calls": c["domains.FractionPoint.calls"],
        "domains.FractionPoint.self_s": st["domains.FractionPoint"],
        "quadratic.eval.calls": c["quadratic.eval.calls"],
        "quadratic.eval.self_s": st["quadratic.eval"],
        "quadratic.expand_along_line.calls": c["quadratic.expand_along_line.calls"],
        "quadratic.expand_along_line.self_s": st["quadratic.expand_along_line"],
        "descent.descent_step.calls": c["descent.descent_step.calls"],
        "descent.descent_step.self_s": st["descent.descent_step"],
        "descent.steps_per_descent": ratio(c["descent.steps"], c["descent.descents"]),
        "descent.norm_drop_bits": ratio(c["descent.drop_bits"], c["descent.steps"]),
        "zerotools.brute.calls": brute_calls,
        "zerotools.brute.points": c["zerotools.brute.points"],
        "zerotools.brute.self_s": st["zerotools.brute_integral_zero"] + st["zerotools.first_value_witness"],
        "zerotools.adc.cache_hit_ratio": (
            1 - ratio(c["zerotools.first_value_witness.calls"], c["zerotools.adc.checked"])
            if c["zerotools.adc.checked"] else 0.0
        ),
        "zerotools.chord_zero.calls": c["zerotools.chord_zero.calls"],
        "zerotools.chord_zero.self_s": st["zerotools.chord_zero"],
        "formparse.parse_form.self_s": st["formparse.parse_form"],
        "formparse.format_form.self_s": st["formparse.format_form"],
        "cli.main_ms": 1000 * sum(t1 - t0 for name, t0, t1, _, _ in tracer.spans if name == "cli.main")
        / max(1, c["cli.main.calls"]),
    }
