"""Per-call cost of the ring operations every layer is built on.

domains.<Z|Zi|Fpt2>.<mul|gcd|round_quotient>_ns.<64|512>: the median
nanoseconds of one call on seeded operands of the given size (bits per
integer component for Z and Zi, degree for Fpt:2).
"""

from __future__ import annotations

import random
import statistics
import time

SIZES = (64, 512)
BATCHES = 7
MIN_BATCH_S = 0.002


def _operands(dom_name, bits, rng):
    def z(b):
        return rng.getrandbits(b) | (1 << (b - 1)) | 1

    if dom_name == "Z":
        a, b = z(bits), z(bits)
        return a, b, z(2 * bits)
    if dom_name == "Zi":
        a, b = (z(bits), z(bits)), (z(bits), -z(bits))
        return a, b, (z(2 * bits), z(2 * bits))

    def poly(deg):
        return tuple(rng.randrange(2) for _ in range(deg)) + (1,)

    return poly(bits), poly(bits), poly(2 * bits)


def _per_call_ns(fn, *args):
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        dt = time.perf_counter() - t0
        if dt >= MIN_BATCH_S:
            break
        n *= 4
    runs = [dt / n]
    for _ in range(BATCHES - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        runs.append((time.perf_counter() - t0) / n)
    return 1e9 * statistics.median(runs)


def ring_op_metrics(seed):
    import qdescent

    rng = random.Random(seed)
    out = {}
    for label, dom in (("Z", qdescent.ZZ), ("Zi", qdescent.ZI), ("Fpt2", qdescent.GFpT(2))):
        for bits in SIZES:
            a, b, wide = _operands(dom.name, bits, rng)
            out[f"domains.{label}.mul_ns.{bits}"] = _per_call_ns(dom._mul, a, b)
            out[f"domains.{label}.gcd_ns.{bits}"] = _per_call_ns(dom._gcd, a, b)
            out[f"domains.{label}.round_quotient_ns.{bits}"] = _per_call_ns(dom._round_quotient, wide, b)
    return out
