"""Serial, single-threaded microbenchmarks of the counting layer.

    PYTHONPATH=src python perfbench/micro.py

Calls the public counting functions directly at fixed primes, one call at a
time in one process, and prints one JSON object of per-call medians in
milliseconds.  This is the single-threaded baseline for the counting that
the CLI runs inside its worker pool.  Each case is called once first, so
per-process caches (the model discriminant, the F_{p^2} modulus) are warm;
the CLI workloads pay those first-call costs instead.
"""

from __future__ import annotations

import json
import statistics
import time

from frobsep.curves import CurveSpec, count_points, count_points_Fp2

E11A1 = CurveSpec.elliptic("11a1", (0, -1, 1, -10, -20), 11)
G2B = CurveSpec.hyperelliptic("g2b", [0, 0, 0, 0, 1, 1], [1, 1, 0, 1], 52)
BUDGET_S = 0.4          # per case; enough calls for a stable median
MIN_CALLS = 9

# the first good prime above each size: 11a1 is bad only at 11, g2b at 2, 13
CASES = (
    ("curves.count_points.g1.p1e3_ms", count_points, E11A1, 1009),
    ("curves.count_points.g1.p1e4_ms", count_points, E11A1, 10007),
    ("curves.count_points.g1.p1e5_ms", count_points, E11A1, 100003),
    ("curves.count_points.g2.p1e4_ms", count_points, G2B, 10007),
    ("curves.count_points_Fp2.p97_ms", count_points_Fp2, G2B, 97),
)


def median_call_ms(fn, curve, p) -> float:
    fn(curve, p)
    times = []
    spent = 0.0
    while len(times) < MIN_CALLS or spent < BUDGET_S:
        t0 = time.perf_counter()
        fn(curve, p)
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return 1e3 * statistics.median(times)


if __name__ == "__main__":
    print(json.dumps({name: median_call_ms(fn, curve, p)
                      for name, fn, curve, p in CASES}))
