"""Layer microbenchmark: ``draw_rule_batch`` cost per draw versus batch size.

For each stochastic scheme at n in {6, 10}, one draw batch of n_m (what one
integral draws today) is compared with one of 1000 * n_m (what a lockstep
batched Monte-Carlo engine would draw at once).  Reported as microseconds
per draw, median over repeats, under ``rules.draw_us_per_draw.<scheme>.n<n>.<batch>``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from srcf.rng import RngStream
from srcf.rules import draw_rule_batch

from workloads import make_scheme

SCHEMES = ("sif3", "sif5", "qsif5", "mc")
DIMS = (6, 10)
SMALL_BATCH_S = 0.1  # minimum time spent repeating the n_m batch


def draw_microbench(seed: int, factor: int = 1000) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    for label in SCHEMES:
        scheme = make_scheme(label)
        for n in DIMS:
            for tag, batch in (("nm", scheme.n_m), ("1000nm", factor * scheme.n_m)):
                rng = RngStream(seed).substream("micro", label, n, batch)
                times, spent = [], 0.0
                while len(times) < 3 or (tag == "nm" and spent < SMALL_BATCH_S):
                    t0 = perf_counter()
                    draw_rule_batch(scheme, n, batch, rng)
                    times.append(perf_counter() - t0)
                    spent += times[-1]
                us = 1e6 * float(np.median(times)) / batch
                metrics[f"rules.draw_us_per_draw.{label}.n{n}.{tag}"] = us
                lines.append(f"micro draw {label:<5} n={n:<2} batch={batch:<6} {us:10.3f} us/draw ({len(times)} repeats)")
    return metrics, lines
