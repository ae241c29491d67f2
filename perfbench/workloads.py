"""The three benchmark workloads.

Every workload is a closed loop driven by one process: it repeats a fixed
unit of work, whose inputs derive from the seed and the unit index, until
the time budget is spent.  Units are independent, so a run can stop after
any of them.  Each workload calls ``srcf`` only through module attributes
(``bench.run_filter_bench``, ``filtering.predict_state``, ...), which is
what lets the traced run wrap those boundaries.

filter-study-n10   ``run_filter_bench`` (the ``srcf filter-bench`` study) on
                   the growth model at n=10, q=2 with ckf3, ckf5, sif3, sif5
                   and qsif5; one unit is one 100-step trajectory filtered by
                   every scheme.  Per-call overhead dominates.
integral-study-n6  ``run_integral_bench`` (the ``srcf integral-bench`` study)
                   at n=6 with all six schemes; one unit is 100 runs of every
                   stochastic scheme.  No filtering runs.
filter-online-n20  one sif5 filter step at a time on the growth model at
                   n=20, q=2, exactly as ``run_filter`` steps; one unit is
                   one 50-step trajectory.  The (P, n, n) moment reduction
                   dominates and there is nothing to batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from srcf import bench, filtering
from srcf.filtering import DivergenceError
from srcf.integrate import IntegrandError
from srcf.rng import RngStream
from srcf.rules import IntegrationScheme

# The CLI's default repetition counts, fixed here so that a later change of
# CLI defaults does not silently change the workloads.
DEFAULT_NM = {"sif3": 50, "sif5": 10, "qsif5": 10}
DEFAULT_MC_SAMPLES = 600
STEADY_FROM = 20  # RMSE is averaged over steps >= 20, after the initial transient


def make_scheme(label: str) -> IntegrationScheme:
    return IntegrationScheme.from_label(
        label,
        n_m=DEFAULT_NM.get(label, 1),
        mc_samples=DEFAULT_MC_SAMPLES if label == "mc" else None,
    )


@dataclass
class Unit:
    """What one unit of work did, for metrics and for the correctness gate."""

    index: int
    wall_s: float
    ops: int  # filter runs, integrals or filter steps, per workload
    integrals: int  # Gaussian integrals completed (a filter step is two)
    diverged: int = 0  # ops that raised or were excluded as diverged
    bad: int = 0  # ops whose output failed the per-unit check
    steps: int = 0  # filter steps completed
    runs: int = 0  # filter runs (trajectories) attempted
    step_s: list = field(default_factory=list)
    output: object = None

    @property
    def failed(self) -> int:
        return self.diverged + self.bad


class FilterStudy:
    name = "filter-study-n10"
    labels = ("ckf3", "ckf5", "sif3", "sif5", "qsif5")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.steps = 25 if tiny else 100
        self.n_mc = 1
        self.trace_units = 1 if tiny else 3

    def setup(self):
        self.model = bench.GrowthModel(q=2, n=10)
        self.schemes = [make_scheme(label) for label in self.labels]
        bench.run_filter_bench(self.model, self.schemes, 1, 3, RngStream(self.seed, "warmup"))

    def unit_rng(self, i: int) -> RngStream:
        return RngStream(self.seed, stream_id=i)

    def run_unit(self, i: int) -> Unit:
        t0 = perf_counter()
        series = bench.run_filter_bench(self.model, self.schemes, self.n_mc, self.steps, self.unit_rng(i))
        wall = perf_counter() - t0
        excluded = sum(s.meta["excluded_runs"] for s in series)
        # a completed run must come back with a finite squared-error row per step
        bad = sum(
            int(s.sq_errors.shape != (self.n_mc - s.meta["excluded_runs"], self.steps)
                or not np.all(np.isfinite(s.sq_errors)))
            for s in series
        )
        runs = self.n_mc * len(series)
        steps = (runs - excluded) * self.steps
        return Unit(i, wall, ops=runs, integrals=2 * steps, diverged=excluded, bad=bad,
                    steps=steps, runs=runs, output=series)

    def quality(self, units) -> dict:
        rows = [u.output[self.labels.index("sif5")].sq_errors[:, STEADY_FROM:] for u in units]
        sq = np.concatenate(rows) if rows else np.zeros((0, 0))
        value = float(np.sqrt(sq.mean())) if sq.size else float("nan")
        return {"rmse_steady_sif5": (value, "state", f"runs={sq.shape[0]}")}


class IntegralStudy:
    name = "integral-study-n6"
    labels = ("ckf3", "ckf5", "sif3", "sif5", "qsif5", "mc")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n = 6
        self.runs = 5 if tiny else 100
        self.trace_units = 2 if tiny else 20

    def setup(self):
        self.schemes = [make_scheme(label) for label in self.labels]
        bench.run_integral_bench(self.n, self.schemes, 2, RngStream(self.seed, "warmup"))

    def run_unit(self, i: int) -> Unit:
        t0 = perf_counter()
        report = bench.run_integral_bench(self.n, self.schemes, self.runs, RngStream(self.seed, stream_id=i))
        wall = perf_counter() - t0
        ops = bad = 0
        for scheme, row in zip(self.schemes, report.rows):
            count = 1 if scheme.kind.deterministic else self.runs
            ops += count
            if not (np.isfinite(row.re_mean_pct) and np.isfinite(row.re_max_pct)):
                bad += count
        return Unit(i, wall, ops=ops, integrals=ops - bad, bad=bad, output=report)

    def quality(self, units) -> dict:
        k = self.labels.index("sif5")
        values = [u.output.rows[k].re_mean_pct for u in units]
        return {
            "re_mean_pct_sif5": (
                float(np.mean(values)) if values else float("nan"),
                "%",
                f"runs={self.runs * len(values)}",
            )
        }


class FilterOnline:
    name = "filter-online-n20"
    label = "sif5"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.steps = 22 if tiny else 50
        self.trace_units = 1 if tiny else 2
        self.pool = 2 if tiny else 16  # trajectories made in set-up; units cycle through them

    def setup(self):
        self.model = bench.GrowthModel(q=2, n=20)
        self.scheme = make_scheme(self.label)
        rng = RngStream(self.seed)
        self.trajectories = [
            bench.simulate_trajectory(self.model, self.steps, rng.substream("trajectory", j))
            for j in range(self.pool)
        ]
        ssm = self.model.state_space()
        warm = filtering.predict_state(self.model.init_belief(), ssm, self.scheme, rng.substream("warmup"))
        filtering.predict_observation(warm, ssm, self.scheme, rng.substream("warmup", 1))

    def filter_rng(self, i: int) -> RngStream:
        return RngStream(self.seed).substream("filter", self.label, i)

    def run_unit(self, i: int) -> Unit:
        t0 = perf_counter()
        # built per unit so that the traced run sees the wrapped model methods
        ssm = self.model.state_space()
        xs, ys = self.trajectories[i % self.pool]
        rng = self.filter_rng(i)
        belief = self.model.init_belief()
        posteriors, step_s = [], []
        failed = 0
        for k in range(ys.shape[0]):
            ts = perf_counter()
            try:
                pred = filtering.predict_state(belief, ssm, self.scheme, rng.substream(k, 0))
                obs = filtering.predict_observation(pred, ssm, self.scheme, rng.substream(k, 1))
                belief = filtering.correct(pred, obs, ys[k])
            except (DivergenceError, IntegrandError):
                failed = 1
                break
            step_s.append(perf_counter() - ts)
            posteriors.append(belief)
        wall = perf_counter() - t0
        steps = len(step_s)
        return Unit(i, wall, ops=steps + failed, integrals=2 * steps, diverged=failed,
                    steps=steps, runs=1, step_s=step_s, output=posteriors)

    def quality(self, units) -> dict:
        sq = []
        for u in units:
            xs, _ = self.trajectories[u.index % self.pool]
            for k, b in enumerate(u.output[STEADY_FROM:], start=STEADY_FROM):
                sq.append(float(((b.mean - xs[k + 1]) ** 2).sum()))
        value = float(np.sqrt(np.mean(sq))) if sq else float("nan")
        return {"rmse_steady_sif5": (value, "state", f"steps={len(sq)}")}


WORKLOADS = {cls.name: cls for cls in (FilterStudy, IntegralStudy, FilterOnline)}
