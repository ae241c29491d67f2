"""Benchmarks: a nonlinear integral accuracy study and a filtering RMSE study.

The integral benchmark estimates E[sum_i x_i^i] under N(0, I_n), whose true
value is a sum of double factorials, and reports per-scheme relative errors
over many independent runs.  The filtering benchmark runs every scheme's
filter over a common set of simulated trajectories of a tunable-nonlinearity
growth model and reports per-step RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtering import DivergenceError, StateSpaceModel, run_filter
from .integrate import GaussianBelief, VectorFunction, expect
from .rng import RngStream
from .rules import IntegrationScheme, points_per_draw, reported_eval_count

__all__ = [
    "GrowthModel",
    "TrajectoryOverflowError",
    "IntegralBenchRow",
    "IntegralBenchReport",
    "RmseSeries",
    "true_integral_sum_powers",
    "g_sum_powers",
    "run_integral_bench",
    "simulate_trajectory",
    "run_filter_bench",
    "REFERENCE_MEAN_RE_PCT",
    "SCHEME_VARIANT_NOTES",
]

# Previously reported mean relative errors (percent) for this integrand at
# n = 6.  Deterministic rows depend on rule-variant and orientation choices,
# so the report flags deviations instead of asserting equality.
REFERENCE_MEAN_RE_PCT = {
    "ckf3": 104.0521,
    "ckf5": 57.89,
    "sif3": 13.92,
    "sif5": 6.43,
    "qsif5": 15.89,
    "mc": 18.33,
}

# Which variant of each rule this package implements (recorded in report
# metadata because some of these families exist in several flavors).
SCHEME_VARIANT_NOTES = {
    "ckf3": "2n axis points at radius sqrt(n)",
    "ckf5": "simplex surface rule, identity rotation, radial nodes {0, sqrt(n+2)}",
    "sif3": "chi-distributed radius with Haar-random axes",
    "sif5": "chi/beta radius pair with Haar-random rotation of the simplex rule",
    "qsif5": "deterministic radial nodes {0, sqrt(n+2)} with a fresh Haar rotation per repetition",
    "mc": "i.i.d. standard-normal sampling",
}

# Points evaluated per lockstep batch of integral-study runs: large enough to
# amortize the per-call overhead, small enough to keep the study's memory flat.
_BATCH_POINTS = 4096
_OVERFLOW_LIMIT = 1e280
_MAX_TRAJECTORY_RESAMPLES = 10


class TrajectoryOverflowError(RuntimeError):
    """The growth model's observations overflow on every resampled trajectory."""


def true_integral_sum_powers(n: int) -> float:
    """Exact value of E[sum_{i=1}^n x_i^i] for x ~ N(0, I_n).

    Odd-power terms vanish; each even power p contributes (p-1)!!.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    total = 0
    for p in range(2, n + 1, 2):
        df = 1
        for k in range(p - 1, 1, -2):
            df *= k
        total += df
    return float(total)


def g_sum_powers(x: np.ndarray) -> np.ndarray | float:
    """sum_i x_i^i with 1-based powers, over the last axis.

    Accepts a single (n,) vector or a (..., n) stack.  The powers are a
    running product over the coordinates, laid out one coordinate per row:
    several times faster than a float ``pow``, at up to i - 1 roundings in
    x_i^i instead of one.
    """
    coords = np.moveaxis(np.asarray(x, dtype=np.float64), -1, 0)
    powers = np.array(coords, order="C")
    for k in range(1, coords.shape[0]):
        powers[k:] *= coords[k:]
    vals = powers.sum(axis=0)
    return float(vals) if vals.ndim == 0 else vals


@dataclass(frozen=True)
class IntegralBenchRow:
    scheme: str
    re_max_pct: float
    re_mean_pct: float
    n_m: int
    points: int


@dataclass(frozen=True)
class IntegralBenchReport:
    rows: list[IntegralBenchRow]
    meta: dict


def run_integral_bench(
    n: int,
    schemes: list[IntegrationScheme],
    runs: int,
    rng: RngStream,
) -> IntegralBenchReport:
    """Relative-error study of E[sum_i x_i^i] under N(0, I_n) per scheme.

    Stochastic schemes are evaluated ``runs`` times on independent
    substreams; deterministic schemes once (their max and mean coincide).
    The runs go through `expect` in lockstep batches of at most
    ``_BATCH_POINTS`` points; each run still draws from its own substream
    (label, r), so every estimate equals that of a lone `expect` call.
    Relative errors are reported in percent of the exact value, which must
    be nonzero (n >= 2).
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    truth = true_integral_sum_powers(n)
    if truth == 0.0:
        raise ValueError(f"the true value is 0 at n={n}, so relative errors are undefined")
    belief = GaussianBelief(mean=np.zeros(n), cov=np.eye(n))
    integrand = VectorFunction(g_sum_powers, vectorized=True)

    rows = []
    deterministic_values = {}
    for scheme in schemes:
        label = scheme.label
        n_runs = 1 if scheme.kind.deterministic else runs
        batch = max(1, _BATCH_POINTS // (scheme.n_m * points_per_draw(scheme, n)))
        estimates = np.concatenate([
            expect(integrand, belief, scheme,
                   [rng.substream(label, r) for r in range(start, min(start + batch, n_runs))])
            for start in range(0, n_runs, batch)
        ])
        rel_err = np.abs(truth - estimates) / abs(truth) * 100.0
        if scheme.kind.deterministic:
            deterministic_values[label] = float(estimates[0])
        rows.append(
            IntegralBenchRow(
                scheme=label,
                re_max_pct=float(rel_err.max()),
                re_mean_pct=float(rel_err.mean()),
                n_m=scheme.n_m,
                points=reported_eval_count(scheme, n),
            )
        )

    meta = {
        "n": n,
        "runs": runs,
        "seed": rng.seed,
        "true_value": truth,
        "scheme_variants": {s.label: SCHEME_VARIANT_NOTES[s.label] for s in schemes},
        "evaluated_points": {s.label: s.n_m * points_per_draw(s, n) for s in schemes},
        "deterministic_estimates": deterministic_values,
        "reference_re_mean_pct": {
            s.label: REFERENCE_MEAN_RE_PCT[s.label]
            for s in schemes
            if s.label in REFERENCE_MEAN_RE_PCT
        },
    }
    # Deterministic rows are sensitive to rule-variant choices; flag rather
    # than assert when our computed value disagrees with the reference.
    flags = {}
    for scheme, row in zip(schemes, rows):
        ref = REFERENCE_MEAN_RE_PCT.get(row.scheme)
        if ref is not None and scheme.kind.deterministic:
            flags[row.scheme] = bool(abs(row.re_mean_pct - ref) > 0.01 * max(1.0, ref))
    meta["deterministic_re_deviates_from_reference"] = flags
    return IntegralBenchReport(rows=rows, meta=meta)


@dataclass(frozen=True)
class GrowthModel:
    """A mildly unstable linear state with a scalar polynomial observation.

    f(x) = 0.9 x with process noise Q = process_var * I_n; the observation is
    y = ((1 + x^T x)^2)^q + v with Var[v] = obs_var.  The exponent q tunes
    how nonlinear the observation is.  The initial state is
    N(init_mean * 1, init_var * I_n).
    """

    q: int
    n: int
    process_var: float = 100.0
    obs_var: float = 10.0
    init_mean: float = 1.0
    init_var: float = 10.0
    decay: float = field(default=0.9, init=False)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def transition(self, x: np.ndarray) -> np.ndarray:
        return self.decay * np.asarray(x, dtype=np.float64)

    def observe(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # x^T x as a row dot product, without a (points, n) temporary; the
        # powers run on an array even for one state (numpy's scalar power
        # rounds differently), so a state gives what its row of a stack does
        z = (1.0 + np.einsum("...i,...i->...", x, x).reshape(-1)) ** 2
        return (z**self.q).reshape(x.shape[:-1])[()]

    def state_space(self) -> StateSpaceModel:
        return StateSpaceModel(
            f=VectorFunction(self.transition, vectorized=True),
            h=VectorFunction(self.observe, vectorized=True),
            q=self.process_var * np.eye(self.n),
            r=np.array([[self.obs_var]]),
        )

    def init_belief(self) -> GaussianBelief:
        return GaussianBelief(
            mean=np.full(self.n, self.init_mean),
            cov=self.init_var * np.eye(self.n),
        )


def _simulate_with_count(
    model: GrowthModel, steps: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray, int]:
    """One trajectory plus the number of overflow resamples it needed."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    gen = rng.generator
    n = model.n
    q_sd = np.sqrt(model.process_var)
    r_sd = np.sqrt(model.obs_var)
    # an observation that overflows is caught below and its trajectory resampled
    with np.errstate(over="ignore"):
        for attempt in range(_MAX_TRAJECTORY_RESAMPLES + 1):
            x = model.init_mean + np.sqrt(model.init_var) * gen.standard_normal(n)
            xs = np.empty((steps + 1, n))
            ys = np.empty((steps, 1))
            xs[0] = x
            ok = True
            for k in range(1, steps + 1):
                x = model.transition(x) + q_sd * gen.standard_normal(n)
                y = model.observe(x) + r_sd * gen.standard_normal()
                if not np.isfinite(y) or abs(y) > _OVERFLOW_LIMIT:
                    ok = False
                    break
                xs[k] = x
                ys[k - 1, 0] = y
            if ok:
                return xs, ys, attempt
    raise TrajectoryOverflowError(
        f"trajectory observation overflowed {_MAX_TRAJECTORY_RESAMPLES + 1} times; "
        f"the model is numerically unusable at q={model.q}, n={n}"
    )


def simulate_trajectory(
    model: GrowthModel, steps: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one trajectory of the growth model.

    Returns
    -------
    states : (steps + 1, n) array
        x_0 .. x_steps.
    observations : (steps, 1) array
        y_1 .. y_steps.

    Trajectories whose observations exceed the double-precision-safe limit
    are discarded and resampled (at most 10 times); if all of them overflow,
    :class:`TrajectoryOverflowError` is raised.
    """
    xs, ys, _ = _simulate_with_count(model, steps, rng)
    return xs, ys


@dataclass(frozen=True)
class RmseSeries:
    """Per-step filtering RMSE for one scheme, with full rerun metadata.

    ``sq_errors`` keeps the per-run squared error norms behind the RMSE
    curve (completed runs only, row order matching ``meta['included_runs']``)
    so callers can attach Monte-Carlo error bars to comparisons; reports
    serialize only the RMSE values and metadata.
    """

    scheme: str
    values: np.ndarray  # (steps,)
    meta: dict
    sq_errors: np.ndarray | None = None  # (completed runs, steps)


def run_filter_bench(
    model: GrowthModel,
    schemes: list[IntegrationScheme],
    n_mc: int,
    steps: int,
    rng: RngStream,
) -> list[RmseSeries]:
    """Monte-Carlo filtering study: per-step RMSE of each scheme.

    A single trajectory set is simulated once and shared by every scheme
    (common random numbers).  RMSE_k is the root mean square of the full
    state-error norm over the runs that completed; runs where a filter
    diverges are excluded and counted in the series metadata.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    sims = [
        _simulate_with_count(model, steps, rng.substream("trajectory", r)) for r in range(n_mc)
    ]
    trajectories = [(xs, ys) for xs, ys, _ in sims]
    resamples = int(sum(c for _, _, c in sims))
    ssm = model.state_space()
    init = model.init_belief()

    series = []
    for scheme in schemes:
        label = scheme.label
        included, sq_rows, excluded = [], [], 0
        for r, (xs, ys) in enumerate(trajectories):
            try:
                posteriors = run_filter(ssm, scheme, ys, init, rng.substream("filter", label, r))
            except DivergenceError:
                excluded += 1
                continue
            means = np.array([b.mean for b in posteriors])
            included.append(r)
            sq_rows.append(((means - xs[1:]) ** 2).sum(axis=1))
        sq_errors = np.asarray(sq_rows)
        if included:
            rmse = np.sqrt(np.mean(sq_errors, axis=0))
        else:
            sq_errors = np.zeros((0, steps))
            rmse = np.full(steps, np.nan)
        series.append(
            RmseSeries(
                scheme=label,
                values=rmse,
                sq_errors=sq_errors,
                meta={
                    "scheme": label,
                    "variant": SCHEME_VARIANT_NOTES[label],
                    "q": model.q,
                    "n": model.n,
                    "n_mc": n_mc,
                    "n_m": scheme.n_m,
                    "steps": steps,
                    "seed": rng.seed,
                    "points_per_integral": reported_eval_count(scheme, model.n),
                    "evaluated_points_per_integral": scheme.n_m * points_per_draw(scheme, model.n),
                    "excluded_runs": excluded,
                    "included_runs": included,
                    "trajectory_resamples": resamples,
                },
            )
        )
    return series
