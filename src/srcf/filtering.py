"""Gaussian-assumed Bayesian filtering driven by an integration scheme.

One recursion covers every filter variant: the prediction and observation
moments are Gaussian expectations evaluated by the selected rule (CKF3/CKF5/
SIF3/SIF5/QSIF5/MC), and the correction step is the standard linear update.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .integrate import (
    GaussianBelief,
    IntegrandError,
    VectorFunction,
    _as_vector_function,
    _check_integrand,
    _draw,
    _evaluate,
)
from .linalg import checked_covariance, diagonal_jitter, symmetrize
from .rng import RngStream
from .rules import IntegrationScheme, RuleDraw, _sampled_doubles, points_per_draw, sample_rule

__all__ = [
    "StateSpaceModel",
    "PredictedObservation",
    "DivergenceError",
    "predict_state",
    "predict_observation",
    "correct",
    "run_filter",
]

# The float64 values of sampled rule variates that `run_filter` holds at
# once: it samples the draws of as many steps ahead as fit, at least one.
# A whole run at once is barely faster and holds every step's rotations.
_BLOCK_DOUBLES = 16384


class DivergenceError(RuntimeError):
    """The filter lost a usable Gaussian belief (singular/non-finite moments)."""

    def __init__(self, message: str, step: int | None = None):
        if step is not None:
            message = f"filter diverged at step {step}: {message}"
        super().__init__(message)
        self.step = step


@dataclass
class StateSpaceModel:
    """Discrete-time model x_k = f(x_{k-1}) + w_k, y_k = h(x_k) + v_k.

    ``f`` and ``h`` may be plain callables of one state vector or
    :class:`VectorFunction` instances (use ``vectorized=True`` for functions
    that accept (P, n) stacks; that is the fast path).  ``w ~ N(0, q)`` and
    ``v ~ N(0, r)``: the state dimension n and the observation dimension m
    are read from q (n, n) and r (m, m) (a 0-d scalar counts as 1 x 1),
    both of which pass `checked_covariance` and are symmetrized on
    construction.

    The points passed to ``f`` and ``h`` (the (P, n) stack of a vectorized
    function, or each (n,) row of it for a plain callable) are column-major,
    so each coordinate of all points is contiguous.  The state prediction
    writes its weighted copy of f(x) - mean over them once ``f`` returns, so
    an ``f`` that keeps them must keep a copy; the observation prediction
    leaves the points ``h`` received as they were.  Returning them, or any
    array computed from them in any layout, is fine.
    """

    f: Callable | VectorFunction
    h: Callable | VectorFunction
    q: np.ndarray
    r: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        self.f = _as_vector_function(self.f)
        self.h = _as_vector_function(self.h)
        self.q = checked_covariance(self.q, "q", 1 if np.ndim(self.q) == 0 else None)
        self.r = checked_covariance(self.r, "r", 1 if np.ndim(self.r) == 0 else None)
        self.n, self.m = self.q.shape[0], self.r.shape[0]


@dataclass
class PredictedObservation:
    """Predicted observation moments; a plain record that `correct` checks against its belief."""

    y_hat: np.ndarray  # (m,)
    pxy: np.ndarray  # (n, m)
    pyy: np.ndarray  # (m, m), symmetric; the raw estimate + r, also where pxy is zeroed


def _model_values(fn: VectorFunction, x: np.ndarray, out_dim: int, name: str) -> np.ndarray:
    """Evaluate a model function on a (P, n) point stack, normalized to (P, out_dim)."""
    vals = _evaluate(fn, x)
    shape = vals.shape[1:]
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[1] != out_dim:
        raise ValueError(f"{name} must map to {out_dim} components, got output shape {shape}")
    return vals


@contextlib.contextmanager
def _phase(
    belief: GaussianBelief,
    model: StateSpaceModel,
    scheme: IntegrationScheme,
    rng: RngStream | RuleDraw,
    role: str,
    cols: int,
):
    """The frame of a prediction phase: yields (buffer, x, w, L) for one `_draw` under ``belief``.

    ``role`` names the belief in the dimension check's message.  The buffer
    is the phase's own column-major (P, cols) array, which the phase splits
    into column blocks; the points x are its first n columns.  The body runs
    under ``np.errstate(over="ignore", invalid="ignore")``: a non-finite
    value ends in a `DivergenceError` or an `IntegrandError`, not a numpy
    warning.
    """
    if belief.dim != model.n:
        raise ValueError(f"{role} dimension {belief.dim} != model state dimension {model.n}")
    buf = np.empty((scheme.n_m * points_per_draw(scheme, model.n), cols), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        yield (buf, *_draw(belief, scheme, rng, out=buf[:, : model.n]))


def _centred_moments(
    vals: np.ndarray, x: np.ndarray, w: np.ndarray, dev: np.ndarray, wdev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean of the columns of ``vals`` and their symmetrized centred Gram matrix.

    ``vals`` holds the integrand's values at the points ``x``, one row per
    point: a non-finite mean is traced to its point by `_check_integrand`
    before anything is written.  The deviations v_p - mean go to ``dev`` and
    their weighted copy w_p (v_p - mean) to ``wdev``, both of the shape of
    ``vals``; the Gram matrix is sum_p w_p (v_p - mean)(v_p - mean)^T.  With
    weights summing to one this equals E[v v^T] - mean mean^T, but does not
    cancel two large numbers when the mean dwarfs the spread.  With
    column-major arrays every pass runs along one contiguous column.
    """
    mean = w @ vals
    _check_integrand(mean, vals, x)
    np.subtract(vals, mean, out=dev)
    np.multiply(dev, w[:, None], out=wdev)
    return mean, symmetrize(wdev.T @ dev)


def _belief(step: str, mean: np.ndarray, cov: np.ndarray) -> GaussianBelief:
    """A phase's output belief; one the belief's own check rejects is a divergence."""
    try:
        return GaussianBelief(mean=mean, cov=cov)
    except ValueError as err:
        raise DivergenceError(f"{step} produced an unusable belief: {err}") from err


def _observation_estimate_usable(joint: np.ndarray) -> bool:
    """Decide whether the joint (state, observation) moment estimate is real.

    ``joint`` is [[L L^T, Pxy], [Pxy^T, Pyy - R]], with L the square root
    the points were drawn under and Pxy, Pyy - R the weighted centred
    estimates.  The drawn [x, h(x)] Gram matrix, whose state block every
    rule that is exact at degree 2 reproduces as L L^T up to rounding, is
    PSD by construction whenever the weights are non-negative (the bound
    that keeps the Kalman gain contractive), so the phase calls this check
    only for a draw with a negative weight.  Rules with negative weights can
    break it on violently nonlinear observations -- e.g. a cross covariance
    orders of magnitude beyond what the observation variance supports --
    and applying the usual gain to such an estimate throws the state far
    from any plausible value.  A meaningfully indefinite joint therefore
    marks the whole observation estimate as integration noise.  The check
    runs in a diagonally balanced scale because Pyy can dwarf L L^T by tens
    of orders of magnitude.
    """
    d = np.sqrt(np.maximum(np.abs(np.diag(joint)), np.finfo(np.float64).tiny))
    w = np.linalg.eigvalsh(joint / np.outer(d, d))
    return w.min() >= -1e-8 * max(w.max(), 1.0)


def predict_state(
    prior: GaussianBelief,
    model: StateSpaceModel,
    scheme: IntegrationScheme,
    rng: RngStream | RuleDraw,
) -> GaussianBelief:
    """Time update: propagate the belief through the transition function.

    mean = E[f(x)], cov = E[(f(x) - mean)(f(x) - mean)^T] + Q, both taken
    from one evaluation of f on one set of sigma points.  ``rng`` is the
    phase's stream, or the `RuleDraw` of ``scheme.n_m`` draws that
    `sample_rule` sampled from it ahead, which gives the same belief bit for
    bit.
    """
    n = model.n
    # buffer: [points | f(x) - mean], the weighted copy written over the points
    with _phase(prior, model, scheme, rng, "prior", 2 * n) as (buf, x, w, _):
        fx = _model_values(model.f, x, n, "transition function")
        mean, cov = _centred_moments(fx, x, w, buf[:, n:], buf[:, :n])
        return _belief("state prediction", mean, cov + model.q)


def predict_observation(
    pred: GaussianBelief,
    model: StateSpaceModel,
    scheme: IntegrationScheme,
    rng: RngStream | RuleDraw,
) -> PredictedObservation:
    """Observation update moments on a fresh set of rule draws.

    ``rng`` is the phase's stream, or its `RuleDraw` sampled ahead, as for
    `predict_state`.

    h is evaluated once on the sigma points x, and only its m value
    columns are centred: `_centred_moments` gives y_hat = E[h] and Pyy - R
    = E[(h - y_hat)(h - y_hat)^T] together with the weighted deviations
    wdev_p = w_p (h_p - y_hat).  Because sum_p wdev_p = 0, Pxy = E[(x -
    mu)(h - y_hat)^T] = x^T wdev - mu (sum_p wdev_p)^T, with mu the
    predicted mean: the second term removes mu times the rounding residue
    of that sum, and the points are read, never written.  Its rounding
    grows with |mu| over the spread, as that of the points x = mu + L c
    themselves does.  That is O(P n m) work for Pxy and O(P m^2) for Pyy,
    against O(P (n + m)^2) for the whole (n + m) x (n + m) Gram matrix,
    whose state block no output needs.

    For a draw with a negative weight, the joint [[L L^T, Pxy], [Pxy^T, Pyy
    - R]] is checked by `_observation_estimate_usable`, L being the square
    root the points were drawn under.  When it is meaningfully indefinite --
    impossible for a true covariance, so a sign the rule's integration noise
    has swamped the observation moments -- the observation is marked
    uninformative by zeroing Pxy alone, and Pyy stays the raw estimate + R.
    `correct` then returns the prediction: with zero gain when Pyy factors,
    by its own skip when it does not.  Valid estimates pass through bitwise
    untouched.
    """
    n, m = model.n, model.m
    with _phase(pred, model, scheme, rng, "belief", n + 2 * m) as (buf, x, w, root):
        # buffer: [x | h(x) - y_hat | weighted copy of h(x) - y_hat]
        hx = _model_values(model.h, x, m, "observation function")
        dev, wdev = buf[:, n : n + m], buf[:, n + m :]
        y_hat, pyy = _centred_moments(hx, x, w, dev, wdev)
        pxy = x.T @ wdev - pred.mean[:, None] * wdev.sum(axis=0)
        if not (np.isfinite(pxy).all() and np.isfinite(pyy).all()):
            raise DivergenceError("observation prediction produced non-finite moments")
        if np.any(w < 0):
            joint = np.empty((n + m, n + m))
            joint[:n, :n] = root @ root.T
            joint[:n, n:] = pxy
            joint[n:, :n] = pxy.T
            joint[n:, n:] = pyy
            if not _observation_estimate_usable(joint):
                pxy = np.zeros((n, m))
        return PredictedObservation(y_hat=y_hat, pxy=pxy, pyy=pyy + model.r)


def correct(
    pred: GaussianBelief,
    obs: PredictedObservation,
    y: np.ndarray,
) -> GaussianBelief:
    """Measurement update via the innovation y - y_hat.

    The one place that accepts the update's inputs: y and y_hat of shape
    (m,), y finite and Pxy of shape (pred.dim, m), else a `ValueError`
    names the input; non-finite moments are a divergence; Pyy must pass
    `checked_covariance`, and its symmetric part is used.  The gain solves
    against a Cholesky factorization of Pyy (never an explicit inverse),
    retried once with `diagonal_jitter` added on failure.  If Pyy is
    indefinite even after the jitter, the estimate has been swamped by
    integration noise (possible for negative-weight rules, i.e. the
    fifth-degree family at n > 7, on violently nonlinear observations: a
    true innovation covariance always dominates the noise floor R).  Such
    an observation carries no usable information, so the update degrades
    to zero gain and the prediction is returned unchanged.
    Pure and deterministic: no randomness enters the correction step.
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(obs.y_hat, dtype=np.float64)
    pxy = np.asarray(obs.pxy, dtype=np.float64)
    m = y_hat.size
    if not y.shape == y_hat.shape == (m,):
        raise ValueError(f"observation {y.shape} and y_hat {y_hat.shape} must have shape ({m},)")
    if not np.isfinite(y).all():
        raise ValueError("observation contains NaN or Inf entries")
    if pxy.shape != (pred.dim, m):
        raise ValueError(f"pxy must have shape ({pred.dim}, {m}), got shape {pxy.shape}")
    if not all(np.isfinite(a).all() for a in (y_hat, pxy, obs.pyy)):
        raise DivergenceError("observation moments are not finite")
    # an overflow below ends in a DivergenceError or the Pyy guard's ValueError, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        pyy = checked_covariance(obs.pyy, "pyy", m)
        factor = None
        try:
            factor = np.linalg.cholesky(pyy)
        except np.linalg.LinAlgError:
            try:
                factor = np.linalg.cholesky(pyy + diagonal_jitter(pyy) * np.eye(m))
            except np.linalg.LinAlgError:
                pass
        if factor is None:
            # indefinite innovation covariance: skip the measurement
            return _belief("correction", pred.mean, pred.cov)
        # Pyy K^T = Pxy^T as two solves on the lower factor: L z = Pxy^T, L^T K^T = z
        gain = np.linalg.solve(factor.T, np.linalg.solve(factor, pxy.T)).T
        if not np.isfinite(gain).all():
            raise DivergenceError("gain solve produced non-finite values")
        mean = pred.mean + gain @ (y - y_hat)
        # symmetrized here: the difference can cancel, and the belief's tolerance is relative to it
        return _belief("correction", mean, symmetrize(pred.cov - gain @ pxy.T))


def run_filter(
    model: StateSpaceModel,
    scheme: IntegrationScheme,
    observations: Sequence[np.ndarray] | np.ndarray,
    init: GaussianBelief,
    rng: RngStream,
) -> list[GaussianBelief]:
    """Run the full predict/observe/correct recursion over an observation sequence.

    Returns the posterior belief after each step.  Deterministic given
    (model, scheme, observations, stream): step k draws from substreams
    (k, 0) and (k, 1) for the two prediction phases.  A divergence aborts the
    run with the failing step index; earlier posteriors are not returned.

    The rule variates of a block of steps, all that `sample_rule` draws from
    their substreams (radii, rotations, mc's normals), are sampled in one
    call before the block runs, and each phase places its share under its
    belief.  A block holds at most `_BLOCK_DOUBLES` sampled values, and at
    least one step.  ckf3 and ckf5 sample nothing, so they derive no
    substream.  Each stream's variates are those its phase would draw
    itself, so the posteriors equal stepping `predict_state`,
    `predict_observation` and `correct` with the substreams bit for bit.
    """
    observations = np.asarray(observations, dtype=np.float64)
    if observations.ndim == 1:
        observations = observations[:, None]
    if observations.shape[0] == 0:
        raise ValueError("observation sequence must be nonempty")
    steps, n, n_m = observations.shape[0], model.n, scheme.n_m
    block = _block_steps(scheme, n)
    posteriors: list[GaussianBelief] = []
    belief = init
    for k in range(steps):
        if k % block == 0:
            ahead = range(k, min(k + block, steps))
            if _sampled_doubles(scheme, n):
                draws = sample_rule(scheme, n, n_m, [rng.substream(i, j) for i in ahead for j in (0, 1)])
            else:
                draws = RuleDraw(scheme.kind, n, 2 * n_m * len(ahead))
        first = 2 * n_m * (k % block)
        try:
            pred = predict_state(belief, model, scheme, draws.draws(first, first + n_m))
            obs = predict_observation(pred, model, scheme, draws.draws(first + n_m, first + 2 * n_m))
            belief = correct(pred, obs, observations[k])
        except DivergenceError as err:
            if err.step is None:
                raise DivergenceError(str(err), step=k) from err
            raise
        except IntegrandError as err:
            raise DivergenceError(f"integrand failure: {err}", step=k) from err
        posteriors.append(belief)
    return posteriors


def _block_steps(scheme: IntegrationScheme, n: int) -> int:
    """The steps whose rule variates `run_filter` samples in one call."""
    per_step = 2 * scheme.n_m * max(_sampled_doubles(scheme, n), 1)
    return max(_BLOCK_DOUBLES // per_step, 1)
