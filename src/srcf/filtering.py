"""Gaussian-assumed Bayesian filtering driven by an integration scheme.

One recursion covers every filter variant: the prediction and observation
moments are Gaussian expectations evaluated by the selected rule (CKF3/CKF5/
SIF3/SIF5/QSIF5/MC), and the correction step is the standard linear update.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .integrate import (
    GaussianBelief,
    IntegrandError,
    VectorFunction,
    _as_vector_function,
    _evaluate,
    sigma_points,
)
from .linalg import checked_covariance, diagonal_jitter, symmetrize
from .rng import RngStream
from .rules import IntegrationScheme, points_per_draw

__all__ = [
    "StateSpaceModel",
    "PredictedObservation",
    "DivergenceError",
    "predict_state",
    "predict_observation",
    "correct",
    "run_filter",
]


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
    so each coordinate of all points is contiguous, and live in a buffer
    the filter reuses on its next phase: they are valid only during the
    call, so a function that keeps them must keep a copy.  Returning them,
    or any array computed from them in any layout, is fine.
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
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[1] != out_dim:
        raise ValueError(
            f"{name} must map to {out_dim} components, got output shape {vals.shape[1:]}"
        )
    return vals


class _PhaseScratch(threading.local):
    """Grow-only float64 buffers that one thread's filter phases reuse.

    ``with _scratch.pair(rows, cols) as (a, b):`` yields two (rows, cols)
    column-major arrays (each column contiguous), the layout the rule layer
    writes points in and along which the moment reduction runs.  Slot 0
    holds the sigma points of the state prediction and, once the model
    values no longer need them, the weighted copy of the centred values;
    slot 1 holds the centred values (f(x) - mean, or the joint [x, h(x)] of
    the observation prediction, whose first columns are its sigma points,
    centred in place).  Fresh (points, n) arrays on every phase are large
    enough that their pages go back to the system when freed and fault in
    again on the next phase; reused buffers avoid that.  The weighted copy
    reuses the points' slot because a third resident buffer raised the peak
    memory above that of fresh arrays.  The arrays are valid until the
    thread's next phase, so nothing a phase returns may alias one.  A phase
    entered while another phase of the same thread holds the buffers (a
    model function that runs a filter phase itself) gets two fresh arrays
    instead.
    """

    def __init__(self):
        self.busy = False
        self.slots = [np.empty(0), np.empty(0)]

    @contextlib.contextmanager
    def pair(self, rows: int, cols: int):
        if self.busy:
            yield np.empty((rows, cols), order="F"), np.empty((rows, cols), order="F")
            return
        size = rows * cols
        self.slots = [slot if slot.size >= size else np.empty(size) for slot in self.slots]
        self.busy = True
        try:
            yield tuple(slot[:size].reshape((rows, cols), order="F") for slot in self.slots)
        finally:
            self.busy = False


_scratch = _PhaseScratch()


def _centred_moments(
    vals: np.ndarray, w: np.ndarray, dev: np.ndarray, wdev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and centred Gram matrix sum_p w_p (v_p - mean)(v_p - mean)^T.

    With weights summing to one this equals E[v v^T] - mean mean^T, but
    does not cancel two large numbers when the mean dwarfs the spread.  The
    deviations go to ``dev`` (which may be ``vals`` itself) and their
    weighted copy to ``wdev``, which may hold the sigma points that
    ``vals`` was computed from; both have the shape of ``vals``.  With
    column-major arrays every pass runs along one contiguous column.
    """
    mean = w @ vals
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

    ``joint`` is the centred weighted Gram matrix [[Sxx, Pxy], [Pxy^T,
    Pyy - R]] of the stacked points [x, h(x)]: PSD by construction whenever
    the weights are non-negative (the bound that keeps the Kalman gain
    contractive).  Rules with negative weights can break it on violently
    nonlinear observations -- e.g. a cross covariance orders of magnitude
    beyond what the observation variance supports -- and applying the usual
    gain to such an estimate throws the state far from any plausible value.
    A meaningfully indefinite joint therefore marks the whole observation
    estimate as integration noise.  The check runs in a diagonally balanced
    scale because Pyy can dwarf Sxx by tens of orders of magnitude.
    """
    d = np.sqrt(np.maximum(np.abs(np.diag(joint)), np.finfo(np.float64).tiny))
    w = np.linalg.eigvalsh(joint / np.outer(d, d))
    return w.min() >= -1e-8 * max(w.max(), 1.0)


def predict_state(
    prior: GaussianBelief,
    model: StateSpaceModel,
    scheme: IntegrationScheme,
    rng: RngStream,
) -> GaussianBelief:
    """Time update: propagate the belief through the transition function.

    mean = E[f(x)], cov = E[(f(x) - mean)(f(x) - mean)^T] + Q, both taken
    from one evaluation of f on one set of sigma points.
    """
    if prior.dim != model.n:
        raise ValueError(f"prior dimension {prior.dim} != model state dimension {model.n}")
    rows = scheme.n_m * points_per_draw(scheme, model.n)
    # a non-finite value below ends in a DivergenceError or an IntegrandError, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        with _scratch.pair(rows, model.n) as (points, dev):
            x, w = sigma_points(prior, scheme, rng, out=points)
            fx = _model_values(model.f, x, model.n, "transition function")
            mean, cov = _centred_moments(fx, w, dev, points)
        return _belief("state prediction", mean, cov + model.q)


def predict_observation(
    pred: GaussianBelief,
    model: StateSpaceModel,
    scheme: IntegrationScheme,
    rng: RngStream,
) -> PredictedObservation:
    """Observation update moments on a fresh set of rule draws.

    h is evaluated once on the sigma points x, and the centred weighted Gram
    matrix of the stacked points [x, h(x)] gives Sxx, Pxy and Pyy - R at
    once: y_hat = E[h], Pxy = E[(x - x_bar)(h - y_hat)^T] with x_bar the
    drawn mean of x (equal to the predicted mean for polynomial-exact
    rules), Pyy = E[(h - y_hat)(h - y_hat)^T] + R.

    When that joint matrix is meaningfully indefinite -- impossible for a
    true covariance, so a sign the rule's integration noise has swamped the
    observation moments -- the observation is marked uninformative by
    zeroing Pxy alone, and Pyy stays the raw estimate + R.  `correct` then
    returns the prediction: with zero gain when Pyy factors, by its own skip
    when it does not.  Valid estimates pass through bitwise untouched.
    """
    if pred.dim != model.n:
        raise ValueError(f"belief dimension {pred.dim} != model state dimension {model.n}")
    n = model.n
    rows = scheme.n_m * points_per_draw(scheme, n)
    # a non-finite value below ends in a DivergenceError or an IntegrandError, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        with _scratch.pair(rows, n + model.m) as (wdev, xh):
            # the rule layer writes x into the first n columns of [x, h(x)]
            x, w = sigma_points(pred, scheme, rng, out=xh[:, :n])
            xh[:, n:] = _model_values(model.h, x, model.m, "observation function")
            mean, joint = _centred_moments(xh, w, xh, wdev)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(joint))):
            raise DivergenceError("observation prediction produced non-finite moments")
        pxy = joint[:n, n:] if _observation_estimate_usable(joint) else np.zeros((n, model.m))
        return PredictedObservation(y_hat=mean[n:], pxy=pxy, pyy=joint[n:, n:] + model.r)


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
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains NaN or Inf entries")
    if pxy.shape != (pred.dim, m):
        raise ValueError(f"pxy must have shape ({pred.dim}, {m}), got shape {pxy.shape}")
    if not all(np.all(np.isfinite(a)) for a in (y_hat, pxy, obs.pyy)):
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
            return _belief("correction", pred.mean.copy(), pred.cov)
        # Pyy K^T = Pxy^T as two solves on the lower factor: L z = Pxy^T, L^T K^T = z
        gain = np.linalg.solve(factor.T, np.linalg.solve(factor, pxy.T)).T
        if not np.all(np.isfinite(gain)):
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
    """
    observations = np.asarray(observations, dtype=np.float64)
    if observations.ndim == 1:
        observations = observations[:, None]
    if observations.shape[0] == 0:
        raise ValueError("observation sequence must be nonempty")
    posteriors: list[GaussianBelief] = []
    belief = init
    for k in range(observations.shape[0]):
        try:
            pred = predict_state(belief, model, scheme, rng.substream(k, 0))
            obs = predict_observation(pred, model, scheme, rng.substream(k, 1))
            belief = correct(pred, obs, observations[k])
        except DivergenceError as err:
            if err.step is None:
                raise DivergenceError(str(err), step=k) from err
            raise
        except IntegrandError as err:
            raise DivergenceError(f"integrand failure: {err}", step=k) from err
        posteriors.append(belief)
    return posteriors
