"""Gaussian-weighted expectations E[s(x)] for x ~ N(mean, cov).

The integral is pulled back to standard-normal coordinates through the
affine transform x = mean + L c with L a square root of cov, evaluated on a
rule draw from :mod:`srcf.rules` (which writes its points in state space
directly), and averaged over the scheme's repetition count.  `sigma_points`
returns those points with the repetition average folded into one weight
vector; every estimate is a weighted sum over them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import checked_covariance, spd_sqrt
from .rng import RngStream
from .rules import IntegrationScheme, draw_rule_batch

__all__ = [
    "GaussianBelief",
    "VectorFunction",
    "IntegrandError",
    "sigma_points",
    "expect",
]


class IntegrandError(ValueError):
    """An integrand returned NaN/Inf; carries the offending evaluation point."""

    def __init__(self, message: str, point: np.ndarray | None = None, index: int | None = None):
        super().__init__(message)
        self.point = point
        self.index = index


@dataclass
class GaussianBelief:
    """A Gaussian state density N(mean, cov).

    The belief owns copies of its mean and covariance, taken on
    construction.  The covariance must pass `checked_covariance` and is
    symmetrized; it may be indefinite by a numerical margin (conditioning
    happens when a square root is taken).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.array(self.mean, dtype=np.float64))
        if self.mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {self.mean.shape}")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean contains NaN or Inf entries")
        self.cov = checked_covariance(self.cov, "cov", self.mean.shape[0])

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class VectorFunction:
    """A function of the state with constant output shape.

    ``fn`` maps one (n,) vector to a scalar, vector, or matrix.  With
    ``vectorized=True`` it must instead accept a (P, n) stack of points and
    return the (P, ...) stack of outputs; this is the fast path.
    """

    fn: Callable
    vectorized: bool = False


def _as_vector_function(f) -> VectorFunction:
    return f if isinstance(f, VectorFunction) else VectorFunction(f)


def _evaluate(f: VectorFunction, x: np.ndarray) -> np.ndarray:
    """Evaluate f on a (P, n) point stack, returning (P, ...) float output.

    The values are not scanned for finiteness here: every estimate is a
    weighted sum of them, which is non-finite whenever one of them is (a
    zero weight still gives 0 * inf = NaN), so `_check_integrand` runs on
    that sum and scans the values only when it is not finite.
    """
    if f.vectorized:
        vals = np.asarray(f.fn(x), dtype=np.float64)
        if vals.shape[:1] != x.shape[:1]:
            raise ValueError(
                f"vectorized integrand returned leading shape {vals.shape}, "
                f"expected first axis {x.shape[0]}"
            )
        return vals
    return np.stack([np.asarray(f.fn(p), dtype=np.float64) for p in x])


def _check_integrand(est: np.ndarray, vals: np.ndarray, x: np.ndarray) -> None:
    """Trace a non-finite weighted sum ``est`` of ``vals`` to the integrand.

    ``vals`` holds the integrand's values at the points ``x``, one row per
    point.  If ``est`` is finite, so is every value.  Otherwise the values
    are scanned, and the first point with a non-finite value raises an
    `IntegrandError` that carries its index and a copy of the point; finite
    values whose sum overflowed raise nothing, and the caller decides.
    """
    if np.all(np.isfinite(est)):
        return
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = int(np.argwhere(bad.reshape(vals.shape[0], -1).any(axis=1))[0, 0])
        raise IntegrandError(
            f"integrand returned non-finite output at point index {idx}, x={x[idx]}",
            point=x[idx].copy(),
            index=idx,
        )


def _draw(
    belief: GaussianBelief,
    scheme: IntegrationScheme,
    rng: RngStream | Sequence[RngStream],
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`sigma_points` plus the root L of the covariance the points were drawn under.

    x is written into ``out`` when given, as `draw_rule_batch` writes it.
    """
    n = belief.dim
    root = spd_sqrt(belief.cov)
    points, weights = draw_rule_batch(
        scheme, n, scheme.n_m, rng, mean=belief.mean, root=root, out=out
    )
    w = weights.reshape(-1, scheme.n_m * weights.shape[1]) / scheme.n_m
    return points.reshape(-1, n), (w[0] if isinstance(rng, RngStream) else w), root


def sigma_points(
    belief: GaussianBelief,
    scheme: IntegrationScheme,
    rng: RngStream | Sequence[RngStream],
) -> tuple[np.ndarray, np.ndarray]:
    """The state-space points and weights of one integral under the belief.

    Takes one square root L of the covariance and one batch of
    ``scheme.n_m`` rule draws, which the rule layer writes directly as the
    points x = mean + L c of every draw (L acting on each draw's directions,
    not on its points), stacked; the repetition average is folded into the
    weights.

    ``rng`` is one stream or a sequence of S streams.  A sequence gives S
    independent integrals in lockstep: one square root and one rule draw
    over all streams, with the points of stream s in block s of x and its
    weights in row s of w.  Each block equals what that stream alone gives,
    bit for bit.

    Returns
    -------
    x : (n_m * P, n) array, or (S * n_m * P, n) for a sequence
        A fresh column-major array: each coordinate of all points is
        contiguous.
    w : (n_m * P,) array, or (S, n_m * P) for a sequence
        Each row sums to one, so E[f(x)] is estimated by ``w @ f(x)``.
    """
    x, w, _ = _draw(belief, scheme, rng)
    return x, w


def expect(
    s,
    belief: GaussianBelief,
    scheme: IntegrationScheme,
    rng: RngStream | Sequence[RngStream],
) -> np.ndarray:
    """Estimate E[s(x)] under the belief as ``w @ s(x)`` over `sigma_points`.

    With a sequence of S streams, s is evaluated once on the points of every
    stream and the S estimates, one per stream, are returned.

    A non-finite value of s raises an `IntegrandError` naming its point;
    finite values whose weighted sum overflows give an infinite estimate.

    Returns
    -------
    array with the output shape of s, or (S, *output shape) for a sequence.
    """
    x, w = sigma_points(belief, scheme, rng)
    vals = _evaluate(_as_vector_function(s), x)
    rows = w.reshape(-1, w.shape[-1])
    blocks = vals.reshape(rows.shape + (-1,))
    # one weighted sum per stream, each the same product a lone stream takes; a
    # non-finite value (0 * inf, say) ends in the IntegrandError below, not a numpy warning
    with np.errstate(invalid="ignore"):
        est = np.stack([row @ block for row, block in zip(rows, blocks)])
    _check_integrand(est, vals, x)
    return est.reshape(w.shape[:-1] + vals.shape[1:])
