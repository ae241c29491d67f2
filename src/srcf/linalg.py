"""Covariance acceptance, diagonal jitter and square roots; Haar-random orthogonal matrices."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .rng import RngStream, _integer, as_streams, standard_normal_stack

__all__ = ["spd_sqrt", "haar_orthogonal_batch", "symmetrize", "checked_covariance", "diagonal_jitter"]


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (A + A^T) / 2, finite for every finite A.

    Halving each term before the sum keeps entries near the largest float
    from overflowing; above the subnormal range the halving is exact, so
    this rounds as 0.5 * (A + A^T) would.
    """
    return 0.5 * a + 0.5 * a.T


def checked_covariance(a, name: str, dim: int | None = None) -> np.ndarray:
    """Apply the one acceptance rule for a covariance matrix; return its symmetric part.

    ``a`` must be a non-empty square matrix, of shape (dim, dim) when ``dim``
    is given (a 0-d scalar then counts as 1 x 1), finite, and symmetric to
    within a tolerance relative to its largest entry.
    """
    a = np.asarray(a, dtype=np.float64)
    if dim is not None and a.ndim == 0:
        a = a.reshape(1, 1)
    if not (a.ndim == 2 and a.shape[0] == a.shape[1] >= 1) or dim not in (None, a.shape[0]):
        expected = f"have shape ({dim}, {dim})" if dim else "be a non-empty square matrix"
        raise ValueError(f"{name} must {expected}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    # symmetrize(a) is the sum of the halves; their difference cannot overflow
    # and is antisymmetric, so its largest entry is half the largest |a - a^T|
    # (a Python float, so doubling near the largest float gives inf, no warning)
    half = 0.5 * a
    asym = 2.0 * float((half - half.T).max())
    if asym > 1e-8 and asym > 1e-8 * np.abs(a).max():
        raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    return half + half.T


def diagonal_jitter(a: np.ndarray) -> float:
    """Diagonal jitter for a matrix that fails to factor: |trace| / n scaled, never zero."""
    return max(1e-9 * abs(np.trace(a)) / a.shape[0], np.finfo(np.float64).tiny)


def spd_sqrt(p: np.ndarray) -> np.ndarray:
    """Square-root factor L with L @ L.T == P for a symmetric PSD matrix.

    P must pass `checked_covariance`, and its symmetric part is factored.
    Tries a Cholesky factorization first (lower triangular).  If that fails
    (filtering covariances routinely drift slightly indefinite), falls back to
    a symmetric eigendecomposition with negative eigenvalues clamped to zero,
    after adding `diagonal_jitter` to the diagonal once.

    Parameters
    ----------
    p : (n, n) array
        Symmetric positive semidefinite matrix.

    Returns
    -------
    (n, n) array
        Factor L such that ``L @ L.T`` reproduces P (up to the clamping
        applied in the fallback path).  Lower triangular when the Cholesky
        path succeeds.
    """
    p = checked_covariance(p, "P")
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(p + diagonal_jitter(p) * np.eye(p.shape[0]))
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def haar_orthogonal_batch(n: int, size: int, rng: RngStream | Sequence[RngStream]) -> np.ndarray:
    """Draw ``size`` independent Haar-uniform orthogonal matrices per stream.

    Takes the Q factor of the QR decomposition of an n x n standard-normal
    matrix and multiplies each column by the sign of the matching diagonal
    entry of R.  The sign fix makes the factorization unique, which is what
    turns "some orthogonal Q" into a draw from the Haar measure.

    ``rng`` is one stream or a sequence of streams; each stream supplies
    ``size`` matrices, stacked in stream order, and one QR runs over the
    whole stack.

    Returns
    -------
    (len(streams) * size, n, n) array
    """
    if _integer("n", n) < 1:
        raise ValueError("dimension must be >= 1")
    if _integer("size", size) < 1:
        raise ValueError("size must be >= 1")
    x = standard_normal_stack(as_streams(rng), size, (n, n))
    q, r = np.linalg.qr(x)
    d = np.einsum("...ii->...i", r)
    ph = np.sign(d) + (d == 0)  # zero diagonal has probability zero
    return q * ph[:, None, :]
