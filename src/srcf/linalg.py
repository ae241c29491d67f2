"""Covariance square roots and Haar-random orthogonal matrices."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .rng import RngStream, as_streams, standard_normal_stack

__all__ = ["spd_sqrt", "haar_orthogonal_batch", "symmetrize"]


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (A + A^T) / 2."""
    return 0.5 * (a + a.T)


def _check_square(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {p.shape}")
    if p.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return p


def spd_sqrt(p: np.ndarray) -> np.ndarray:
    """Square-root factor L with L @ L.T == P for a symmetric PSD matrix.

    Tries a Cholesky factorization first (lower triangular).  If that fails
    (filtering covariances routinely drift slightly indefinite), falls back to
    a symmetric eigendecomposition with negative eigenvalues clamped to zero,
    after adding a one-shot jitter of 1e-9 * trace(P)/n to the diagonal.

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
    p = _check_square(p, "P")
    sym_err = np.abs(p - p.T).max()
    if sym_err > 1e-8 * max(1.0, np.abs(p).max()):
        raise ValueError(f"P is not symmetric (max asymmetry {sym_err:.3e})")
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        pass
    n = p.shape[0]
    jitter = max(1e-9 * np.trace(p) / n, np.finfo(np.float64).tiny)
    ps = symmetrize(p) + jitter * np.eye(n)
    w, v = np.linalg.eigh(ps)
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
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if size < 1:
        raise ValueError("size must be >= 1")
    x = standard_normal_stack(as_streams(rng), size, (n, n))
    q, r = np.linalg.qr(x)
    d = np.einsum("...ii->...i", r)
    ph = np.sign(d) + (d == 0)  # zero diagonal has probability zero
    return q * ph[:, None, :]
