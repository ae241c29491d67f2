"""Independent oracles the test suite checks the library against.

Everything here is deliberately brute force and self-contained: a rejection
sampler for the fifth-degree radial-pair density, a textbook Kalman filter,
Gaussian monomial moments from double factorials, quadrature for normal
power moments, and the full joint moment matrix of an observation update
with its usability check.  None of it shares code with the package under test.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad


def radial_pair_log_density(r1, r2, n: int):
    """Unnormalized log target: (r1 r2)^(n+1) e^{-(r1^2+r2^2)/2} (r2-r1)^2 (r2+r1)."""
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return (
            (n + 1) * (np.log(r1) + np.log(r2))
            - 0.5 * (r1 * r1 + r2 * r2)
            + 2.0 * np.log(r2 - r1)
            + np.log(r2 + r1)
        )


def rejection_sample_radial_pair(
    n: int, size: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (rho1 < rho2) pairs by rejection from a uniform box proposal.

    The box is truncated far into the chi tail of rho1^2 + rho2^2
    (2n + 7 degrees of freedom), so the truncation error is invisible at the
    sample sizes used in tests.
    """
    dof = 2 * n + 7
    rmax = np.sqrt(dof + 16.0 * np.sqrt(2.0 * dof))
    # Bound the log-density on a fine grid (the target is smooth).
    grid = np.linspace(1e-6, rmax, 600)
    g1, g2 = np.meshgrid(grid, grid, indexing="ij")
    mask = g1 < g2
    log_max = radial_pair_log_density(g1[mask], g2[mask], n).max() + 0.05

    out1 = np.empty(size)
    out2 = np.empty(size)
    have = 0
    while have < size:
        m = max(4 * (size - have), 20000)
        c1 = gen.uniform(0.0, rmax, m)
        c2 = gen.uniform(0.0, rmax, m)
        lo = np.minimum(c1, c2)
        hi = np.maximum(c1, c2)
        ok = lo > 0
        accept = np.log(gen.uniform(size=m)) < radial_pair_log_density(lo, hi, n) - log_max
        accept &= ok
        k = min(int(accept.sum()), size - have)
        out1[have : have + k] = lo[accept][:k]
        out2[have : have + k] = hi[accept][:k]
        have += k
    return out1, out2


def kalman_filter(A, C, Q, R, x0, P0, ys):
    """Closed-form linear-Gaussian filter; returns per-step (mean, cov)."""
    x = np.asarray(x0, dtype=np.float64).copy()
    P = np.asarray(P0, dtype=np.float64).copy()
    out = []
    for y in np.atleast_2d(ys):
        x = A @ x
        P = A @ P @ A.T + Q
        S = C @ P @ C.T + R
        K = P @ C.T @ np.linalg.inv(S)
        x = x + K @ (y - C @ x)
        P = P - K @ C @ P
        out.append((x.copy(), P.copy()))
    return out


def joint_moments(x, hx, w):
    """Weighted mean and centred Gram matrix of the stacked points [x, h(x)].

    The whole (n + m) x (n + m) matrix [[Sxx, Pxy], [Pxy^T, Pyy - R]], with
    Sxx the drawn state covariance, from the points x (P, n), the values
    hx (P, m) and the weights w (P,).
    """
    xh = np.hstack([x, np.reshape(hx, (x.shape[0], -1))])
    mean = w @ xh
    dev = xh - mean
    gram = (dev * w[:, None]).T @ dev
    return mean, 0.5 * (gram + gram.T)


def joint_usable(joint) -> bool:
    """The eigenvalue test of a joint moment matrix: PSD to 1e-8 of its largest eigenvalue.

    Runs on the matrix scaled to a unit diagonal, so an observation variance
    far above the state variances does not hide an indefinite state block.
    """
    d = np.sqrt(np.maximum(np.abs(np.diag(joint)), np.finfo(np.float64).tiny))
    eig = np.linalg.eigvalsh(joint / np.outer(d, d))
    return bool(eig.min() >= -1e-8 * max(eig.max(), 1.0))


def monomial_moment(alpha) -> float:
    """E[prod c_i^a_i] for a standard normal vector, via double factorials."""
    total = 1.0
    for a in alpha:
        if a % 2 == 1:
            return 0.0
        df = 1.0
        k = a - 1
        while k > 1:
            df *= k
            k -= 2
        total *= df
    return total


def normal_power_moment_quad(p: int) -> float:
    """E[x^p] for x ~ N(0, 1) by adaptive quadrature (independent of any
    double-factorial identity)."""
    val, _ = quad(
        lambda t: t**p * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi),
        -40.0,
        40.0,
        limit=200,
    )
    return val
