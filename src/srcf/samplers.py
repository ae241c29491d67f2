"""Samplers for the random radial nodes of the stochastic integration rules.

The third-degree rule needs a single radius drawn from a chi distribution;
the fifth-degree rule needs an ordered radius pair drawn from a non-standard
joint density, realized exactly through a chi/beta/arcsine transform.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

__all__ = ["sample_chi", "sample_beta"]

# Draws closer together than this are numerically unusable downstream
# (the fifth-degree weights divide by rho1^2 * rho2^2 * (rho1^2 - rho2^2)).
_DEGENERATE_TOL = 1e-12
_MAX_REDRAWS = 100


def sample_chi(dof: int, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` variates from a chi distribution with ``dof`` degrees of freedom.

    Implemented as the square root of a gamma(dof/2, scale=2) variate so odd
    degrees of freedom work without summing squared normals.
    """
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    return np.sqrt(2.0 * rng.generator.standard_gamma(0.5 * dof, size=size))


def sample_beta(alpha: float, beta: float, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` variates from Beta(alpha, beta) via a ratio of two gamma variates."""
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("beta distribution parameters must be positive")
    gen = rng.generator
    ga = gen.standard_gamma(alpha, size=size)
    gb = gen.standard_gamma(beta, size=size)
    return ga / (ga + gb)


def _radial_pair_batch(n: int, size: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ordered radius pairs for the fifth-degree rule.

    eta1 ~ chi(2n + 7), eta2 ~ Beta(n + 2, 3/2), then

        rho1 = eta1 * sin(arcsin(eta2) / 2)
        rho2 = eta1 * cos(arcsin(eta2) / 2)

    is distributed proportional to

        (rho1 rho2)^(n+1) exp(-(rho1^2 + rho2^2)/2) (rho2 - rho1)^2 (rho2 + rho1)

    with rho1 < rho2 guaranteed (the half-angle stays below pi/4).  Degenerate
    float draws (rho1 ~ 0 or rho1 ~ rho2) are redrawn.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rho1 = np.empty(size)
    rho2 = np.empty(size)
    pending = np.arange(size)
    for _ in range(_MAX_REDRAWS):
        k = pending.size
        if k == 0:
            return rho1, rho2
        eta1 = sample_chi(2 * n + 7, rng, size=k)
        eta2 = sample_beta(n + 2, 1.5, rng, size=k)
        half = 0.5 * np.arcsin(eta2)
        r1 = eta1 * np.sin(half)
        r2 = eta1 * np.cos(half)
        rho1[pending] = r1
        rho2[pending] = r2
        bad = (r1 < _DEGENERATE_TOL) | (r2 - r1 < _DEGENERATE_TOL)
        pending = pending[bad]
    raise RuntimeError(f"radial pair sampling failed after {_MAX_REDRAWS} redraws")
