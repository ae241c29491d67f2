"""Weighted sigma-point sets for Gaussian-weighted integration.

All rules are defined in standard-normal coordinates c ~ N(0, I) and factor
into a radial part (radii with Lagrange-interpolation weights) and a
spherical part (a degree-5 simplex surface rule, optionally under a random
rotation).  `draw_rule_batch` writes them out under N(mean, L L^T), with L
acting on each draw's directions; standard coordinates are its defaults.
Every point set stores probability-normalized weights: they sum to one, so
constants are integrated exactly and no Gamma-function normalizers ever
appear.

Available schemes
-----------------
CKF3    deterministic third-degree rule, 2n axis points.
CKF5    deterministic fifth-degree rule: simplex surface rule with a
        two-node radial rule pinned at zero (radius sqrt(n+2)).
SIF3    stochastic third degree: chi-distributed radius, Haar-random axes.
SIF5    stochastic fifth degree: random radius pair + Haar-random rotation
        of the simplex rule; every draw is degree-5 exact and unbiased.
QSIF5   quasi-stochastic fifth degree: CKF5 radii with a Haar-random
        rotation per repetition.
MC      plain Monte-Carlo: i.i.d. standard-normal points, equal weights.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .linalg import haar_orthogonal_batch
from .rng import RngStream, _integer, as_streams, standard_normal_stack
from .samplers import _radial_pair_batch, sample_chi

__all__ = [
    "SchemeKind",
    "IntegrationScheme",
    "radial_weights",
    "simplex_vertices",
    "simplex_midpoints",
    "spherical_weights_deg5",
    "draw_rule_batch",
    "points_per_draw",
    "reported_eval_count",
    "gaussian_monomial_moment",
]


class SchemeKind(Enum):
    """Tag for the supported integration rule families."""

    CKF3 = "ckf3"
    CKF5 = "ckf5"
    SIF3 = "sif3"
    SIF5 = "sif5"
    QSIF5 = "qsif5"
    MC = "mc"

    @property
    def deterministic(self) -> bool:
        return self in (SchemeKind.CKF3, SchemeKind.CKF5)

    @property
    def degree(self) -> int | None:
        """Polynomial exactness degree per draw (None for Monte-Carlo)."""
        if self is SchemeKind.MC:
            return None
        return 3 if self in (SchemeKind.CKF3, SchemeKind.SIF3) else 5

    @property
    def min_dim(self) -> int:
        # The simplex midpoint projection divides by n - 1.
        return 2 if self in (SchemeKind.CKF5, SchemeKind.SIF5, SchemeKind.QSIF5) else 1


@dataclass(frozen=True)
class IntegrationScheme:
    """An integration rule selector plus its repetition count.

    Parameters
    ----------
    kind : SchemeKind
    n_m : int
        Number of independent rule draws averaged per integral evaluation.
        Must be 1 for deterministic kinds, where repetitions would be
        identical.
    mc_samples : int, optional
        Sample count per draw; required for and exclusive to MC.
    """

    kind: SchemeKind
    n_m: int = 1
    mc_samples: int | None = None

    def __post_init__(self):
        if _integer("n_m", self.n_m) < 1:
            raise ValueError("n_m must be >= 1")
        if self.kind is SchemeKind.MC:
            if self.mc_samples is None or _integer("mc_samples", self.mc_samples) < 1:
                raise ValueError("MC scheme requires mc_samples >= 1")
        elif self.mc_samples is not None:
            raise ValueError(f"mc_samples is only valid for MC, not {self.kind.value}")
        if self.kind.deterministic and self.n_m != 1:
            raise ValueError(f"n_m must be 1 for the deterministic {self.label}, got {self.n_m}")

    @property
    def label(self) -> str:
        return self.kind.value

    @classmethod
    def from_label(cls, label: str, n_m: int = 1, mc_samples: int | None = None) -> "IntegrationScheme":
        try:
            kind = SchemeKind(label.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in SchemeKind)
            raise ValueError(f"unknown scheme {label!r}; expected one of: {valid}") from None
        return cls(kind, n_m=n_m, mc_samples=mc_samples)

    def validate_dim(self, n: int) -> None:
        if n < self.kind.min_dim:
            raise ValueError(
                f"{self.kind.value} requires dimension >= {self.kind.min_dim}, got n={n}"
            )


def radial_weights(n: int, nodes) -> np.ndarray:
    """Normalized weights of the radial rule on the centre and the nodes.

    Lagrange interpolation in u = r^2 on {0, u_1, ..., u_m} against the
    Gaussian radial moments.  With E'[u^k] = (n+2)(n+4)...(n+2k), those of
    dimension n + 2 (E[u f(u)] = n E'[f(u)]), the weights

        w_j = n E'[prod_{i!=j} (u_i - u)] / (u_j prod_{i!=j} (u_i - u_j))
        w_0 = 1 - n E'[Q] / prod_i u_i,   Q(u) = (prod_i u_i - prod_i (u_i - u)) / u

    match E[u^k] for k <= m and sum to one; w_j may be negative.  Both
    polynomials are sum_k (-1)^k e_{m-1-k} u^k over the elementary symmetric
    polynomials e of their nodes, formed in node order, and E' is summed in
    increasing k, so m = 1 (w_1 = n / r^2) and m = 2 round as their closed
    forms do.  ``nodes`` has shape (..., m), radii non-zero and pairwise
    distinct in r^2; the result has shape (..., m + 1), centre weight first.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    r = np.asarray(nodes, dtype=np.float64)
    if r.ndim < 1 or r.shape[-1] < 1:
        raise ValueError(f"nodes must have shape (..., m) with m >= 1, got shape {r.shape}")
    usq = r * r
    m = usq.shape[-1]
    u = [usq[..., i] for i in range(m)]
    if (usq == 0.0).any() or any((u[i] == u[j]).any() for i in range(m) for j in range(i)):
        raise ValueError("radial nodes must be distinct and nonzero")
    moments = np.cumprod([1.0] + [n + 2.0 * k for k in range(1, m)]).tolist()

    def elementary(us):
        # [e_1, ..., e_len], e_k + x e_{k-1} per node x, with e_0 = 1 left implicit
        e = []
        for x in us:
            e = [e[0] + x] + [a + x * b for a, b in zip(e[1:], e)] + [x * e[-1]] if e else [x]
        return e

    def alternating(e):
        # E'[sum_k (-1)^k e_{d-k} u^k] for e = [e_1, ..., e_d]
        e = [1.0] + e
        total = e[-1]
        for k in range(1, len(e)):
            total = total - e[-1 - k] * moments[k] if k % 2 else total + e[-1 - k] * moments[k]
        return total

    e = elementary(u)
    w = np.empty(r.shape[:-1] + (m + 1,))
    w[..., 0] = 1.0 - n * alternating(e[:-1]) / e[-1]
    for j, uj in enumerate(u):
        others = u[:j] + u[j + 1:]
        den = reduce(np.multiply, [ui - uj for ui in others], uj)
        w[..., j + 1] = n * alternating(elementary(others)) / den
    return w


def simplex_vertices(n: int) -> np.ndarray:
    """Unit vertices a_1..a_{n+1} of a regular n-simplex, as rows.

    Built column-by-column:

        a[j, k] = -sqrt((n+1) / (n (n-k+2)(n-k+1)))        for k < j
        a[j, j] = +sqrt((n+1)(n-j+1) / (n (n-j+2)))
        a[j, k] = 0                                        for k > j

    (1-based indices).  Rows have unit norm and pairwise dot product -1/n.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    a = np.zeros((n + 1, n))
    for j in range(1, n + 2):
        for k in range(1, n + 1):
            if k < j:
                a[j - 1, k - 1] = -np.sqrt((n + 1.0) / (n * (n - k + 2.0) * (n - k + 1.0)))
            elif k == j:
                a[j - 1, k - 1] = np.sqrt((n + 1.0) * (n - j + 1.0) / (n * (n - j + 2.0)))
    return a


def simplex_midpoints(n: int, vertices: np.ndarray) -> np.ndarray:
    """Pairwise vertex midpoints projected back onto the unit sphere.

    b_{(k,l)} = sqrt(n / (2(n-1))) * (a_k + a_l) for k < l, enumerated in
    lexicographic (k, l) order.  Empty for n = 1, where no distinct pairs
    with a finite projection factor exist.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n == 1:
        return np.zeros((0, 1))
    scale = np.sqrt(n / (2.0 * (n - 1.0)))
    pairs = [
        vertices[k] + vertices[l]
        for k in range(n + 1)
        for l in range(k + 1, n + 1)
    ]
    return scale * np.asarray(pairs)


def spherical_weights_deg5(n: int) -> tuple[float, float]:
    """Per-point weights (wa, wb) of the degree-5 simplex surface rule.

    wa belongs to each of the 2(n+1) +-vertex points and wb to each of the
    n(n+1) +-midpoint points, normalized against the uniform measure on the
    sphere:

        2(n+1) wa + n(n+1) wb = 1.

    wa turns negative for n > 7; the rule stays degree-5 regardless.
    """
    if n < 2:
        raise ValueError("the degree-5 surface rule requires dimension >= 2")
    wa = n * (7.0 - n) / (2.0 * (n + 1.0) ** 2 * (n + 2.0))
    wb = 2.0 * (n - 1.0) ** 2 / (n * (n + 1.0) ** 2 * (n + 2.0))
    return wa, wb


_SIGNS = np.array([1.0, -1.0])
_SIGNS.setflags(write=False)


class _Layout(NamedTuple):
    """What a symmetric rule's kind and n fix, as read-only arrays.

    ``dirs`` (D, n) are the directions as rows and ``sphere_w`` (D,) the
    weight of each of their +- points; ``radii`` (1, K) and ``radial_w``
    are the radial rule of the fixed-radius schemes (None where a draw
    samples it); ``p`` is the number of points per draw.
    """

    dirs: np.ndarray
    sphere_w: np.ndarray
    radii: np.ndarray | None
    radial_w: np.ndarray | None
    p: int


@lru_cache(maxsize=None)
def _layout(kind: SchemeKind, n: int) -> _Layout:
    """The layout of a symmetric scheme at dimension n, built on first use."""
    radii = radial_w = None
    if kind in (SchemeKind.CKF3, SchemeKind.SIF3):
        dirs, sphere_w = np.eye(n), np.full(n, 1.0 / (2 * n))
        if kind is SchemeKind.CKF3:
            # 2n axis points at radius sqrt(n), no centre, radial weight 1.0 exactly
            radii, radial_w = np.array([[np.sqrt(n)]]), np.ones((1, 1))
    else:
        vertices = simplex_vertices(n)
        midpoints = simplex_midpoints(n, vertices)
        dirs = np.concatenate([vertices, midpoints])
        sphere_w = np.repeat(spherical_weights_deg5(n), [len(vertices), len(midpoints)])
        if kind is not SchemeKind.SIF5:
            # one node pinned at zero: matching (1, n, n(n+2)) forces rho^2 = n + 2
            radii = np.array([[np.sqrt(n + 2.0)]])
            radial_w = radial_weights(n, radii)
    for a in (dirs, sphere_w, radii, radial_w):
        if a is not None:
            a.setflags(write=False)
    # the centre (all but ckf3), then +-r d for each radius and direction
    k = 2 if kind is SchemeKind.SIF5 else 1
    p = (kind is not SchemeKind.CKF3) + 2 * k * len(dirs)
    return _Layout(dirs, sphere_w, radii, radial_w, p)


def _symmetric_rule(cols, sphere_w, radii, radial_w, mean, out, size):
    """The mean plus +-r d for every radius r and direction d, with product weights.

    ``cols`` is (n, D), or (size, n, D) for per-draw rotated directions,
    whose columns are the directions d already mapped to state space, and
    ``sphere_w`` (D,) the weight of each +-direction point on the sphere.
    ``radii`` is (size, K) and ``radial_w`` (size, K + 1), the centre weight
    first, as `radial_weights` gives it, or (size, K) for a rule without a
    centre; fixed radii come as one (1, K) row that every draw shares.
    Points are laid out as the centre (the mean), then for each radius
    mean + r d and mean - r d over the directions, and are written into
    ``out``, of shape (size * P, n).
    """
    k = radii.shape[1]
    n, d = cols.shape[-2:]
    first = radial_w.shape[1] - k
    p = out.shape[0] // size
    points = out.reshape(size, p, n)
    weights = np.empty((size, p))
    # Three passes along each coordinate of the points, which column-major
    # points hold contiguously: copy every direction once per +-r point,
    # scale by the signed radius, add the mean.  Scaling and shifting D-long
    # runs one broadcast at a time costs about twice as much.  -r d is
    # -(r d), and adding it to the mean rounds as subtracting r d does, so
    # every value is mean +- r d bit for bit.
    coords = points.transpose(2, 0, 1)
    coords[:, :, first:].reshape(n, size, k, 2, d)[:] = (
        cols.reshape(-1, n, 1, 1, d).transpose(1, 0, 2, 3, 4)
    )
    signed = np.empty((size, p))
    signed[:, first:].reshape(size, k, 2, d)[:] = np.multiply.outer(radii, _SIGNS)[..., None]
    if first:
        # the centre is mean * 0 + mean, which is the mean for finite entries
        coords[:, :, 0] = mean[:, None]
        signed[:, 0] = 0.0
        weights[:, 0] = radial_w[:, 0]
    np.multiply(coords, signed, out=coords)
    np.add(coords, mean[:, None, None], out=coords)
    weights[:, first:].reshape(size, k, 2, d)[:] = radial_w[:, first:, None, None] * sphere_w
    return points, weights


def draw_rule_batch(
    scheme: IntegrationScheme,
    n: int,
    size: int,
    rng: RngStream | Sequence[RngStream],
    *,
    mean: np.ndarray | None = None,
    root: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` independent realizations of a scheme's point set per stream.

    The points are those of the rule under N(mean, root root^T).  Every rule
    but mc is a centre plus +-r times a set of directions, so the square
    root L = ``root`` acts on the directions of each draw, (L Q)^T being
    formed once per draw, and the centre mean and the points mean +- r L Q d
    are written directly; mc maps its points as mean + L c.  The defaults
    mean = 0 and root = I give the rule in standard-normal coordinates.

    ``rng`` is one stream or a sequence of streams.  Each stream supplies
    ``size`` draws, stacked in stream order, and consumes its variates in the
    same order as a call with that stream alone (radii, redraws included,
    then the rotation), so the result equals the concatenation of the
    single-stream calls bit for bit.  The rotation and point assembly run
    once over the whole stack.

    ``out``, when given, is the float64 (len(streams) * size * P, n) array
    the points are written into, in any memory layout (a column slice of a
    wider array, say); any other dtype or shape is a `ValueError`.  By
    default the points go to a fresh column-major array, in which each
    coordinate of all points is contiguous.  The returned points are a view
    of that array.  ``mean`` and ``root`` are read as float64 arrays (a
    list will do) and must have shape (n,) and (n, n).

    Returns
    -------
    points : (len(streams) * size, P, n) array
    weights : (len(streams) * size, P) array
        Each row sums to one.

    Notes
    -----
    What the kind and n fix (directions, sphere weights, fixed radii and
    their weights, P) is built once per (kind, n); a draw samples only the
    random radii and rotation, and deterministic schemes draw nothing.
    """
    scheme.validate_dim(n)
    if size < 1:
        raise ValueError("size must be >= 1")
    streams = as_streams(rng)
    total = len(streams) * size
    kind = scheme.kind
    mean = np.zeros(n) if mean is None else np.asarray(mean, dtype=np.float64)
    root = np.eye(n) if root is None else np.asarray(root, dtype=np.float64)
    if mean.shape != (n,):
        raise ValueError(f"mean must have shape ({n},), got shape {mean.shape}")
    if root.shape != (n, n):
        raise ValueError(f"root must have shape ({n}, {n}), got shape {root.shape}")
    rows = total * points_per_draw(scheme, n)
    if out is None:
        out = np.empty((rows, n), order="F")
    elif out.dtype != np.float64 or out.shape != (rows, n):
        raise ValueError(f"out must be float64 of shape ({rows}, {n}), got {out.dtype} {out.shape}")

    if kind is SchemeKind.MC:
        m = scheme.mc_samples
        c = standard_normal_stack(streams, size, (m, n))
        # the row-major product, as L c^T could round differently
        np.add(c.reshape(-1, n) @ root.T, mean, out=out)
        return out.reshape(total, m, n), np.full((total, m), 1.0 / m)

    # every draw shares the fixed radii; sif3 and sif5 sample theirs, and the
    # rotation is drawn after them
    lay = _layout(kind, n)
    radii, radial_w = lay.radii, lay.radial_w
    if radii is None:
        if kind is SchemeKind.SIF3:
            radii = np.concatenate([sample_chi(n + 2, s, size=size) for s in streams])[:, None]
        else:
            radii = np.concatenate([np.stack(_radial_pair_batch(n, size, s), 1) for s in streams])
        radial_w = radial_weights(n, radii)
    lq = root if kind.deterministic else root @ haar_orthogonal_batch(n, size, streams)
    # the axes L Q e_i are the columns of L Q; other directions go as rows
    # times (L Q)^T, whose rounding the points keep
    cols = lq if kind.degree == 3 else np.swapaxes(lay.dirs @ np.swapaxes(lq, -1, -2), -1, -2)
    return _symmetric_rule(cols, lay.sphere_w, radii, radial_w, mean, out, total)


def points_per_draw(scheme: IntegrationScheme, n: int) -> int:
    """P, the number of points in one draw of ``draw_rule_batch``.

    Unlike `reported_eval_count` this counts every returned point: each
    draw's centre and both points of every +- pair.
    """
    if scheme.kind is SchemeKind.MC:
        return scheme.mc_samples
    return _layout(scheme.kind, n).p


def reported_eval_count(scheme: IntegrationScheme, n: int) -> int:
    """Function-evaluation budget of one integral under the usual accounting.

    With P = `points_per_draw`, which `sigma_points` evaluates n_m times:

    * CKF3 and CKF5 (n_m = 1) and MC: n_m * P, every point.
    * SIF3 and QSIF5: n_m * (P - 1) + 1 -- every repetition places its
      centre at the mean, and the count takes it once (SIF3 at n = 10 and
      n_m = 50: 1001 counted of 1050 evaluated).
    * SIF5: n_m * (P + 1) / 2 -- the symmetrized rule's operating points,
      each +-pair counted once and the centre every repetition.
    """
    p = points_per_draw(scheme, n)
    if scheme.kind is SchemeKind.SIF5:
        return scheme.n_m * (p + 1) // 2
    if scheme.kind in (SchemeKind.SIF3, SchemeKind.QSIF5):
        return scheme.n_m * (p - 1) + 1
    return scheme.n_m * p


def gaussian_monomial_moment(alpha) -> float:
    """E[prod_i c_i^alpha_i] for c ~ N(0, I): product of double factorials.

    Zero when any exponent is odd; otherwise prod_i (alpha_i - 1)!!.
    """
    moment = 1.0
    for a in alpha:
        a = int(a)
        if a < 0:
            raise ValueError("exponents must be non-negative")
        if a % 2 == 1:
            return 0.0
        for k in range(a - 1, 1, -2):
            moment *= k
    return moment
