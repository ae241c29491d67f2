import warnings

import numpy as np
import pytest

from srcf.filtering import StateSpaceModel
from srcf.integrate import GaussianBelief
from srcf.linalg import (
    checked_covariance, diagonal_jitter, haar_orthogonal_batch, spd_sqrt, symmetrize,
)
from srcf.rng import RngStream


def _noise_model(q=None, r=None):
    q = np.eye(1) if q is None else q
    r = np.eye(1) if r is None else r
    return StateSpaceModel(f=lambda x: x, h=lambda x: x, q=q, r=r)


# every place a covariance enters, each giving what it keeps or factors; Pyy
# enters through `filtering.correct`, whose use of the guard TestCorrect pins
ENTRY_POINTS = {
    "belief cov": lambda a: GaussianBelief(np.zeros(a.shape[0]), a).cov,
    "model q": lambda a: _noise_model(q=a).q,
    "model r": lambda a: _noise_model(r=a).r,
    "spd_sqrt": spd_sqrt,
}
SPD = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


def _skewed(rel):
    """SPD with one off-diagonal pair apart by ``rel`` times its largest entry."""
    a = SPD.copy()
    a[0, 1] += rel * np.abs(SPD).max()
    return a


class TestCovarianceGuard:
    """One acceptance rule, applied wherever a covariance enters."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", ["nan", "non-square", "asymmetric"])
    def test_rejects(self, entry, bad):
        a = {"nan": np.where(np.eye(3) == 1, np.nan, SPD), "non-square": np.ones((2, 3)),
             "asymmetric": _skewed(2e-8)}[bad]
        with pytest.raises(ValueError):
            ENTRY_POINTS[entry](a)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_accepts_rounding_asymmetry_and_uses_the_symmetric_part(self, entry):
        a = _skewed(5e-9)
        out = ENTRY_POINTS[entry](a)
        # what is kept or factored depends on the symmetric part alone
        np.testing.assert_array_equal(out, ENTRY_POINTS[entry](a.T))
        if entry != "spd_sqrt":
            assert np.array_equal(out, out.T)
            np.testing.assert_array_equal(out, 0.5 * (a + a.T))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("a,message", [
        # a - a^T overflows, the halves' difference does not
        (np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]), "is not symmetric"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "contains NaN or Inf entries"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "contains NaN or Inf entries"),
    ], ids=["overflowing asymmetry", "inf on the diagonal", "symmetric infs"])
    def test_rejects_without_a_numpy_warning(self, entry, a, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                ENTRY_POINTS[entry](a)

    def test_returns_float64_and_rejects_empty(self):
        assert checked_covariance([[1, 0], [0, 1]], "P").dtype == np.float64
        with pytest.raises(ValueError, match="non-empty square"):
            checked_covariance(np.zeros((0, 0)), "P")
        with pytest.raises(ValueError, match="non-empty square"):
            checked_covariance(1.0, "P")


class TestSymmetrize:
    def test_finite_near_the_largest_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = GaussianBelief(np.zeros(1), np.array([[1.7e308]])).cov
        np.testing.assert_array_equal(cov, [[1.7e308]])

    def test_rounds_as_the_halved_sum(self):
        # halving before the sum is exact above the subnormal range
        rng = np.random.default_rng(30)
        for _ in range(300):
            a = rng.standard_normal((10, 10)) * 10.0 ** rng.uniform(-300, 300, (10, 10))
            assert symmetrize(a).tobytes() == (0.5 * (a + a.T)).tobytes()


class TestDiagonalJitter:
    def test_scales_with_absolute_trace(self):
        assert diagonal_jitter(np.diag([2.0, 4.0])) == 1e-9 * 6.0 / 2
        assert diagonal_jitter(np.diag([-2.0, -4.0])) == 1e-9 * 6.0 / 2

    def test_positive_for_zero_matrix(self):
        assert diagonal_jitter(np.zeros((3, 3))) == np.finfo(np.float64).tiny


class TestSpdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(spd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        L = spd_sqrt(np.array([[4.0, 0.0], [0.0, 9.0]]))
        np.testing.assert_allclose(L, np.array([[2.0, 0.0], [0.0, 3.0]]), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_random_spd_reconstruction(self, n):
        gen = np.random.default_rng(n)
        m = gen.standard_normal((n, n))
        a = m.T @ m + np.eye(n)
        L = spd_sqrt(a)
        rel = np.linalg.norm(L @ L.T - a) / np.linalg.norm(a)
        assert rel < 1e-10
        # Cholesky path gives a lower-triangular factor
        assert np.abs(np.triu(L, 1)).max() == 0.0

    def test_indefinite_falls_back_to_clamped_eigen_root(self):
        # eigenvalues {1, -1e-6}: Cholesky must fail, fallback must clamp
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        a = v @ np.diag([1.0, -1e-6]) @ v.T
        L = spd_sqrt(a)
        recon = L @ L.T
        w = np.linalg.eigvalsh(recon)
        assert w.min() >= -1e-15
        assert abs(recon[0, 0] - 1.0) < 1e-6

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spd_sqrt(np.ones((2, 3)))

    def test_nan_rejected(self):
        a = np.eye(2)
        a[0, 1] = np.nan
        with pytest.raises(ValueError):
            spd_sqrt(a)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            spd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestHaarOrthogonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 15])
    def test_orthogonality_and_determinant(self, n):
        for q in haar_orthogonal_batch(n, 5, RngStream(3, stream_id=n)):
            assert np.abs(q.T @ q - np.eye(n)).max() < 1e-10
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10

    def test_n1_sign_frequency(self):
        # Q in {[+1], [-1]} each with probability 1/2
        qs = haar_orthogonal_batch(1, 10_000, RngStream(11))
        signs = qs[:, 0, 0]
        assert set(np.unique(np.round(signs))) <= {-1.0, 1.0}
        assert abs((signs > 0).mean() - 0.5) < 0.02

    def test_entry_means_vanish(self):
        # Haar symmetry: E[Q_ij] = 0, Var[Q_ij] = 1/n
        n, draws = 3, 10_000
        qs = haar_orthogonal_batch(n, draws, RngStream(12))
        means = qs.mean(axis=0)
        bound = 3.0 * np.sqrt((1.0 / n) / draws)
        assert np.abs(means).max() < bound

    def test_batch_matches_repeated_single(self):
        # one batch of three equals three single draws from one stream, bit for bit
        batch = haar_orthogonal_batch(4, 3, RngStream(5))
        rng = RngStream(5)
        singles = np.concatenate([haar_orthogonal_batch(4, 1, rng) for _ in range(3)])
        np.testing.assert_array_equal(batch, singles)

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(ValueError):
            haar_orthogonal_batch(0, 1, RngStream(0))

    @pytest.mark.parametrize("n,size,name", [
        (3, True, "size"), (3, 2.0, "size"), (True, 2, "n"), (3.0, 2, "n"),
    ])
    def test_non_integer_counts_rejected(self, n, size, name):
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            haar_orthogonal_batch(n, size, RngStream(0))

    def test_numpy_integer_counts_accepted(self):
        np.testing.assert_array_equal(haar_orthogonal_batch(np.int64(3), np.int32(2), RngStream(6)),
                                      haar_orthogonal_batch(3, 2, RngStream(6)))
