import platform
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import chi2

from srcf import filtering
from srcf.bench import GrowthModel, simulate_trajectory
from srcf.filtering import (
    DivergenceError,
    PredictedObservation,
    StateSpaceModel,
    correct,
    predict_observation,
    predict_state,
    run_filter,
)
from srcf.integrate import GaussianBelief, IntegrandError, VectorFunction, sigma_points
from srcf.linalg import spd_sqrt, symmetrize
from srcf.rng import RngStream
from srcf.rules import IntegrationScheme

from oracles import joint_moments, joint_usable, kalman_filter

CUBATURE_LABELS = ["ckf3", "ckf5", "sif3", "sif5", "qsif5"]


def scheme(label, n_m=1, mc=2000):
    return IntegrationScheme.from_label(label, n_m=n_m, mc_samples=mc if label == "mc" else None)


def linear_model(a, c, q, r):
    return StateSpaceModel(
        f=VectorFunction(lambda x: x @ a.T, vectorized=True),
        h=VectorFunction(lambda x: x @ c.T, vectorized=True),
        q=q, r=r,
    )


class TestStateSpaceModel:
    def _model(self, q, r):
        return StateSpaceModel(f=lambda x: x, h=lambda x: x[0], q=q, r=r)

    @pytest.mark.parametrize("q", [np.array([[1.0, 0.0, 0.0, 1.0]]), np.array([[1.0], [0.0], [0.0], [1.0]]),
                                   np.ones((2, 2, 1)), np.ones(4)])
    def test_misshaped_q_rejected(self, q):
        # q holds 4 entries but is not a square matrix: no reshape is guessed
        with pytest.raises(ValueError, match="q must be a non-empty square matrix"):
            self._model(q, np.eye(1))

    @pytest.mark.parametrize("r", [np.ones(1), np.zeros((0, 0)), np.ones((1, 2))])
    def test_misshaped_r_rejected(self, r):
        with pytest.raises(ValueError, match="r must be a non-empty square matrix"):
            self._model(np.eye(2), r)

    def test_dimensions_read_from_q_and_r(self):
        model = self._model(np.eye(3), np.eye(2))
        assert (model.n, model.m) == (3, 2)
        with pytest.raises(TypeError):
            StateSpaceModel(f=lambda x: x, h=lambda x: x, q=np.eye(2), r=np.eye(1), n=2, m=1)

    def test_scalars_become_one_by_one(self):
        model = self._model(2.0, 0.5)
        np.testing.assert_array_equal(model.q, [[2.0]])
        np.testing.assert_array_equal(model.r, [[0.5]])
        assert (model.n, model.m) == (1, 1)


class TestPredictState:
    @pytest.mark.parametrize("label", CUBATURE_LABELS)
    def test_identity_dynamics_no_noise(self, label):
        n = 3
        prior = GaussianBelief(np.arange(1.0, n + 1), np.diag([1.0, 2.0, 3.0]))
        model = StateSpaceModel(
            f=VectorFunction(lambda x: x, vectorized=True),
            h=VectorFunction(lambda x: x, vectorized=True),
            q=np.zeros((n, n)), r=np.eye(n),
        )
        pred = predict_state(prior, model, scheme(label), RngStream(1, stream_id=label))
        np.testing.assert_allclose(pred.mean, prior.mean, atol=1e-9)
        np.testing.assert_allclose(pred.cov, prior.cov, atol=1e-9)

    @pytest.mark.parametrize("label", CUBATURE_LABELS)
    def test_linear_dynamics_match_closed_form(self, label):
        n = 4
        gen = np.random.default_rng(2)
        a = gen.standard_normal((n, n)) * 0.4
        q = np.eye(n) * 0.7
        prior = GaussianBelief(gen.standard_normal(n), np.eye(n) * 2.0)
        model = linear_model(a, np.eye(n), q, np.eye(n))
        pred = predict_state(prior, model, scheme(label, n_m=2 if "sif" in label else 1),
                             RngStream(3, stream_id=label))
        np.testing.assert_allclose(pred.mean, a @ prior.mean, atol=1e-8)
        np.testing.assert_allclose(pred.cov, a @ prior.cov @ a.T + q, atol=1e-8)

    def test_decay_model_hand_values(self):
        # f(x) = 0.9x, Q = 100 I, prior (1, 10 I) -> (0.9, 108.1 I)
        n = 10
        prior = GaussianBelief(np.ones(n), 10.0 * np.eye(n))
        model = StateSpaceModel(
            f=VectorFunction(lambda x: 0.9 * x, vectorized=True),
            h=VectorFunction(lambda x: x[:, :1], vectorized=True),
            q=100.0 * np.eye(n), r=np.eye(1),
        )
        pred = predict_state(prior, model, scheme("sif5"), RngStream(4))
        np.testing.assert_allclose(pred.mean, 0.9 * np.ones(n), atol=1e-8)
        np.testing.assert_allclose(pred.cov, 108.1 * np.eye(n), atol=1e-7)

    def test_q_of_another_size_than_the_prior_rejected(self):
        # the model's state dimension is that of its q
        model = StateSpaceModel(f=lambda x: x, h=lambda x: x[0], q=np.eye(3), r=np.eye(1))
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=r"^prior dimension 2 != model state dimension 3$"):
            predict_state(prior, model, scheme("ckf3"), RngStream(4))


class TestPredictObservation:
    def test_belief_of_another_size_than_q_rejected(self):
        model = StateSpaceModel(f=lambda x: x, h=lambda x: x[0], q=np.eye(3), r=np.eye(1))
        pred = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=r"^belief dimension 2 != model state dimension 3$"):
            predict_observation(pred, model, scheme("ckf3"), RngStream(5))

    def test_identity_observation(self):
        n = 3
        pred = GaussianBelief(np.array([1.0, -2.0, 0.5]), np.diag([2.0, 1.0, 0.5]))
        model = StateSpaceModel(
            f=VectorFunction(lambda x: x, vectorized=True),
            h=VectorFunction(lambda x: x, vectorized=True),
            q=np.eye(n), r=np.zeros((n, n)),
        )
        obs = predict_observation(pred, model, scheme("ckf5"), RngStream(5))
        np.testing.assert_allclose(obs.y_hat, pred.mean, atol=1e-8)
        np.testing.assert_allclose(obs.pxy, pred.cov, atol=1e-8)
        np.testing.assert_allclose(obs.pyy, pred.cov, atol=1e-8)

    @pytest.mark.parametrize("label", CUBATURE_LABELS)
    def test_linear_observation(self, label):
        n, m = 4, 2
        gen = np.random.default_rng(6)
        c = gen.standard_normal((m, n))
        r = np.diag([0.5, 2.0])
        pred = GaussianBelief(gen.standard_normal(n), np.eye(n) * 1.5)
        model = linear_model(np.eye(n), c, np.eye(n), r)
        obs = predict_observation(pred, model, scheme(label), RngStream(7, stream_id=label))
        np.testing.assert_allclose(obs.y_hat, c @ pred.mean, atol=1e-8)
        np.testing.assert_allclose(obs.pxy, pred.cov @ c.T, atol=1e-8)
        np.testing.assert_allclose(obs.pyy, c @ pred.cov @ c.T + r, atol=1e-8)

    def test_constant_observation(self):
        n = 2
        pred = GaussianBelief(np.zeros(n), np.eye(n))
        model = StateSpaceModel(
            f=VectorFunction(lambda x: x, vectorized=True),
            h=VectorFunction(lambda x: np.full(x.shape[0], 3.5), vectorized=True),
            q=np.eye(n), r=np.array([[2.0]]),
        )
        obs = predict_observation(pred, model, scheme("sif3"), RngStream(8))
        assert abs(obs.y_hat[0] - 3.5) < 1e-12
        np.testing.assert_allclose(obs.pxy, 0.0, atol=1e-10)
        np.testing.assert_allclose(obs.pyy, [[2.0]], atol=1e-10)

    def test_innovation_covariance_dominates_noise_floor(self):
        # for a smooth observation with PSD-weight rules, Pyy >= R - eps
        n = 3
        pred = GaussianBelief(np.zeros(n), np.eye(n))
        r = np.diag([0.3, 1.2])
        model = StateSpaceModel(
            f=VectorFunction(lambda x: x, vectorized=True),
            h=VectorFunction(lambda x: np.stack([np.sin(x[:, 0]), x[:, 1] ** 2], axis=1),
                             vectorized=True),
            q=np.eye(n), r=r,
        )
        obs = predict_observation(pred, model, scheme("ckf5"), RngStream(9))
        eps = 1e-8 * np.trace(r)
        assert np.linalg.eigvalsh(obs.pyy - r).min() >= -eps


class TestCorrect:
    def test_zero_gain_keeps_prediction(self):
        pred = GaussianBelief(np.array([1.0, 2.0]), np.eye(2))
        obs = PredictedObservation(y_hat=np.array([0.5]), pxy=np.zeros((2, 1)), pyy=np.array([[2.0]]))
        post = correct(pred, obs, np.array([9.9]))
        np.testing.assert_allclose(post.mean, pred.mean)
        np.testing.assert_allclose(post.cov, pred.cov)

    def test_scalar_hand_example(self):
        # P=1, Pxy=1, Pyy=2, innovation=2 -> mean + 1, P - 1/2
        pred = GaussianBelief(np.array([3.0]), np.array([[1.0]]))
        obs = PredictedObservation(y_hat=np.array([1.0]), pxy=np.array([[1.0]]), pyy=np.array([[2.0]]))
        post = correct(pred, obs, np.array([3.0]))
        assert abs(post.mean[0] - 4.0) < 1e-12
        assert abs(post.cov[0, 0] - 0.5) < 1e-12

    def test_matches_textbook_kalman_update(self):
        n, m = 3, 2
        gen = np.random.default_rng(10)
        p = np.eye(n) * 1.3
        c = gen.standard_normal((m, n))
        r = np.eye(m) * 0.4
        mean = gen.standard_normal(n)
        y = gen.standard_normal(m)
        pyy = c @ p @ c.T + r
        obs = PredictedObservation(y_hat=c @ mean, pxy=p @ c.T, pyy=pyy)
        post = correct(GaussianBelief(mean, p), obs, y)
        k = p @ c.T @ np.linalg.inv(pyy)
        np.testing.assert_allclose(post.mean, mean + k @ (y - c @ mean), atol=1e-8)
        np.testing.assert_allclose(post.cov, p - k @ c @ p, atol=1e-8)

    def test_indefinite_pyy_degrades_to_zero_gain(self):
        # a negative variance estimate is integration noise; the observation
        # must be treated as uninformative rather than sign-flipping the gain
        pred = GaussianBelief(np.zeros(1), np.eye(1))
        obs = PredictedObservation(y_hat=np.zeros(1), pxy=np.array([[1e-3]]), pyy=np.array([[-5.0]]))
        post = correct(pred, obs, np.array([1.0]))
        np.testing.assert_array_equal(post.mean, pred.mean)
        np.testing.assert_array_equal(post.cov, pred.cov)

    def test_single_observation_equals_scipy_cholesky_update(self):
        # for a scalar observation the two triangular solves round exactly as
        # scipy's cho_factor/cho_solve did; a lone state (n = 1, a single
        # right-hand side) is left out: there numpy's solve divides where
        # the multi-column solve multiplies by the reciprocal
        gen = np.random.default_rng(31)
        for _ in range(200):
            pred, obs, y = _random_update(gen, int(gen.integers(2, 21)), 1)
            ref_mean, ref_cov = _scipy_update(pred, obs, y)
            post = correct(pred, obs, y)
            np.testing.assert_array_equal(post.mean, ref_mean)
            np.testing.assert_array_equal(post.cov, ref_cov)

    @pytest.mark.parametrize("m", [2, 3])
    def test_vector_observation_agrees_with_scipy_cholesky_update(self, m):
        # both are backward-stable solves, so the gains differ by at most a
        # few eps * cond(Pyy) relative; the mean and covariance add one
        # rounding of their own size.  The largest difference seen on these
        # draws is 0.08 of the bound
        gen = np.random.default_rng(32 + m)
        eps = np.finfo(np.float64).eps
        for _ in range(200):
            pred, obs, y = _random_update(gen, int(gen.integers(1, 21)), m)
            ref_mean, ref_cov = _scipy_update(pred, obs, y)
            post = correct(pred, obs, y)
            gain = obs.pxy @ np.linalg.inv(obs.pyy)
            k = 2 * m * eps * np.linalg.cond(obs.pyy) * np.linalg.norm(gain, 2)
            innov = np.linalg.norm(y - obs.y_hat)
            assert np.linalg.norm(post.mean - ref_mean) <= (
                k * innov + eps * np.linalg.norm(ref_mean)
            )
            assert np.linalg.norm(post.cov - ref_cov, 2) <= (
                k * np.linalg.norm(obs.pxy, 2) + eps * np.linalg.norm(pred.cov, 2)
            )

    def test_singular_pyy_takes_the_jitter_retry(self):
        # Pyy = [[1, 1], [1, 1]] is PSD but singular, so the first Cholesky
        # fails and the retry factors Pyy + 1e-9 * trace / m * I
        v = np.array([0.6, -0.2, 0.1])
        pred = GaussianBelief(np.array([1.0, 2.0, -3.0]), np.eye(3))
        pyy = np.ones((2, 2))
        obs = PredictedObservation(y_hat=np.array([0.5, 0.5]), pxy=np.column_stack([v, v]), pyy=pyy)
        y = np.array([1.5, 0.7])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(pyy)
        jitter = 1e-9 * np.trace(pyy) / 2
        post = correct(pred, obs, y)
        assert np.all(np.isfinite(post.mean)) and np.all(np.isfinite(post.cov))
        # bit for bit the update a first-try factorization of the jittered matrix gives
        jittered = PredictedObservation(y_hat=obs.y_hat, pxy=obs.pxy, pyy=pyy + jitter * np.eye(2))
        direct = correct(pred, jittered, y)
        np.testing.assert_array_equal(post.mean, direct.mean)
        np.testing.assert_array_equal(post.cov, direct.cov)
        # and the exact update from Pyy + jitter I: (1, 1) is an eigenvector
        # of Pyy, so K = v (1, 1) / (2 + jitter); the factorization cancels
        # to relative accuracy eps * cond(Pyy + jitter I), about 4e-7 here
        # (the difference seen is 2e-5 of this bound)
        scale = 2 + jitter
        mean = pred.mean + v * (y - obs.y_hat).sum() / scale
        cov = pred.cov - np.outer(v, v) * 2 / scale
        tol = 4 * np.finfo(np.float64).eps * np.linalg.cond(pyy + jitter * np.eye(2))
        np.testing.assert_allclose(post.mean, mean, rtol=0, atol=tol * np.abs(mean).max())
        np.testing.assert_allclose(post.cov, cov, rtol=0, atol=tol * np.abs(cov).max())

    def test_overflowing_gain_raises_divergence(self):
        # a factor that succeeds but whose solve overflows is a divergence,
        # not a silently infinite posterior
        pred = GaussianBelief(np.zeros(2), np.eye(2))
        obs = PredictedObservation(y_hat=np.zeros(1), pxy=np.array([[1e10], [0.0]]), pyy=np.array([[1e-300]]))
        with pytest.raises(DivergenceError, match="gain"):
            correct(pred, obs, np.zeros(1))

    @pytest.mark.parametrize("moment", ["y_hat", "pxy", "pyy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_moment_raises_divergence(self, moment, bad):
        moments = {"y_hat": np.zeros(1), "pxy": np.ones((2, 1)), "pyy": np.array([[2.0]])}
        moments[moment] = moments[moment].copy()
        moments[moment].flat[0] = bad
        pred = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(DivergenceError, match="^observation moments are not finite$"):
            correct(pred, PredictedObservation(**moments), np.zeros(1))

    def test_bad_observation_shape_rejected(self):
        pred = GaussianBelief(np.zeros(1), np.eye(1))
        obs = PredictedObservation(y_hat=np.zeros(1), pxy=np.eye(1), pyy=np.eye(1))
        with pytest.raises(ValueError):
            correct(pred, obs, np.zeros(2))

    @pytest.mark.parametrize("pyy", [np.array([[1.0, 0.0, 0.0, 1.0]]), np.array([1.0, 0.0, 0.0, 1.0])])
    def test_misshaped_pyy_rejected(self, pyy):
        # m = 2: four entries in the wrong shape are not reshaped into a 2 x 2 Pyy
        pred = GaussianBelief(np.zeros(3), np.eye(3))
        obs = PredictedObservation(y_hat=np.zeros(2), pxy=np.ones((3, 2)), pyy=pyy)
        with pytest.raises(ValueError, match="pyy"):
            correct(pred, obs, np.zeros(2))

    @pytest.mark.parametrize("pxy", [np.ones((5, 1)), np.array([1.0, 0.5])])
    def test_misshaped_pxy_rejected(self, pxy):
        # Pxy must be (n, m) = (2, 1): neither a wrong row count nor a 1-D vector passes
        pred = GaussianBelief(np.zeros(2), np.eye(2))
        obs = PredictedObservation(y_hat=np.zeros(1), pxy=pxy, pyy=np.array([[2.0]]))
        with pytest.raises(ValueError, match="pxy"):
            correct(pred, obs, np.zeros(1))

    @staticmethod
    def _skewed_update(delta):
        """A two-observation update whose Pyy (largest entry 3) has one off-diagonal moved by delta."""
        pyy = np.array([[3.0, 0.5], [0.5, 2.0]])
        pyy[0, 1] += delta
        pred = GaussianBelief(np.array([1.0, -1.0]), np.eye(2))
        pxy = np.array([[0.6, 0.1], [0.2, 0.4]])
        return pred, pxy, pyy, np.array([0.7, -0.3])

    def test_asymmetric_pyy_rejected(self):
        # the guard's tolerance is 1e-8 * 3; 4e-8 is 1.3 times that
        pred, pxy, pyy, y = self._skewed_update(4e-8)
        with pytest.raises(ValueError, match="pyy"):
            correct(pred, PredictedObservation(y_hat=np.zeros(2), pxy=pxy, pyy=pyy), y)

    def test_rounding_asymmetry_uses_the_symmetric_part(self):
        pred, pxy, pyy, y = self._skewed_update(5e-9)
        post = correct(pred, PredictedObservation(y_hat=np.zeros(2), pxy=pxy, pyy=pyy), y)
        post_t = correct(pred, PredictedObservation(y_hat=np.zeros(2), pxy=pxy, pyy=pyy.T), y)
        np.testing.assert_array_equal(post.mean, post_t.mean)
        np.testing.assert_array_equal(post.cov, post_t.cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_is_an_input_error(self, bad):
        pred = GaussianBelief(np.zeros(2), np.eye(2))
        obs = PredictedObservation(y_hat=np.zeros(1), pxy=np.ones((2, 1)), pyy=np.array([[2.0]]))
        with pytest.raises(ValueError, match="observation"):
            correct(pred, obs, np.array([bad]))

    def test_non_finite_observation_in_a_run_is_not_a_divergence(self):
        n = 2
        model = linear_model(0.9 * np.eye(n), np.ones((1, n)), np.eye(n), np.eye(1))
        ys = np.zeros((5, 1))
        ys[2, 0] = np.nan
        with pytest.raises(ValueError, match="observation"):
            run_filter(model, scheme("ckf3"), ys, GaussianBelief(np.zeros(n), np.eye(n)), RngStream(0))


def _random_update(gen, n, m):
    """A random prediction, linear-Gaussian observation moments and observation."""
    a = gen.standard_normal((n, n))
    p = a @ a.T + 0.1 * np.eye(n)
    c = gen.standard_normal((m, n)) * 10 ** gen.uniform(-2, 2, (m, 1))
    r = np.diag(10 ** gen.uniform(-4, 1, m))
    pred = GaussianBelief(10 * gen.standard_normal(n), p)
    obs = PredictedObservation(y_hat=gen.standard_normal(m), pxy=p @ c.T, pyy=c @ p @ c.T + r)
    y = obs.y_hat + gen.standard_normal(m) * np.sqrt(np.diag(obs.pyy))
    return pred, obs, y


def _scipy_update(pred, obs, y):
    """The Kalman update through scipy's Cholesky factor and solve."""
    gain = cho_solve(cho_factor(obs.pyy, lower=True), obs.pxy.T).T
    return pred.mean + gain @ (y - obs.y_hat), symmetrize(pred.cov - gain @ obs.pxy.T)


class TestRunFilter:
    def _simulate_linear(self, a, c, q, r, x0, p0, steps, gen):
        n, m = a.shape[0], c.shape[0]
        x = x0 + np.linalg.cholesky(p0) @ gen.standard_normal(n)
        ys = np.zeros((steps, m))
        for k in range(steps):
            x = a @ x + np.linalg.cholesky(q + 1e-15 * np.eye(n)) @ gen.standard_normal(n)
            ys[k] = c @ x + np.linalg.cholesky(r) @ gen.standard_normal(m)
        return ys

    @pytest.mark.parametrize("label", CUBATURE_LABELS)
    def test_linear_gaussian_matches_kalman_oracle(self, label):
        n, m, steps = 2, 1, 100
        gen = np.random.default_rng(11)
        a = np.array([[0.9, 0.1], [0.0, 0.8]])
        c = np.array([[1.0, 0.5]])
        q = np.eye(n) * 0.4
        r = np.eye(m) * 0.6
        x0, p0 = np.zeros(n), np.eye(n)
        ys = self._simulate_linear(a, c, q, r, x0, p0, steps, gen)
        oracle = kalman_filter(a, c, q, r, x0, p0, ys)
        posts = run_filter(
            linear_model(a, c, q, r),
            scheme(label, n_m=3 if "sif" in label else 1),
            ys,
            GaussianBelief(x0, p0),
            RngStream(12, stream_id=label),
        )
        for post, (mean, cov) in zip(posts, oracle):
            np.testing.assert_allclose(post.mean, mean, atol=1e-6)
            np.testing.assert_allclose(post.cov, cov, atol=1e-6)

    def test_noiseless_identity_tracks_observations(self):
        n = 2
        model = StateSpaceModel(
            f=VectorFunction(lambda x: x, vectorized=True),
            h=VectorFunction(lambda x: x, vectorized=True),
            q=np.zeros((n, n)), r=np.zeros((n, n)),
        )
        truth = np.array([1.5, -0.5])
        ys = np.tile(truth, (10, 1))
        posts = run_filter(model, scheme("ckf3"), ys, GaussianBelief(np.zeros(n), np.eye(n)),
                           RngStream(13))
        for post in posts:
            np.testing.assert_allclose(post.mean, truth, atol=1e-9)

    def test_rerun_bit_identical(self):
        n = 2
        gen = np.random.default_rng(14)
        ys = gen.standard_normal((20, 1))
        model = StateSpaceModel(
            f=VectorFunction(lambda x: 0.9 * x, vectorized=True),
            h=VectorFunction(lambda x: (x**2).sum(axis=1), vectorized=True),
            q=np.eye(n), r=np.array([[0.5]]),
        )
        init = GaussianBelief(np.zeros(n), np.eye(n))
        a = run_filter(model, scheme("sif5", n_m=2), ys, init, RngStream(15))
        b = run_filter(model, scheme("sif5", n_m=2), ys, init, RngStream(15))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.mean, pb.mean)
            np.testing.assert_array_equal(pa.cov, pb.cov)

    def test_divergence_carries_step_index(self):
        n = 1

        def h(x):
            out = x[:, 0].copy()
            out[np.abs(x[:, 0]) > 500.0] = np.nan
            return out

        model = StateSpaceModel(
            f=VectorFunction(lambda x: 3.0 * x, vectorized=True),  # unstable dynamics
            h=VectorFunction(h, vectorized=True),
            q=np.eye(n), r=np.eye(1) * 1e6,
        )
        ys = np.full((40, 1), 0.0)
        with pytest.raises(DivergenceError) as err:
            run_filter(model, scheme("ckf3"), ys, GaussianBelief(np.full(n, 5.0), np.eye(n)),
                       RngStream(16))
        assert err.value.step is not None
        assert 0 < err.value.step < 40

    def test_empty_observations_rejected(self):
        model = StateSpaceModel(
            f=lambda x: x, h=lambda x: x, q=np.eye(1), r=np.eye(1)
        )
        with pytest.raises(ValueError):
            run_filter(model, scheme("ckf3"), np.zeros((0, 1)),
                       GaussianBelief(np.zeros(1), np.eye(1)), RngStream(0))

    def test_posterior_covariances_stay_usable(self):
        # nonlinear scalar-observation model: posteriors stay finite,
        # symmetric, and square-rootable at every step
        n = 3
        gen = np.random.default_rng(17)
        model = StateSpaceModel(
            f=VectorFunction(lambda x: 0.9 * x, vectorized=True),
            h=VectorFunction(lambda x: (1.0 + (x**2).sum(axis=1)) ** 2, vectorized=True),
            q=np.eye(n) * 100.0, r=np.array([[10.0]]),
        )
        xs = np.ones(n)
        ys = []
        for _ in range(30):
            xs = 0.9 * xs + 10.0 * gen.standard_normal(n)
            ys.append((1.0 + xs @ xs) ** 2 + np.sqrt(10.0) * gen.standard_normal())
        posts = run_filter(model, scheme("sif5", n_m=5), np.asarray(ys),
                           GaussianBelief(np.ones(n), 10.0 * np.eye(n)), RngStream(18))
        for post in posts:
            assert np.isfinite(post.mean).all()
            assert np.isfinite(np.trace(post.cov))
            np.testing.assert_array_equal(post.cov, post.cov.T)
            spd_sqrt(post.cov)  # conditioning keeps it factorizable


class TestLinearGaussianConsistency:
    """NEES and NIS of a polynomial-exact filter on a linear-Gaussian model.

    There the filter is the Kalman filter, so its reported covariances are
    exact: the innovations are white with covariance Pyy, and the state
    error at a fixed step is N(0, P).  Summed over runs (and, for the
    innovations, over steps) the normalized squared errors are chi-squared
    (Bar-Shalom, Li & Kirubarajan, 2001) and must fall inside two-sided
    99.9% bounds.  State errors are correlated over time, so NEES is tested
    at the final step only.
    """

    A = np.array([[0.95, 0.1, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 0.85]])
    C = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]])
    Q = np.array([[0.2, 0.05, 0.0], [0.05, 0.1, 0.0], [0.0, 0.0, 0.15]])
    R = np.array([[0.5, 0.1], [0.1, 0.3]])
    RUNS, STEPS, SEED = 50, 40, 41

    def _statistics(self, label):
        n, m = self.A.shape[0], self.C.shape[0]
        model = linear_model(self.A, self.C, self.Q, self.R)
        sch = scheme(label)
        lq, lr = np.linalg.cholesky(self.Q), np.linalg.cholesky(self.R)
        gen = np.random.default_rng(self.SEED)  # the same trajectories for every scheme
        nis = nees = 0.0
        for run in range(self.RUNS):
            x = np.sqrt(2.0) * gen.standard_normal(n)
            belief = GaussianBelief(np.zeros(n), 2.0 * np.eye(n))
            stream = RngStream(self.SEED).substream(label, run)
            for k in range(self.STEPS):
                x = self.A @ x + lq @ gen.standard_normal(n)
                y = self.C @ x + lr @ gen.standard_normal(m)
                pred = predict_state(belief, model, sch, stream.substream(k, 0))
                obs = predict_observation(pred, model, sch, stream.substream(k, 1))
                innov = y - obs.y_hat
                nis += innov @ np.linalg.solve(obs.pyy, innov)
                belief = correct(pred, obs, y)
            err = x - belief.mean
            nees += err @ np.linalg.solve(belief.cov, err)
        return nis, nees

    @pytest.mark.parametrize("label", ["ckf3", "sif5"])
    def test_nis_and_final_nees_inside_chi2_bounds(self, label):
        n, m = self.A.shape[0], self.C.shape[0]
        nis, nees = self._statistics(label)
        lo, hi = chi2.ppf([0.0005, 0.9995], self.RUNS * self.STEPS * m)
        assert lo <= nis <= hi, f"NIS {nis:.1f} outside [{lo:.1f}, {hi:.1f}]"
        lo, hi = chi2.ppf([0.0005, 0.9995], self.RUNS * n)
        assert lo <= nees <= hi, f"final NEES {nees:.1f} outside [{lo:.1f}, {hi:.1f}]"


@pytest.mark.filterwarnings("error")
class TestMomentOverflow:
    """A phase whose moments overflow ends the run as a divergence, at its step, with no warning."""

    def _model(self, f, h, n=2):
        return StateSpaceModel(
            f=VectorFunction(f, vectorized=True), h=VectorFunction(h, vectorized=True),
            q=np.eye(n), r=np.eye(1),
        )

    def test_state_prediction(self):
        model = self._model(lambda x: 1e200 * x, lambda x: x[:, 0])
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(DivergenceError, match="state prediction"):
            predict_state(belief, model, scheme("ckf3"), RngStream(0))
        with pytest.raises(DivergenceError) as err:
            run_filter(model, scheme("ckf3"), np.zeros((3, 1)), belief, RngStream(0))
        assert err.value.step == 0

    def test_observation_prediction(self):
        model = self._model(lambda x: x, lambda x: 1e200 * x[:, 0])
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(DivergenceError, match="observation prediction"):
            predict_observation(belief, model, scheme("ckf3"), RngStream(0))
        with pytest.raises(DivergenceError) as err:
            run_filter(model, scheme("ckf3"), np.zeros((3, 1)), belief, RngStream(0))
        assert err.value.step == 0

    def test_growth_model_run(self):
        # the first trajectory of `srcf filter-bench --n 2 --q 8 --nmc 1 --schemes ckf3`
        growth = GrowthModel(q=8, n=2)
        _, ys = simulate_trajectory(growth, 20, RngStream(0).substream("trajectory", 0))
        with pytest.raises(DivergenceError) as err:
            run_filter(growth.state_space(), scheme("ckf3"), ys, growth.init_belief(),
                       RngStream(0).substream("filter", "ckf3", 0))
        assert err.value.step == 5


class TestCentredMoments:
    @pytest.mark.parametrize("label", CUBATURE_LABELS)
    def test_large_mean_offset_keeps_moments(self, label):
        # f(x) = x + c and h(x) = c + x_0 at N(c 1, I): a raw E[v v^T] - mean mean^T
        # loses the unit spread to cancellation against c^2 = 1e12
        n, c = 3, 1e6
        model = StateSpaceModel(
            f=VectorFunction(lambda x: x + c, vectorized=True),
            h=VectorFunction(lambda x: c + x[:, 0], vectorized=True),
            q=np.eye(n), r=np.eye(1),
        )
        belief = GaussianBelief(np.full(n, c), np.eye(n))
        sch = scheme(label, n_m=1 if label.startswith("ckf") else 3)
        rng = RngStream(19, stream_id=label)
        for draw in range(5):
            pred = predict_state(belief, model, sch, rng.substream(draw, 0))
            np.testing.assert_allclose(pred.cov, 2.0 * np.eye(n), rtol=0, atol=1e-8)
            obs = predict_observation(belief, model, sch, rng.substream(draw, 1))
            assert np.any(obs.pxy)
            np.testing.assert_allclose(obs.pyy, [[2.0]], rtol=0, atol=1e-8)
            np.testing.assert_allclose(obs.pxy, np.eye(n)[:, :1], rtol=0, atol=1e-8)


class TestFallbackPolicy:
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("label", ["ckf3", "mc"])
    def test_positive_weight_rules_never_fall_back(self, label, q):
        # with non-negative weights the joint moment matrix is a Gram matrix,
        # so neither the zero-gain nor the skipped-correction fallback may fire
        model = GrowthModel(q=q, n=10)
        ssm = model.state_space()
        sch = scheme(label, mc=600)
        rng = RngStream(21, stream_id=q).substream(label)
        for run in range(10):
            _, ys = simulate_trajectory(model, 100, rng.substream("trajectory", run))
            belief = model.init_belief()
            stream = rng.substream("filter", run)
            for k, y in enumerate(ys):
                pred = predict_state(belief, ssm, sch, stream.substream(k, 0))
                obs = predict_observation(pred, ssm, sch, stream.substream(k, 1))
                assert np.any(obs.pxy), f"run {run} step {k}: zero gain"
                belief = correct(pred, obs, y)
                unchanged = np.array_equal(belief.mean, pred.mean) and np.array_equal(belief.cov, pred.cov)
                assert not unchanged, f"run {run} step {k}: correction skipped"


    @pytest.mark.parametrize("n", [6, 10])
    def test_zero_gain_forced_by_negative_vertex_weights(self, n):
        # ckf5 on N(0, I) with h(x) = sum x_i^4: at n = 10 the vertex weights
        # are negative and the raw Pyy comes out negative (-643.47), so the
        # estimate is rejected by zeroing Pxy alone, and correct skips the
        # update because Pyy = -642.47 does not factor; at n = 6 all weights
        # are positive and the raw estimate (Pyy = 190.37) passes through
        # untouched
        model = StateSpaceModel(
            f=VectorFunction(lambda x: x, vectorized=True),
            h=VectorFunction(lambda x: (x**4).sum(axis=1), vectorized=True),
            q=np.eye(n), r=np.eye(1),
        )
        belief = GaussianBelief(np.zeros(n), np.eye(n))
        sch = scheme("ckf5")
        obs = predict_observation(belief, model, sch, RngStream(0))
        x, w = sigma_points(belief, sch, RngStream(0))
        xh = np.asfortranarray(np.hstack([x, model.h.fn(x)[:, None]]))
        _, cross = filtering._centred_moments(xh, 1, x, w, np.empty_like(xh), np.empty((len(x), 1)))
        raw_pxy, raw_pyy = cross[:n], cross[n:]
        if n == 10:
            assert raw_pyy[0, 0] < 0
            assert not np.any(obs.pxy)
            np.testing.assert_array_equal(obs.pyy, raw_pyy + 1.0)
            post = correct(belief, obs, np.array([3.0]))
            np.testing.assert_array_equal(post.mean, belief.mean)
            np.testing.assert_array_equal(post.cov, belief.cov)
        else:
            assert raw_pyy[0, 0] > 0
            np.testing.assert_array_equal(obs.pxy, raw_pxy)
            np.testing.assert_array_equal(obs.pyy, raw_pyy + 1.0)

    def test_zero_gain_pyy_of_a_vector_observation_is_symmetric(self):
        # the m = 2 case of the test above: the rejected estimate keeps the
        # raw Pyy + R, which is exactly symmetric
        n = 10

        def h(x):
            s4 = (x**4).sum(axis=1)
            return np.column_stack([s4, s4 + 3.0 * x[:, 0] ** 2])

        model = StateSpaceModel(
            f=VectorFunction(lambda x: x, vectorized=True), h=VectorFunction(h, vectorized=True),
            q=np.eye(n), r=np.eye(2),
        )
        belief = GaussianBelief(np.zeros(n), np.eye(n))
        obs = predict_observation(belief, model, scheme("ckf5"), RngStream(0))
        assert obs.pxy.shape == (n, 2) and not np.any(obs.pxy)
        np.testing.assert_array_equal(obs.pyy, obs.pyy.T)
        post = correct(belief, obs, np.array([3.0, 4.0]))
        np.testing.assert_array_equal(post.mean, belief.mean)
        np.testing.assert_array_equal(post.cov, belief.cov)


def _observation_model(n, m):
    """A smooth observation with m components of an n-dimensional state."""

    def h(x):
        first = np.sin(x[:, 0]) + 0.1 * (x * x).sum(axis=1)
        return first if m == 1 else np.column_stack([first, x[:, 0] * x[:, 1] + x[:, -1]])

    return StateSpaceModel(
        f=VectorFunction(lambda x: x, vectorized=True), h=VectorFunction(h, vectorized=True),
        q=np.eye(n), r=np.eye(m),
    )


class TestObservationCrossMoments:
    """The observation update forms Pxy and Pyy only; the full joint Gram matrix is the oracle."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [2, 6, 10, 20])
    @pytest.mark.parametrize("label", CUBATURE_LABELS + ["mc"])
    def test_blocks_match_the_full_joint(self, label, n, m):
        model = _observation_model(n, m)
        gen = np.random.default_rng(n * 10 + m)
        a = gen.standard_normal((n, n))
        belief = GaussianBelief(0.5 * gen.standard_normal(n), a @ a.T / n + 0.5 * np.eye(n))
        sch = scheme(label, n_m=1 if label.startswith("ckf") else 3)
        stream = RngStream(31, stream_id=label)
        obs = predict_observation(belief, model, sch, stream.substream(n, m))
        x, w = sigma_points(belief, sch, stream.substream(n, m))
        mean, joint = joint_moments(x, model.h.fn(x), w)
        assert np.any(obs.pxy)
        scale = np.sqrt(np.diag(joint))
        np.testing.assert_allclose(obs.y_hat, mean[n:], rtol=1e-13, atol=1e-13 * scale[n:].max())
        np.testing.assert_allclose(obs.pxy, joint[:n, n:], rtol=0,
                                   atol=1e-12 * np.outer(scale[:n], scale[n:]).max())
        np.testing.assert_allclose(obs.pyy, joint[n:, n:] + model.r, rtol=0,
                                   atol=1e-12 * scale[n:].max() ** 2)

    @pytest.mark.parametrize("label,n_m", [("sif3", 50), ("sif5", 10), ("qsif5", 10), ("ckf5", 1)])
    @pytest.mark.parametrize("q", [2, 4])
    @pytest.mark.parametrize("n", [10, 20])
    def test_zero_gain_decision_matches_the_full_joint_check(self, n, q, label, n_m):
        # the check runs on L L^T where the drawn joint has the drawn Sxx, and
        # only where a weight is negative; at every step of a growth-model run
        # its decision must be the one the drawn joint gives
        model = GrowthModel(q=q, n=n)
        ssm = model.state_space()
        sch = scheme(label, n_m=n_m)
        _, ys = simulate_trajectory(model, 40, RngStream(33).substream("trajectory", n, q))
        stream = RngStream(34, stream_id=label).substream(n, q)
        belief = model.init_belief()
        rejected = 0
        for k, y in enumerate(ys):
            pred = predict_state(belief, ssm, sch, stream.substream(k, 0))
            obs = predict_observation(pred, ssm, sch, stream.substream(k, 1))
            x, w = sigma_points(pred, sch, stream.substream(k, 1))
            usable = joint_usable(joint_moments(x, model.observe(x), w)[1])
            assert bool(np.any(obs.pxy)) == usable, f"step {k}"
            rejected += not usable
            belief = correct(pred, obs, y)
        if label == "sif5":
            assert rejected > 0  # the runs exercise both decisions

    @pytest.mark.parametrize("label", ["ckf3", "mc"])
    def test_non_negative_weights_skip_the_check(self, monkeypatch, label):
        def fail(joint):
            raise AssertionError("checked a joint drawn with non-negative weights")

        monkeypatch.setattr(filtering, "_observation_estimate_usable", fail)
        model = GrowthModel(q=4, n=10)
        _, ys = simulate_trajectory(model, 10, RngStream(35).substream("trajectory"))
        run_filter(model.state_space(), scheme(label, mc=500), ys, model.init_belief(),
                   RngStream(36, stream_id=label))

    def test_check_reads_the_root_the_points_were_drawn_under(self):
        # the belief's covariance is indefinite, so its root is eigen-clamped:
        # the ckf5 points (negative vertex weights at n = 10) reproduce the
        # clamped L L^T, and the estimate is usable, while a joint with the
        # belief's covariance as its state block would not be
        n = 10
        model = StateSpaceModel(
            f=VectorFunction(lambda x: x, vectorized=True),
            h=VectorFunction(lambda x: x[:, 0], vectorized=True),
            q=np.eye(n), r=np.eye(1),
        )
        belief = GaussianBelief(np.zeros(n), np.diag([1.0] * (n - 1) + [-0.05]))
        sch = scheme("ckf5")
        obs = predict_observation(belief, model, sch, RngStream(37))
        x, w = sigma_points(belief, sch, RngStream(37))
        assert w.min() < 0
        assert np.any(obs.pxy)
        root = spd_sqrt(belief.cov)
        pyy = obs.pyy - model.r
        assert joint_usable(np.block([[root @ root.T, obs.pxy], [obs.pxy.T, pyy]]))
        assert not joint_usable(np.block([[belief.cov, obs.pxy], [obs.pxy.T, pyy]]))

    def test_mc_cross_covariance_does_not_depend_on_where_x_is_centred(self):
        # sum_p w_p (h_p - y_hat) = 0, so centring x at its drawn mean or at the
        # belief's mean gives the same Pxy up to rounding
        n = 6
        model = _observation_model(n, 2)
        belief = GaussianBelief(np.linspace(-1.0, 1.0, n), np.eye(n) + 0.3 * np.ones((n, n)))
        sch = scheme("mc", mc=400)
        obs = predict_observation(belief, model, sch, RngStream(38))
        x, w = sigma_points(belief, sch, RngStream(38))
        hx = model.h.fn(x)
        dh = hx - w @ hx
        at_drawn_mean = (w[:, None] * (x - w @ x)).T @ dh
        at_belief_mean = (w[:, None] * (x - belief.mean)).T @ dh
        assert np.abs(w @ x - belief.mean).max() > 1e-2  # the two centres differ
        scale = np.abs(w[:, None] * (x - belief.mean)).T @ np.abs(dh)
        np.testing.assert_array_less(np.abs(at_drawn_mean - at_belief_mean), 1e-13 * scale)
        np.testing.assert_allclose(obs.pxy, at_drawn_mean, rtol=0, atol=1e-13 * scale.max())


def _assert_same_posteriors(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.mean, pb.mean)
        np.testing.assert_array_equal(pa.cov, pb.cov)


def _growth_run(n, label, n_m, steps=4):
    """The ``run_filter`` arguments of a short growth-model run at dimension n."""
    model = GrowthModel(q=2, n=n)
    _, ys = simulate_trajectory(model, steps, RngStream(23).substream("trajectory", n))
    return model.state_space(), scheme(label, n_m=n_m), ys, model.init_belief(), RngStream(24, stream_id=n)


class TestPhaseScratch:
    """The filter phases reuse per-thread point buffers; results must not notice."""

    def test_results_survive_later_phases(self):
        def assert_own_memory(*arrays):
            for arr in arrays:
                assert not np.shares_memory(arr, filtering._scratch.buffer)

        small, sch, _, init, rng = _growth_run(4, "sif5", 3)
        pred = predict_state(init, small, sch, rng.substream(0, 0))
        assert_own_memory(pred.mean, pred.cov)
        obs = predict_observation(pred, small, sch, rng.substream(0, 1))
        assert_own_memory(obs.y_hat, obs.pxy, obs.pyy)
        kept = [pred.mean, pred.cov, obs.y_hat, obs.pxy, obs.pyy]
        copies = [arr.copy() for arr in kept]
        predict_observation(predict_state(pred, small, sch, rng.substream(1, 0)), small, sch,
                            rng.substream(1, 1))
        large, sch20, _, init20, _ = _growth_run(20, "sif5", 10)  # grows the buffer
        predict_observation(predict_state(init20, large, sch20, rng.substream(2, 0)), large, sch20,
                            rng.substream(2, 1))
        for arr, copy in zip(kept, copies):
            np.testing.assert_array_equal(arr, copy)

    def test_concurrent_runs_match_sequential(self):
        cases = [_growth_run(20, "sif5", 10), _growth_run(10, "sif3", 50)] * 2  # more threads than CPUs
        expected = [run_filter(*case) for case in cases[:2]] * 2
        results = [None] * len(cases)
        start = threading.Barrier(len(cases))

        def work(i):
            start.wait(timeout=60)
            results[i] = run_filter(*cases[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            _assert_same_posteriors(got, want)

    def test_model_running_a_phase_inside_h(self):
        n = 3
        sch = scheme("sif5", n_m=3)
        inner_model = linear_model(np.eye(n) * 0.5, np.eye(n), np.eye(n), np.eye(n))
        inner_prior = GaussianBelief(np.arange(1.0, n + 1), 2.0 * np.eye(n))

        def inner_offset():
            return predict_state(inner_prior, inner_model, sch, RngStream(25)).mean[0]

        def nested_h(x):
            offset = inner_offset()  # same point count as the outer phase
            return (x * x).sum(axis=1) + offset

        offset = inner_offset()

        def plain_h(x):
            return (x * x).sum(axis=1) + offset

        def model(h):
            return StateSpaceModel(f=VectorFunction(lambda x: 0.9 * x, vectorized=True),
                                   h=VectorFunction(h, vectorized=True),
                                   q=np.eye(n), r=np.eye(1))

        ys = np.random.default_rng(26).standard_normal((8, 1)) + 10.0
        init = GaussianBelief(np.ones(n), np.eye(n))
        _assert_same_posteriors(run_filter(model(nested_h), sch, ys, init, RngStream(27)),
                                run_filter(model(plain_h), sch, ys, init, RngStream(27)))

    def test_model_returning_its_input(self):
        n = 3

        def model(copy):
            fn = (lambda x: x.copy(order="K")) if copy else (lambda x: x)
            return StateSpaceModel(f=VectorFunction(fn, vectorized=True),
                                   h=VectorFunction(fn, vectorized=True),
                                   q=np.eye(n), r=np.eye(n))

        ys = np.random.default_rng(28).standard_normal((8, n))
        init = GaussianBelief(np.zeros(n), np.eye(n))
        sch = scheme("sif5", n_m=3)
        _assert_same_posteriors(run_filter(model(False), sch, ys, init, RngStream(29)),
                                run_filter(model(True), sch, ys, init, RngStream(29)))

    @pytest.mark.parametrize("failure", ["nan from f", "nan from h", "overflow in h"])
    def test_a_failing_phase_gives_the_buffer_back(self, failure):
        # after the phase raises, the next phase writes its points into the same
        # buffer (a phase that found it busy would get a fresh array), and the
        # caller's numpy error settings are as they were
        n, sch = 3, scheme("sif5", n_m=2)
        belief = GaussianBelief(np.zeros(n), np.eye(n))
        in_buffer = []

        def recorded(fn):
            def wrapped(x):
                in_buffer.append(np.shares_memory(x, filtering._scratch.buffer))
                return fn(x)
            return VectorFunction(wrapped, vectorized=True)

        def model(f, h):
            return StateSpaceModel(f=recorded(f), h=recorded(h), q=np.eye(n), r=np.eye(1))

        def both_phases(ssm, seed):
            pred = predict_state(belief, ssm, sch, RngStream(seed).substream(0))
            return predict_observation(pred, ssm, sch, RngStream(seed).substream(1))

        plain = model(lambda x: x, lambda x: x[:, 0])
        phase, error, failing = {
            "nan from f": (predict_state, IntegrandError,
                           model(lambda x: np.full_like(x, np.nan), lambda x: x[:, 0])),
            "nan from h": (predict_observation, IntegrandError,
                           model(lambda x: x, lambda x: np.full(len(x), np.nan))),
            "overflow in h": (predict_observation, DivergenceError,
                              model(lambda x: x, lambda x: 1e200 * x[:, 0])),
        }[failure]
        both_phases(plain, 40)  # sizes the buffer for both phases
        buffer = filtering._scratch.buffer
        with np.errstate(over="raise", invalid="raise"):
            settings = np.geterr()
            with pytest.raises(error):
                phase(belief, failing, sch, RngStream(41))
            assert np.geterr() == settings
            in_buffer.clear()
            both_phases(plain, 42)
            assert np.geterr() == settings
        assert filtering._scratch.buffer is buffer
        assert in_buffer == [True, True]

    def test_observation_points_are_written_beside_their_values(self):
        # the rule layer writes x straight into the joint [x, h(x)] buffer
        ssm, sch, _, init, rng = _growth_run(5, "sif5", 3)
        seen = []

        def h(x):
            seen.append(x.flags.f_contiguous and np.shares_memory(x, filtering._scratch.buffer))
            return ssm.h.fn(x)

        model = StateSpaceModel(f=ssm.f, h=VectorFunction(h, vectorized=True), q=ssm.q, r=ssm.r)
        predict_observation(init, model, sch, rng)
        assert seen == [True]

    def test_nested_phase_points_are_column_major(self):
        n = 3
        sch = scheme("sif5", n_m=2)
        layouts = []

        def inner_f(x):
            layouts.append(x.flags.f_contiguous)
            return 0.5 * x

        inner = StateSpaceModel(f=VectorFunction(inner_f, vectorized=True), h=lambda x: x,
                                q=np.eye(n), r=np.eye(n))

        def nested_h(x):
            layouts.append(x.flags.f_contiguous)
            predict_state(GaussianBelief(np.zeros(n), np.eye(n)), inner, sch, RngStream(32))
            return (x * x).sum(axis=1)

        outer = StateSpaceModel(f=VectorFunction(lambda x: x, vectorized=True),
                                h=VectorFunction(nested_h, vectorized=True),
                                q=np.eye(n), r=np.eye(1))
        predict_observation(GaussianBelief(np.ones(n), np.eye(n)), outer, sch, RngStream(33))
        assert layouts == [True, True]

    def test_row_major_model_values(self):
        # a transition returning a row-major stack runs the same reduction in
        # another summation order: the posteriors agree to rounding
        ssm, sch, ys, init, rng = _growth_run(10, "sif5", 5, steps=6)

        def model(f):
            return StateSpaceModel(f=VectorFunction(f, vectorized=True), h=ssm.h, q=ssm.q, r=ssm.r)

        given = run_filter(model(lambda x: x), sch, ys, init, rng)
        row_major = run_filter(model(lambda x: np.ascontiguousarray(x)), sch, ys, init, rng)
        for a, b in zip(given, row_major):
            for got, want in ((a.mean, b.mean), (a.cov, b.cov)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="page-fault counts reflect glibc's allocator")
    def test_sif5_steps_do_not_fault_pages(self):
        # fresh (points, n) arrays on every phase let glibc return their pages to the
        # system and fault them in again on the next phase: about 3000 minor faults
        # per step at n = 20
        import resource

        ssm, sch, ys, belief, rng = _growth_run(20, "sif5", 10, steps=23)

        def step(k, belief):
            pred = predict_state(belief, ssm, sch, rng.substream(k, 0))
            obs = predict_observation(pred, ssm, sch, rng.substream(k, 1))
            return correct(pred, obs, ys[k])

        for k in range(3):
            belief = step(k, belief)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for k in range(3, 23):
            belief = step(k, belief)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 20 < 50, f"{faults / 20:.0f} minor page faults per sif5 step at n = 20"
