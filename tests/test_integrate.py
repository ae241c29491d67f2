import numpy as np
import pytest

from srcf.filtering import DivergenceError, StateSpaceModel, predict_observation, predict_state
from srcf.integrate import (
    GaussianBelief,
    IntegrandError,
    VectorFunction,
    expect,
    sigma_points,
)
from srcf.linalg import spd_sqrt
from srcf.rng import RngStream
from srcf.rules import IntegrationScheme, draw_rule_batch, points_per_draw

ALL_LABELS = ["ckf3", "ckf5", "sif3", "sif5", "qsif5", "mc"]


def scheme(label, n_m=1, mc=2000):
    return IntegrationScheme.from_label(label, n_m=n_m, mc_samples=mc if label == "mc" else None)


EPS = np.finfo(np.float64).eps


def assert_is_affine_image(x, mean, points, root):
    """x equals mean + points @ root.T up to the rounding of the two ways.

    Each coordinate of either side sums n products, in one matrix product
    or in two (the rule layer maps directions, not points), so the two
    differ by a few roundings of |mean_j| + ||c|| ||L_j|| (L_j the j-th row
    of L); allow 2(n + 1) of them.
    """
    n = mean.shape[0]
    points = points.reshape(-1, n)
    scale = np.abs(mean) + np.linalg.norm(points, axis=1)[:, None] * np.linalg.norm(root, axis=1)
    err = np.abs(x - (mean + points @ root.T))
    assert np.all(err <= 2 * (n + 1) * EPS * scale), (err / (EPS * scale)).max()


def random_belief(n, seed):
    gen = np.random.default_rng(seed)
    m = gen.standard_normal((n, n))
    return GaussianBelief(gen.standard_normal(n), m @ m.T + np.eye(n))


class TestFirstMoments:
    @pytest.mark.parametrize("label", ["ckf3", "ckf5", "sif3", "sif5", "qsif5"])
    def test_identity_recovers_mean(self, label):
        belief = random_belief(4, 1)
        est = expect(
            VectorFunction(lambda x: x, vectorized=True),
            belief,
            scheme(label, n_m=3 if label.startswith(("sif", "qsif")) else 1),
            RngStream(2, stream_id=label),
        )
        np.testing.assert_allclose(est, belief.mean, atol=1e-9)

    def test_constant_is_exact_for_every_scheme(self):
        belief = random_belief(3, 2)
        for label in ALL_LABELS:
            est = expect(
                VectorFunction(lambda x: np.ones(x.shape[0]), vectorized=True),
                belief,
                scheme(label),
                RngStream(3, stream_id=label),
            )
            assert abs(float(est) - 1.0) < 1e-12

    def test_second_moment_per_draw_sif5(self):
        n = 5
        belief = GaussianBelief(np.zeros(n), np.eye(n))
        fn = VectorFunction(lambda x: np.einsum("pi,pj->pij", x, x), vectorized=True)
        for draw in range(10):
            est = expect(fn, belief, scheme("sif5"), RngStream(4).substream(draw))
            np.testing.assert_allclose(est, np.eye(n), atol=1e-9)


class TestSigmaPoints:
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_stacks_every_draw_with_folded_weights(self, label):
        n, n_m = 4, 1 if label.startswith("ckf") else 3
        belief = random_belief(n, 15)
        sch = scheme(label, n_m=n_m, mc=50)
        x, w = sigma_points(belief, sch, RngStream(16, stream_id=label))
        points, weights = draw_rule_batch(sch, n, n_m, RngStream(16, stream_id=label))
        assert x.shape == (points.shape[0] * points.shape[1], n)
        np.testing.assert_array_equal(w, weights.reshape(-1) / n_m)
        assert abs(w.sum() - 1.0) < 1e-12
        assert_is_affine_image(x, belief.mean, points, spd_sqrt(belief.cov))

    def test_expect_is_weighted_sum_over_sigma_points(self):
        belief = random_belief(3, 17)
        sch = scheme("sif5", n_m=4)
        fn = VectorFunction(lambda x: np.cos(x), vectorized=True)
        x, w = sigma_points(belief, sch, RngStream(18))
        np.testing.assert_array_equal(expect(fn, belief, sch, RngStream(18)), w @ np.cos(x))


class TestStateSpaceAssembly:
    """The rule layer writes the points of N(mean, L L^T) directly."""

    @pytest.mark.parametrize("n", [2, 6, 10, 20])
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_points_are_the_affine_image_of_the_rule(self, label, n):
        sch = scheme(label, n_m=1 if label.startswith("ckf") else 3, mc=50)
        belief = GaussianBelief(
            10.0 * np.random.default_rng(n).standard_normal(n), random_belief(n, 25 + n).cov
        )
        x, _ = sigma_points(belief, sch, RngStream(26, stream_id=label))
        points, _ = draw_rule_batch(sch, n, sch.n_m, RngStream(26, stream_id=label))
        assert_is_affine_image(x, belief.mean, points, spd_sqrt(belief.cov))

    @pytest.mark.parametrize("n", [2, 6, 10, 20])
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_identity_belief_gives_the_standard_draw(self, label, n):
        sch = scheme(label, n_m=1 if label.startswith("ckf") else 3, mc=50)
        x, w = sigma_points(GaussianBelief(np.zeros(n), np.eye(n)), sch, RngStream(27).substream(n))
        points, weights = draw_rule_batch(sch, n, sch.n_m, RngStream(27).substream(n))
        assert x.tobytes() == points.tobytes()
        np.testing.assert_array_equal(w, weights.reshape(-1) / sch.n_m)

    def test_points_go_into_the_given_buffer(self):
        # a row-major array, a column-major one and a column slice of a wider array
        n = 4
        belief = random_belief(n, 28)
        for label in ALL_LABELS:
            sch = scheme(label, n_m=1 if label.startswith("ckf") else 2, mc=40)
            rows = sch.n_m * points_per_draw(sch, n)
            expected = sigma_points(belief, sch, RngStream(29))[0]
            for out in (np.empty((rows, n)), np.empty((rows, n), order="F"),
                        np.empty((rows, n + 3), order="F")[:, 1:n + 1]):
                x, _ = sigma_points(belief, sch, RngStream(29), out=out)
                assert np.shares_memory(x, out) and np.array_equal(x, out)
                assert x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_points_are_column_major(self, label):
        belief, sch = random_belief(5, 30), scheme(label, n_m=1 if label.startswith("ckf") else 3, mc=40)
        x, _ = sigma_points(belief, sch, RngStream(31))
        xs, _ = sigma_points(belief, sch, [RngStream(31).substream(r) for r in range(4)])
        assert x.flags.f_contiguous and xs.flags.f_contiguous


class TestStreamSequence:
    """A sequence of streams: one lockstep integral per stream."""

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_each_estimate_equals_a_lone_stream(self, label):
        n = 5
        belief = random_belief(n, 19)
        sch = scheme(label, n_m=1 if label.startswith("ckf") else 3, mc=40)
        fn = VectorFunction(lambda x: np.stack([np.sin(x).sum(axis=1), x[:, 0] ** 3], axis=1),
                            vectorized=True)
        streams = [RngStream(20).substream(label, r) for r in range(7)]
        est = expect(fn, belief, sch, streams)
        assert est.shape == (7, 2)
        for row, stream in zip(est, [RngStream(20).substream(label, r) for r in range(7)]):
            np.testing.assert_array_equal(row, expect(fn, belief, sch, stream))

    def test_sigma_points_stack_one_block_per_stream(self):
        n, sch = 3, scheme("sif5", n_m=2)
        belief = random_belief(n, 21)
        x, w = sigma_points(belief, sch, [RngStream(22).substream(r) for r in range(4)])
        assert w.shape[0] == 4 and x.shape == (w.size, n)
        for r, block in enumerate(np.split(x, 4)):
            x1, w1 = sigma_points(belief, sch, RngStream(22).substream(r))
            np.testing.assert_array_equal(block, x1)
            np.testing.assert_array_equal(w[r], w1)

    def test_non_finite_check_covers_every_stream(self):
        # only the last point of the last stream is bad
        fn = VectorFunction(lambda x: np.where(np.arange(len(x)) == len(x) - 1, np.nan, 1.0),
                            vectorized=True)
        sch = scheme("sif3")
        with pytest.raises(IntegrandError) as err:
            expect(fn, random_belief(2, 23), sch, [RngStream(24).substream(r) for r in range(3)])
        assert err.value.index == 3 * (2 * 2 + 1) - 1


class TestBatchSemantics:
    """Estimates that share one set of sigma points."""

    def test_batch_of_one_equals_expect(self):
        belief = random_belief(3, 5)
        fn = VectorFunction(lambda x: np.sin(x).sum(axis=1), vectorized=True)
        sch = scheme("sif5", n_m=4)
        a = expect(fn, belief, sch, RngStream(6).substream(0))
        b = expect(fn, belief, sch, [RngStream(6).substream(0)])
        assert b.shape == (1,) and float(a) == float(b[0])

    def test_shared_draws_give_psd_covariance(self):
        # P = E[f f^T] - E[f] E[f]^T must be PSD when both use the same draws
        n = 4
        a = np.random.default_rng(7).standard_normal((n, n))
        belief = random_belief(n, 8)
        for label in ["ckf3", "sif3", "sif5", "mc"]:
            x, w = sigma_points(
                belief, scheme(label, n_m=2 if label.startswith("sif") else 1),
                RngStream(9, stream_id=label),
            )
            fx = x @ a.T
            m1, m2 = w @ fx, np.einsum("p,pi,pj->ij", w, fx, fx)
            assert np.linalg.eigvalsh(m2 - np.outer(m1, m1)).min() > -1e-9

    def test_moments_batch_on_standard_normal(self):
        n = 3
        x, w = sigma_points(GaussianBelief(np.zeros(n), np.eye(n)), scheme("sif5"), RngStream(10))
        np.testing.assert_allclose(w @ x, 0.0, atol=1e-9)
        np.testing.assert_allclose(np.einsum("p,pi,pj->ij", w, x, x), np.eye(n), atol=1e-9)


class TestEstimateStructure:
    def test_expect_is_plain_weighted_sum(self):
        # same substream: expect must equal the explicit weighted average,
        # and that average is invariant under point reordering
        n = 4
        belief = random_belief(n, 11)
        sch = scheme("sif5", n_m=3)
        fn = VectorFunction(lambda x: np.exp(0.1 * x.sum(axis=1)), vectorized=True)

        est = expect(fn, belief, sch, RngStream(12).substream(1))

        points, weights = draw_rule_batch(sch, n, sch.n_m, RngStream(12).substream(1))
        root = spd_sqrt(belief.cov)
        manual = []
        perm = np.random.default_rng(0).permutation(points.shape[1])
        shuffled = []
        for l in range(sch.n_m):
            x = belief.mean + points[l] @ root.T
            vals = fn.fn(x)
            manual.append(weights[l] @ vals)
            shuffled.append(weights[l][perm] @ vals[perm])
        assert abs(float(est) - np.mean(manual)) < 1e-12
        assert abs(np.mean(manual) - np.mean(shuffled)) < 1e-12

    def test_mc_error_decays_like_inverse_sqrt(self):
        n = 3
        a = np.array([0.3, -0.5, 0.2])
        truth = float(np.exp(0.5 * a @ a))
        belief = GaussianBelief(np.zeros(n), np.eye(n))
        fn = VectorFunction(lambda x: np.exp(x @ a), vectorized=True)
        sizes = [100, 1000, 10_000, 100_000]
        mean_abs_err = []
        for size in sizes:
            errs = [
                abs(float(expect(fn, belief, scheme("mc", mc=size), RngStream(13).substream(size, r))) - truth)
                for r in range(48)
            ]
            mean_abs_err.append(np.mean(errs))
        slope = np.polyfit(np.log10(sizes), np.log10(mean_abs_err), 1)[0]
        assert -0.6 < slope < -0.4


class TestDiagnostics:
    def test_nan_integrand_reports_point(self):
        belief = GaussianBelief(np.zeros(2), np.eye(2))

        def bad(x):
            out = x.sum(axis=1)
            out[3] = np.nan
            return out

        with pytest.raises(IntegrandError) as err:
            expect(VectorFunction(bad, vectorized=True), belief, scheme("ckf3"), RngStream(0))
        assert err.value.index == 3
        assert err.value.point is not None

    def test_unvectorized_callable_path(self):
        belief = random_belief(3, 14)
        est_plain = expect(lambda x: x[0] ** 2, belief, scheme("ckf5"), RngStream(1))
        est_vec = expect(
            VectorFunction(lambda x: x[:, 0] ** 2, vectorized=True),
            belief, scheme("ckf5"), RngStream(1),
        )
        assert abs(float(est_plain) - float(est_vec)) < 1e-14

    def test_scheme_dimension_mismatch(self):
        belief = GaussianBelief(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            expect(lambda x: x, belief, scheme("sif5"), RngStream(0))


def _integrate(caller, fn, belief, sch, rng):
    """Take fn's weighted sum through `expect` or as the model function of one filter phase."""
    if caller.startswith("expect"):
        return expect(fn, belief, sch, rng)
    n, identity = belief.dim, VectorFunction(lambda x: x, vectorized=True)
    f, h = (fn, identity) if caller == "predict_state" else (identity, fn)
    phase = predict_state if caller == "predict_state" else predict_observation
    return phase(belief, StateSpaceModel(f=f, h=h, q=np.eye(n), r=np.eye(n)), sch, rng)


class TestNonFiniteIntegrand:
    """The weighted sum finds a non-finite value; the scan that names its point runs only then."""

    CALLERS = ["expect", "expect over 3 streams", "predict_state", "predict_observation"]

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("caller", CALLERS)
    def test_integrand_error_names_the_point(self, caller, where, value):
        belief, sch = random_belief(3, 41), scheme("sif5", n_m=2)

        def rng():
            if caller == "expect over 3 streams":
                return [RngStream(42).substream(r) for r in range(3)]
            return RngStream(42)

        x, _ = sigma_points(belief, sch, rng())
        index = {"first": 0, "middle": x.shape[0] // 2, "last": x.shape[0] - 1}[where]

        def fn(x):
            out = 2.0 * x
            out[index] = value
            return out

        with pytest.raises(IntegrandError) as err:
            _integrate(caller, VectorFunction(fn, vectorized=True), belief, sch, rng())
        assert err.value.index == index
        np.testing.assert_array_equal(err.value.point, x[index])

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_value_at_a_zero_weight_point_is_found(self, value):
        # ckf5 at n = 7 gives its vertex points weight 0: 0 * inf and 0 * nan are NaN
        n, sch = 7, scheme("ckf5")
        belief = GaussianBelief(np.zeros(n), np.eye(n))
        x, w = sigma_points(belief, sch, RngStream(43))
        index = int(np.flatnonzero(w == 0)[0])

        def fn(x):
            out = x.sum(axis=1)
            out[index] = value
            return out

        with pytest.raises(IntegrandError) as err:
            expect(VectorFunction(fn, vectorized=True), belief, sch, RngStream(43))
        assert err.value.index == index
        np.testing.assert_array_equal(err.value.point, x[index])

    @pytest.mark.parametrize("caller", CALLERS)
    def test_overflowing_sum_of_finite_values(self, caller):
        # ckf5 at n = 10 has negative weights, and sum |w| > 1.2: values of
        # 1.5e308 signed like their weights sum past the largest float; that
        # is an infinite estimate in expect and a divergence in a phase
        n, sch = 10, scheme("ckf5")
        belief = GaussianBelief(np.zeros(n), np.eye(n))
        _, w = sigma_points(belief, sch, RngStream(44))
        sign = np.sign(w)[:, None]
        huge = VectorFunction(lambda x: 1.5e308 * np.tile(sign, (len(x) // len(w), x.shape[1])),
                              vectorized=True)
        streams = ([RngStream(44).substream(r) for r in range(3)] if caller == "expect over 3 streams"
                   else RngStream(44))
        if caller.startswith("expect"):
            with np.errstate(over="ignore"):
                assert np.all(_integrate(caller, huge, belief, sch, streams) == np.inf)
        else:
            with pytest.raises(DivergenceError, match=caller.split("_")[1] + " prediction"):
                _integrate(caller, huge, belief, sch, streams)


class TestBeliefValidation:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief(np.array([np.nan]), np.eye(1))

    def test_scalar_cov_promoted(self):
        b = GaussianBelief(np.zeros(1), 4.0)
        assert b.cov.shape == (1, 1)
