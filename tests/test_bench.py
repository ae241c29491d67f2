import tracemalloc

import numpy as np
import pytest

import srcf.bench as bench_mod
from srcf.bench import (
    GrowthModel,
    g_sum_powers,
    run_filter_bench,
    run_integral_bench,
    simulate_trajectory,
    true_integral_sum_powers,
)
from srcf.filtering import DivergenceError
from srcf.integrate import GaussianBelief, VectorFunction, expect, sigma_points
from srcf.filtering import StateSpaceModel
from srcf.rng import RngStream
from srcf.rules import IntegrationScheme, points_per_draw

from oracles import normal_power_moment_quad


def scheme(label, n_m=1, mc=600):
    return IntegrationScheme.from_label(label, n_m=n_m, mc_samples=mc if label == "mc" else None)


class TestTrueIntegral:
    @pytest.mark.parametrize("n,expected", [(1, 0.0), (2, 1.0), (6, 19.0), (8, 124.0)])
    def test_known_values(self, n, expected):
        assert true_integral_sum_powers(n) == expected

    @pytest.mark.parametrize("n", [1, 3, 6, 8, 11])
    def test_matches_quadrature_oracle(self, n):
        oracle = sum(normal_power_moment_quad(p) for p in range(1, n + 1))
        assert abs(true_integral_sum_powers(n) - oracle) < 1e-8


class TestGSumPowers:
    def test_zero(self):
        assert g_sum_powers(np.zeros(5)) == 0.0

    def test_ones(self):
        assert g_sum_powers(np.ones(7)) == 7.0

    def test_hand_value(self):
        assert g_sum_powers(np.array([2.0, 3.0, 4.0])) == 75.0

    def test_batch_matches_single(self):
        gen = np.random.default_rng(0)
        xs = gen.standard_normal((20, 4))
        batch = g_sum_powers(xs)
        np.testing.assert_allclose(batch, [g_sum_powers(x) for x in xs], rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
    def test_agrees_with_float_pow(self, n):
        # the running product rounds differently from pow; bound fixed from the dtype
        gen = np.random.default_rng(n)
        xs = 1.5 * gen.standard_normal((4, 500, n))
        powers = np.arange(1, n + 1)
        reference = (xs ** powers).sum(axis=-1)
        bound = n * np.finfo(np.float64).eps * (np.abs(xs) ** powers).sum(axis=-1)
        assert np.all(np.abs(g_sum_powers(xs) - reference) <= bound)

    def test_leaves_its_input_unchanged(self):
        x = np.array([2.0, 3.0, 4.0])
        g_sum_powers(x)
        np.testing.assert_array_equal(x, [2.0, 3.0, 4.0])


class TestIntegralBench:
    def test_deterministic_rows_reproducible_and_ordered(self):
        schemes = [scheme("ckf3"), scheme("ckf5")]
        a = run_integral_bench(6, schemes, 1, RngStream(5))
        b = run_integral_bench(6, schemes, 1, RngStream(5))
        assert a.rows == b.rows
        ckf3, ckf5 = a.rows
        # the 2n-point rule evaluates this integrand to exactly 43
        assert abs(ckf3.re_mean_pct - 100.0 * 24.0 / 19.0) < 1e-9
        assert ckf3.re_max_pct == ckf3.re_mean_pct
        assert ckf5.re_mean_pct < ckf3.re_mean_pct
        assert a.meta["deterministic_re_deviates_from_reference"]["ckf3"] is True

    def test_degree5_schemes_exact_below_degree_six(self):
        # n = 4 keeps every term of the integrand within degree 5
        schemes = [scheme("ckf5"), scheme("sif5", n_m=2), scheme("qsif5", n_m=2)]
        report = run_integral_bench(4, schemes, 50, RngStream(6))
        for row in report.rows:
            assert row.re_max_pct < 1e-9

    def test_stochastic_band_smoke(self):
        report = run_integral_bench(6, [scheme("sif5", n_m=10)], 200, RngStream(7))
        assert 3.0 < report.rows[0].re_mean_pct < 12.0

    def test_point_budgets(self):
        schemes = [
            scheme("ckf3"), scheme("ckf5"), scheme("sif3", n_m=50),
            scheme("sif5", n_m=10), scheme("qsif5", n_m=10), scheme("mc"),
        ]
        report = run_integral_bench(6, schemes, 1, RngStream(8))
        assert [r.points for r in report.rows] == [12, 57, 601, 570, 561, 600]


def per_run_rows(n, schemes, runs, rng):
    """The study's rows rebuilt from one `expect` call per run, the reference."""
    truth = true_integral_sum_powers(n)
    belief = GaussianBelief(np.zeros(n), np.eye(n))
    integrand = VectorFunction(g_sum_powers, vectorized=True)
    rows = []
    for sch in schemes:
        n_runs = 1 if sch.kind.deterministic else runs
        est = np.array([
            float(expect(integrand, belief, sch, rng.substream(sch.label, r))) for r in range(n_runs)
        ])
        rel_err = np.abs(truth - est) / abs(truth) * 100.0
        rows.append((sch.label, float(rel_err.max()), float(rel_err.mean())))
    return rows


class TestLockstepStudy:
    SCHEMES = [
        scheme("ckf3"), scheme("ckf5"), scheme("sif3", n_m=50),
        scheme("sif5", n_m=10), scheme("qsif5", n_m=10), scheme("mc"),
    ]

    def test_rows_equal_the_per_run_loop(self, monkeypatch):
        n, runs = 6, 40
        batches = {}
        for sch in self.SCHEMES[2:]:
            batch = bench_mod._BATCH_POINTS // (sch.n_m * points_per_draw(sch, n))
            # several full batches plus a remainder for every stochastic scheme
            assert runs >= 2 * batch and runs % batch
            batches[sch.label] = -(-runs // batch)
        calls = []
        real_expect = bench_mod.expect

        def counted(*args):
            calls.append(args[2].label)
            return real_expect(*args)

        monkeypatch.setattr(bench_mod, "expect", counted)
        report = run_integral_bench(n, self.SCHEMES, runs, RngStream(11))
        assert [(r.scheme, r.re_max_pct, r.re_mean_pct) for r in report.rows] == per_run_rows(
            n, self.SCHEMES, runs, RngStream(11)
        )
        for label, count in batches.items():
            assert calls.count(label) == count

    def test_memory_does_not_grow_with_runs(self):
        schemes = [scheme("sif5", n_m=10), scheme("mc")]
        peaks = []
        for runs in (100, 1000):
            tracemalloc.start()
            try:
                run_integral_bench(6, schemes, runs, RngStream(12))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_zero_true_value_rejected(self):
        with pytest.raises(ValueError, match="relative errors are undefined"):
            run_integral_bench(1, [scheme("ckf3"), scheme("mc")], 2, RngStream(13))


class TestGrowthModel:
    def test_observation_values(self):
        m1 = GrowthModel(q=1, n=2)
        m2 = GrowthModel(q=2, n=2)
        x = np.array([1.0, 2.0])  # 1 + |x|^2 = 6
        assert m1.observe(x) == 36.0
        assert m2.observe(x) == 36.0**2

    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3, 10, 20])
    def test_observation_agrees_with_the_elementwise_norm(self, n, q):
        # both squared norms are within about n eps of x^T x, relative; the
        # power 2q scales that relative difference by 2q
        model = GrowthModel(q=q, n=n)
        x = 3.0 * np.random.default_rng(100 * n + q).standard_normal((2000, n))
        reference = ((1.0 + (x * x).sum(-1)) ** 2) ** q
        bound = 2 * q * n * np.finfo(np.float64).eps
        stack = model.observe(x)
        assert stack.shape == (2000,)
        assert np.all(np.abs(stack - reference) <= bound * reference)
        for row in (0, 7, 1999):
            single = model.observe(x[row])
            assert np.ndim(single) == 0
            assert abs(single - reference[row]) <= bound * reference[row]
            # a row of the stack call is the vector call
            assert single == stack[row]

    def test_state_space_wiring(self):
        model = GrowthModel(q=2, n=3)
        ssm = model.state_space()
        assert ssm.n == 3 and ssm.m == 1
        np.testing.assert_allclose(ssm.q, 100.0 * np.eye(3))
        np.testing.assert_allclose(ssm.r, [[10.0]])
        belief = model.init_belief()
        np.testing.assert_allclose(belief.mean, np.ones(3))
        np.testing.assert_allclose(belief.cov, 10.0 * np.eye(3))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GrowthModel(q=0, n=2)
        with pytest.raises(ValueError):
            GrowthModel(q=1, n=0)

    @pytest.mark.parametrize("field, kwargs", [
        # q = 1.5 would observe the non-polynomial ((1 + x^T x)^2)^1.5
        pytest.param("q", {"q": 1.5, "n": 3}, id="q float"),
        pytest.param("q", {"q": True, "n": 3}, id="q bool"),
        # n = 2.0 would fail later, inside numpy
        pytest.param("n", {"q": 1, "n": 2.0}, id="n float"),
        pytest.param("n", {"q": 1, "n": True}, id="n bool"),
    ])
    def test_non_integer_parameters_rejected(self, field, kwargs):
        with pytest.raises(TypeError, match=f"^{field} must be an int, got "):
            GrowthModel(**kwargs)

    def test_numpy_integer_parameters_accepted(self):
        model = GrowthModel(q=np.int64(2), n=np.int32(3))
        assert model.state_space().n == 3
        assert model.observe(np.array([1.0, 2.0, 0.0])) == 36.0**2


class TestSimulateTrajectory:
    def test_shapes(self):
        model = GrowthModel(q=1, n=4)
        xs, ys = simulate_trajectory(model, 25, RngStream(10))
        assert xs.shape == (26, 4)
        assert ys.shape == (25, 1)

    def test_noiseless_fixed_point(self):
        model = GrowthModel(q=1, n=2, process_var=0.0, obs_var=0.0,
                            init_mean=0.0, init_var=0.0)
        xs, ys = simulate_trajectory(model, 10, RngStream(11))
        np.testing.assert_array_equal(xs, 0.0)
        np.testing.assert_array_equal(ys, 1.0)

    def test_ar1_stationary_variance(self):
        # Var = q / (1 - 0.81) for the scalar 0.9-decay chain
        model = GrowthModel(q=1, n=1)
        xs, _ = simulate_trajectory(model, 20_000, RngStream(12))
        target = 100.0 / (1.0 - 0.81)
        assert abs(xs[200:].var() / target - 1.0) < 0.1

    def test_deterministic(self):
        model = GrowthModel(q=2, n=3)
        a = simulate_trajectory(model, 30, RngStream(13))
        b = simulate_trajectory(model, 30, RngStream(13))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class _LinearObsModel:
    """Growth-model twin with a linear first-component observation."""

    def __init__(self, n):
        self.q = 1
        self.n = n
        self.process_var = 4.0
        self.obs_var = 0.5
        self.init_mean = 1.0
        self.init_var = 2.0

    def transition(self, x):
        return 0.9 * np.asarray(x)

    def observe(self, x):
        return np.asarray(x)[..., 0]

    def state_space(self):
        return StateSpaceModel(
            f=VectorFunction(self.transition, vectorized=True),
            h=VectorFunction(lambda x: x[:, 0], vectorized=True),
            q=self.process_var * np.eye(self.n),
            r=np.array([[self.obs_var]]),
        )

    def init_belief(self):
        return GaussianBelief(np.full(self.n, self.init_mean), self.init_var * np.eye(self.n))


class TestFilterBench:
    def test_deterministic_rerun(self):
        model = GrowthModel(q=1, n=3)
        schemes = [scheme("ckf3"), scheme("sif5", n_m=2)]
        a = run_filter_bench(model, schemes, 6, 12, RngStream(14))
        b = run_filter_bench(model, schemes, 6, 12, RngStream(14))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_linear_observation_schemes_agree(self):
        # with a linear model every polynomial-exact scheme reproduces the
        # same (Kalman) trajectory; MC joins them up to sampling noise
        model = _LinearObsModel(3)
        schemes = [
            scheme("ckf3"), scheme("ckf5"), scheme("sif3", n_m=2),
            scheme("sif5", n_m=2), scheme("qsif5", n_m=2), scheme("mc", mc=20_000),
        ]
        series = run_filter_bench(model, schemes, 20, 25, RngStream(16))
        averages = {s.scheme: s.values.mean() for s in series}
        lo, hi = min(averages.values()), max(averages.values())
        assert (hi - lo) / lo < 0.02

    def test_divergence_exclusion_accounting(self, monkeypatch):
        real_run_filter = bench_mod.run_filter
        calls = {"count": -1}

        def flaky(model, sch, ys, init, rng):
            calls["count"] += 1
            if calls["count"] in (2, 5):
                raise DivergenceError("synthetic", step=3)
            return real_run_filter(model, sch, ys, init, rng)

        monkeypatch.setattr(bench_mod, "run_filter", flaky)
        model = GrowthModel(q=1, n=2)
        series = run_filter_bench(model, [scheme("ckf3")], 8, 5, RngStream(17))
        assert series[0].meta["excluded_runs"] == 2
        assert len(series[0].meta["included_runs"]) == 6
        assert series[0].sq_errors.shape == (6, 5)
        assert np.isfinite(series[0].values).all()

    def test_every_run_diverged(self):
        # ckf3 diverges on the first trajectory of the q = 8 growth model
        series = run_filter_bench(GrowthModel(q=8, n=2), [scheme("ckf3")], 1, 20, RngStream(0))
        s = series[0]
        assert np.isnan(s.values).all() and s.values.shape == (20,)
        assert s.sq_errors.shape == (0, 20)
        assert s.meta["included_runs"] == [] and s.meta["excluded_runs"] == 1

    def test_metadata_complete(self):
        model = GrowthModel(q=2, n=2)
        series = run_filter_bench(model, [scheme("sif5", n_m=2)], 4, 6, RngStream(18))
        meta = series[0].meta
        for key in ("scheme", "variant", "q", "n", "n_mc", "n_m", "steps", "seed",
                    "points_per_integral", "evaluated_points_per_integral", "excluded_runs",
                    "trajectory_resamples"):
            assert key in meta
        assert meta["n_mc"] == 4 and meta["steps"] == 6 and meta["seed"] == 18


@pytest.mark.parametrize("n", [2, 6, 10])
def test_reported_evaluated_counts_match_sigma_points(n):
    # the evaluated count in both reports is the number of points one
    # integral evaluates, centre copies included
    schemes = [scheme(label, n_m=nm) for label, nm in
               [("ckf3", 1), ("ckf5", 1), ("sif3", 50), ("sif5", 10), ("qsif5", 10), ("mc", 1)]]
    integral = run_integral_bench(n, schemes, 1, RngStream(70)).meta["evaluated_points"]
    series = run_filter_bench(GrowthModel(q=1, n=n), schemes, 1, 1, RngStream(71))
    belief = GaussianBelief(mean=np.zeros(n), cov=np.eye(n))
    for sch, s in zip(schemes, series):
        evaluated = sigma_points(belief, sch, RngStream(72))[0].shape[0]
        assert integral[sch.label] == evaluated
        assert s.meta["evaluated_points_per_integral"] == evaluated
