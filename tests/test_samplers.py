import numpy as np
import pytest
import scipy.stats as st

from srcf.rng import RngStream
from srcf.samplers import _radial_pair_batch, sample_beta, sample_chi

from oracles import rejection_sample_radial_pair


class TestChi:
    @pytest.mark.parametrize("dof", [3, 8, 19])
    def test_second_moment(self, dof):
        # E[chi^2] = dof, Var[chi^2] = 2 dof
        x = sample_chi(dof, RngStream(1, stream_id=dof), size=100_000)
        se = np.sqrt(2.0 * dof / x.size)
        assert abs((x**2).mean() - dof) < 3.0 * se

    def test_dof2_is_rayleigh(self):
        x = sample_chi(2, RngStream(2), size=100_000)
        ks = st.kstest(x, lambda t: 1.0 - np.exp(-0.5 * t * t)).statistic
        assert ks < 0.01

    def test_support(self):
        x = sample_chi(5, RngStream(3), size=10_000)
        assert (x > 0).all()

    def test_zero_dof_rejected(self):
        with pytest.raises(ValueError):
            sample_chi(0, RngStream(0))


class TestBeta:
    @pytest.mark.parametrize("a,b", [(8.0, 1.5), (2.0, 5.0)])
    def test_mean(self, a, b):
        x = sample_beta(a, b, RngStream(4), size=100_000)
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        assert abs(x.mean() - mean) < 3.0 * np.sqrt(var / x.size)

    def test_uniform_special_case(self):
        x = sample_beta(1.0, 1.0, RngStream(5), size=100_000)
        assert st.kstest(x, "uniform").statistic < 0.01

    def test_support(self):
        x = sample_beta(3.0, 1.5, RngStream(6), size=10_000)
        assert ((x > 0) & (x < 1)).all()

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            sample_beta(0.0, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_beta(1.0, -2.0, RngStream(0))


class TestRadialSingle:
    """The third-degree radius: chi with n + 2 dof, as ``draw_rule_batch`` draws it."""

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_second_moment_is_n_plus_2(self, n):
        sq = sample_chi(n + 2, RngStream(7, stream_id=n), size=20_000) ** 2
        dof = n + 2
        se = np.sqrt(2.0 * dof / sq.size)
        assert abs(sq.mean() - dof) < 3.0 * se

    def test_positive(self):
        assert (sample_chi(2 + 2, RngStream(8), size=200) > 0).all()

    def test_density_matches_histogram(self):
        # n = 1: density proportional to rho^2 exp(-rho^2/2), i.e. chi(3)
        x = sample_chi(3, RngStream(9), size=100_000)
        edges = np.linspace(0.0, 5.0, 31)
        observed, _ = np.histogram(x, bins=edges)
        cdf = st.chi(3).cdf(edges)
        expected = np.diff(cdf) * x.size
        tail = x.size - expected.sum()
        observed = np.append(observed, x.size - observed.sum())
        expected = np.append(expected, tail)
        p = st.chisquare(observed, expected, ddof=0).pvalue
        assert p > 0.01


class TestRadialPair:
    def test_ordering_always_holds(self):
        r1, r2 = _radial_pair_batch(3, 10_000, RngStream(10))
        assert (r1 < r2).all()
        assert (r1 > 0).all()

    def test_radius_norm_is_chi(self):
        # rho1^2 + rho2^2 equals the squared chi(2n+7) magnitude of the draw
        n = 4
        r1, r2 = _radial_pair_batch(n, 50_000, RngStream(11))
        ks = st.kstest(r1**2 + r2**2, st.chi2(2 * n + 7).cdf).statistic
        assert ks < 0.01

    def test_moments_match_rejection_oracle(self):
        n = 2
        r1, r2 = _radial_pair_batch(n, 100_000, RngStream(12))
        o1, o2 = rejection_sample_radial_pair(n, 100_000, np.random.default_rng(13))
        for ours, oracle in [
            (r1, o1),
            (r2, o2),
            (r1 * r2, o1 * o2),
        ]:
            se = np.sqrt(ours.var() / ours.size + oracle.var() / oracle.size)
            assert abs(ours.mean() - oracle.mean()) < 3.0 * se

    def test_marginals_match_rejection_oracle(self):
        n = 2
        r1, r2 = _radial_pair_batch(n, 10_000, RngStream(14))
        o1, o2 = rejection_sample_radial_pair(n, 10_000, np.random.default_rng(15))
        assert st.ks_2samp(r1, o1).pvalue > 0.01
        assert st.ks_2samp(r2, o2).pvalue > 0.01

    def test_single_draw_api(self):
        r1, r2 = _radial_pair_batch(5, 1, RngStream(16))
        assert r1.shape == r2.shape == (1,)
        assert 0 < r1[0] < r2[0]
