"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy statistical
criteria use fixed seeds, so outcomes are reproducible.
"""

from itertools import combinations_with_replacement

import numpy as np
import pytest
import scipy.stats as st

from srcf.bench import GrowthModel, run_filter_bench, run_integral_bench
from srcf.cli import main
from srcf.filtering import StateSpaceModel, run_filter
from srcf.integrate import GaussianBelief, VectorFunction
from srcf.rng import RngStream
from srcf.rules import IntegrationScheme, draw_rule_batch, reported_eval_count
from srcf.samplers import _radial_pair_batch

from oracles import kalman_filter, monomial_moment, rejection_sample_radial_pair


def scheme(label, n_m=1, mc=600):
    return IntegrationScheme.from_label(label, n_m=n_m, mc_samples=mc if label == "mc" else None)


def _max_monomial_devs(points, weights, max_degree):
    """Worst |rule - analytic moment| per total degree, across all draws."""
    n_draws, n_pts, dim = points.shape
    powers = np.ones((n_draws, n_pts, dim, max_degree + 1))
    for e in range(1, max_degree + 1):
        powers[..., e] = powers[..., e - 1] * points
    worst = np.zeros(max_degree + 1)
    for total in range(max_degree + 1):
        combos = combinations_with_replacement(range(dim), total) if total else [()]
        for combo in combos:
            alpha = np.bincount(np.asarray(combo, dtype=int), minlength=dim) if combo else np.zeros(dim, int)
            vals = np.ones((n_draws, n_pts))
            for i in np.nonzero(alpha)[0]:
                vals *= powers[..., i, alpha[i]]
            est = np.einsum("dp,dp->d", weights, vals)
            dev = np.abs(est - monomial_moment(alpha)).max()
            worst[total] = max(worst[total], dev)
    return worst


def test_c1_degree_exactness():
    """Per-draw polynomial exactness of every rule at its advertised degree."""
    draws = 200
    rng = RngStream(101)
    for n in (2, 4, 6, 10):
        for label in ("sif5", "ckf5", "qsif5"):
            pts, w = draw_rule_batch(scheme(label), n, draws, rng.substream(label, n))
            devs = _max_monomial_devs(pts, w, 5)
            assert devs.max() < 1e-9, f"{label} n={n}: {devs}"
        for label in ("sif3", "ckf3"):
            pts, w = draw_rule_batch(scheme(label), n, draws, rng.substream(label, n))
            devs = _max_monomial_devs(pts, w, 3)
            assert devs.max() < 1e-9, f"{label} n={n}: {devs}"
    print("\nACCEPTANCE 1 (degree exactness, n in {2,4,6,10}, 200 draws): PASS")


def test_c2_unbiasedness_degree_six():
    """The fifth-degree stochastic rule is unbiased for E[c1^6] = 15."""
    n, total_draws, chunk = 6, 100_000, 5000
    rng = RngStream(102)
    estimates = np.empty(total_draws)
    for start in range(0, total_draws, chunk):
        pts, w = draw_rule_batch(scheme("sif5"), n, chunk, rng)
        estimates[start : start + chunk] = np.einsum("dp,dp->d", w, pts[:, :, 0] ** 6)
    se = estimates.std(ddof=1) / np.sqrt(total_draws)
    z = (estimates.mean() - 15.0) / se
    assert abs(z) < 4.0, f"mean={estimates.mean():.4f}, se={se:.4f}, z={z:.2f}"
    print(f"\nACCEPTANCE 2 (unbiasedness, 1e5 draws, z={z:+.2f}): PASS")


def test_c3_integral_bench_stochastic_rows():
    """Mean relative errors at publication scale fall in the expected bands."""
    schemes = [
        scheme("sif3", n_m=50),
        scheme("sif5", n_m=10),
        scheme("qsif5", n_m=10),
        scheme("mc", mc=600),
    ]
    report = run_integral_bench(6, schemes, 1000, RngStream(103))
    means = {row.scheme: row.re_mean_pct for row in report.rows}
    bands = {"sif5": (4.0, 10.0), "sif3": (9.0, 20.0), "mc": (12.0, 26.0), "qsif5": (10.0, 22.0)}
    for label, (lo, hi) in bands.items():
        assert lo <= means[label] <= hi, f"{label}: {means[label]:.2f}% not in [{lo}, {hi}]"
    assert means["sif5"] < means["sif3"]
    assert means["sif5"] < means["mc"]
    summary = ", ".join(f"{k}={v:.2f}%" for k, v in means.items())
    print(f"\nACCEPTANCE 3 (integral bench bands: {summary}): PASS")


def test_c4_point_budgets():
    """Reported function-evaluation budgets match the quoted counts."""
    n = 6
    assert reported_eval_count(scheme("sif5", n_m=10), n) == 570
    assert reported_eval_count(scheme("mc", mc=600), n) == 600
    qsif5 = reported_eval_count(scheme("qsif5", n_m=10), n)
    sif3 = reported_eval_count(scheme("sif3", n_m=50), n)
    assert abs(qsif5 - 560) / 560 <= 0.05, qsif5
    assert abs(sif3 - 600) / 600 <= 0.05, sif3
    print(f"\nACCEPTANCE 4 (point budgets 570/600/{qsif5}/{sif3}): PASS")


def test_c5_deterministic_rows():
    """Deterministic rules: reproducible errors, fifth degree beats third."""
    schemes = [scheme("ckf3"), scheme("ckf5")]
    a = run_integral_bench(6, schemes, 1, RngStream(105))
    b = run_integral_bench(6, schemes, 1, RngStream(105))
    assert a.rows == b.rows
    re = {row.scheme: row.re_mean_pct for row in a.rows}
    assert re["ckf5"] < re["ckf3"]
    print(
        f"\nACCEPTANCE 5 (deterministic rows ckf3={re['ckf3']:.4f}%, "
        f"ckf5={re['ckf5']:.4f}%, reproducible, ckf5 < ckf3): PASS"
    )


def test_c6_kalman_oracle_equivalence():
    """Every polynomial-exact scheme reproduces the linear-Gaussian filter."""
    n, m, steps = 4, 2, 100
    gen = np.random.default_rng(106)
    a = gen.standard_normal((n, n))
    a *= 0.9 / max(abs(np.linalg.eigvals(a)))
    c = gen.standard_normal((m, n))
    q = np.eye(n) * 0.5
    r = np.eye(m) * 0.8
    x0, p0 = gen.standard_normal(n), np.eye(n)

    x = x0.copy()
    ys = np.zeros((steps, m))
    for k in range(steps):
        x = a @ x + np.linalg.cholesky(q) @ gen.standard_normal(n)
        ys[k] = c @ x + np.linalg.cholesky(r) @ gen.standard_normal(m)
    oracle = kalman_filter(a, c, q, r, x0, p0, ys)

    model = StateSpaceModel(
        f=VectorFunction(lambda z: z @ a.T, vectorized=True),
        h=VectorFunction(lambda z: z @ c.T, vectorized=True),
        q=q, r=r,
    )
    init = GaussianBelief(x0, p0)
    for label in ("ckf3", "ckf5", "sif3", "sif5", "qsif5"):
        posts = run_filter(model, scheme(label, n_m=3 if "sif" in label else 1),
                           ys, init, RngStream(107).substream(label))
        for post, (mean, cov) in zip(posts, oracle):
            np.testing.assert_allclose(post.mean, mean, atol=1e-6)
            np.testing.assert_allclose(post.cov, cov, atol=1e-6)
    # Monte-Carlo has no polynomial exactness, so it tracks the oracle only
    # statistically; check it stays in the same neighbourhood
    posts = run_filter(model, scheme("mc", mc=20_000), ys, init, RngStream(108))
    worst = max(np.abs(post.mean - mean).max() for post, (mean, _) in zip(posts, oracle))
    assert worst < 0.2
    print("\nACCEPTANCE 6 (Kalman equivalence at 1e-6 for all cubature schemes): PASS")


@pytest.fixture(scope="module")
def filter_bench_results():
    schemes = [
        scheme("ckf3"), scheme("ckf5"), scheme("sif3", n_m=50),
        scheme("sif5", n_m=10), scheme("qsif5", n_m=10),
    ]
    out = {}
    for q in (2, 4):
        model = GrowthModel(q=q, n=10)
        out[q] = run_filter_bench(model, schemes, 100, 100, RngStream(109, stream_id=q))
    return out


def test_c7_filter_bench_orderings(filter_bench_results):
    """Growth-model RMSE orderings and the q=4 stability claim."""
    steady = slice(20, None)

    by_label = {s.scheme: s for s in filter_bench_results[2]}
    common = set.intersection(*(set(s.meta["included_runs"]) for s in by_label.values()))
    assert len(common) >= 80

    def window_mse(series):
        rows = [series.meta["included_runs"].index(r) for r in sorted(common)]
        return series.sq_errors[rows][:, steady].mean(axis=1)

    mse = {label: window_mse(s) for label, s in by_label.items()}

    def le_within_2se(a, b):
        d = mse[a] - mse[b]
        return d.mean() <= 2.0 * d.std(ddof=1) / np.sqrt(d.size)

    assert le_within_2se("sif5", "sif3"), "SIF5 <= SIF3 violated"
    assert le_within_2se("sif3", "ckf5"), "SIF3 < CKF5 violated"
    assert np.sqrt(mse["sif3"].mean()) < np.sqrt(mse["ckf5"].mean())
    assert np.sqrt(mse["sif5"].mean()) < np.sqrt(mse["ckf3"].mean())

    q4 = {s.scheme: s.values for s in filter_bench_results[4]}
    sif5_ratio = q4["sif5"].max() / np.median(q4["sif5"])
    assert sif5_ratio <= 3.0, f"sif5 excursion ratio {sif5_ratio:.2f}"
    baseline_ratios = {
        label: vals.max() / np.median(vals) for label, vals in q4.items() if label != "sif5"
    }
    assert max(baseline_ratios.values()) > 3.0, baseline_ratios
    rmse_summary = ", ".join(
        f"{label}={np.sqrt(m.mean()):.1f}" for label, m in sorted(mse.items())
    )
    print(
        f"\nACCEPTANCE 7 (q=2 steady RMSE {rmse_summary}; "
        f"q=4 sif5 excursion {sif5_ratio:.2f}x vs worst baseline "
        f"{max(baseline_ratios.values()):.2f}x): PASS"
    )


def test_c8_radial_pair_sampler_vs_rejection_oracle():
    """Pair-sampler marginals match brute-force rejection sampling."""
    size = 10_000
    for n in (2, 6):
        r1, r2 = _radial_pair_batch(n, size, RngStream(110, stream_id=n))
        o1, o2 = rejection_sample_radial_pair(n, size, np.random.default_rng(1000 + n))
        p1 = st.ks_2samp(r1, o1).pvalue
        p2 = st.ks_2samp(r2, o2).pvalue
        assert p1 > 0.01 and p2 > 0.01, f"n={n}: p-values {p1:.4f}, {p2:.4f}"
    print("\nACCEPTANCE 8 (radial pair KS vs rejection oracle, n in {2,6}): PASS")


def test_c9_byte_identical_outputs(tmp_path):
    """Same seed, flags vs an equivalent --config file: byte-identical reports."""
    cases = [
        ["integral-bench", "--n", "4", "--runs", "40", "--schemes", "sif5,sif3,mc",
         "--mc-samples", "80", "--seed", "31"],
        ["filter-bench", "--n", "3", "--q", "1", "--steps", "8", "--nmc", "10",
         "--schemes", "ckf3,sif5", "--seed", "32"],
        ["rule-check", "--n", "3", "--schemes", "sif5", "--runs", "25", "--seed", "33",
         "--format", "json"],
    ]
    for i, case in enumerate(cases):
        command, flags = case[0], case[1:]
        config = tmp_path / f"{i}.cfg"
        config.write_text(
            "".join(f"{key[2:]} = {value}\n" for key, value in zip(flags[::2], flags[1::2]))
        )
        by_flags, by_file = tmp_path / f"{i}_flags.out", tmp_path / f"{i}_file.out"
        assert main(case + ["--out", str(by_flags)]) == 0
        assert main([command, "--config", str(config), "--out", str(by_file)]) == 0
        assert by_flags.read_bytes() == by_file.read_bytes(), command
    print("\nACCEPTANCE 9 (byte-identical outputs from flags and from a config file): PASS")
