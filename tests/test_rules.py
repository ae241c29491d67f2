import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from srcf.linalg import haar_orthogonal_batch
from srcf import rules
from srcf.rng import RngStream
from srcf.rules import (
    IntegrationScheme,
    SchemeKind,
    draw_rule_batch,
    gaussian_monomial_moment,
    points_per_draw,
    radial_weights,
    reported_eval_count,
    simplex_midpoints,
    simplex_vertices,
    spherical_weights_deg5,
)
from srcf import samplers
from srcf.samplers import _radial_pair_batch, sample_chi

from oracles import monomial_moment

ALL_LABELS = ["ckf3", "ckf5", "sif3", "sif5", "qsif5", "mc"]


def scheme(label, n_m=1, mc=2000):
    return IntegrationScheme.from_label(label, n_m=n_m, mc_samples=mc if label == "mc" else None)


def one_draw(label, n, rng):
    """Points (P, n) and weights (P,) of a single rule draw."""
    points, weights = draw_rule_batch(scheme(label), n, 1, rng)
    return points[0], weights[0]


class TestRadialWeightsDeg5:
    def test_hand_example(self):
        w0, w1, w2 = radial_weights(1, [1.0, 2.0])
        assert abs(w0 - 0.5) < 1e-15
        assert abs(w1 - 1.0 / 3.0) < 1e-15
        assert abs(w2 - 1.0 / 6.0) < 1e-15

    @settings(deadline=None, max_examples=200)
    @given(
        n=hst.integers(min_value=1, max_value=20),
        rho1=hst.floats(min_value=0.05, max_value=4.0),
        gap=hst.floats(min_value=0.05, max_value=4.0),
    )
    def test_moment_identities(self, n, rho1, gap):
        rho2 = rho1 + gap
        w0, w1, w2 = radial_weights(n, [rho1, rho2])
        # constants, E[r^2] = n and E[r^4] = n(n+2) are matched exactly up to
        # the conditioning of the cancellation (weights blow up as nodes
        # approach each other or zero)
        scale = abs(w0) + abs(w1) + abs(w2)
        assert abs(w0 + w1 + w2 - 1.0) < 1e-12 * max(1.0, scale)
        assert abs(w1 * rho1**2 + w2 * rho2**2 - n) < 1e-12 * max(n, scale)
        assert abs(w1 * rho1**4 + w2 * rho2**4 - n * (n + 2.0)) < 1e-12 * max(n * (n + 2), scale)

    def test_single_node_rejected(self):
        # a pair collapsed onto one node (or onto the center) has no rule
        with pytest.raises(ValueError):
            radial_weights(2, [1.0, 1.0])
        with pytest.raises(ValueError):
            radial_weights(2, np.array([[0.5, 2.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            radial_weights(2, [0.0, 1.0])

    def test_elementwise_over_arrays(self):
        rho1, rho2 = _radial_pair_batch(4, 50, RngStream(40))
        w = radial_weights(4, np.stack([rho1, rho2], axis=1))
        for i in (0, 17, 49):
            assert tuple(w[i]) == tuple(radial_weights(4, [rho1[i], rho2[i]]))


class TestRadialWeightsDeg3:
    def test_center_vanishes_at_sqrt_n(self):
        w0, w1 = radial_weights(2, [np.sqrt(2.0)])
        assert abs(w0) < 1e-15 and abs(w1 - 1.0) < 1e-15

    @settings(deadline=None, max_examples=100)
    @given(
        n=hst.integers(min_value=1, max_value=20),
        rho=hst.floats(min_value=0.05, max_value=10.0),
    )
    def test_moment_identities(self, n, rho):
        w0, w1 = radial_weights(n, [rho])
        assert abs(w0 + w1 - 1.0) < 1e-12
        assert abs(w1 * rho * rho - n) < 1e-9 * n

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_weights(2, [0.0])
        with pytest.raises(ValueError):
            radial_weights(2, np.array([[1.0], [0.0]]))


def _closed_form_deg3(n, rho):
    """The two-node radial rule matching E[r^2] = n: w1 = n / rho^2."""
    w1 = n / (rho * rho)
    return np.stack([1.0 - w1, w1], axis=-1)


def _closed_form_deg5(n, rho1, rho2):
    """The three-node radial rule on {0, rho1^2, rho2^2} matching E[r^2], E[r^4]."""
    r1sq, r2sq = rho1 * rho1, rho2 * rho2
    w0 = 1.0 - n * (r1sq + r2sq - (n + 2.0)) / (r1sq * r2sq)
    w1 = n * (n + 2.0 - r2sq) / (r1sq * (r1sq - r2sq))
    w2 = n * (n + 2.0 - r1sq) / (r2sq * (r2sq - r1sq))
    return np.stack([w0, w1, w2], axis=-1)


class TestRadialWeights:
    """`radial_weights` against the closed forms of its one- and two-node cases."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_one_node_equals_the_closed_form_bit_for_bit(self, n):
        rho = np.random.default_rng(n).uniform(0.05, 3.0 * np.sqrt(n + 2.0), 1000)
        assert radial_weights(n, rho[:, None]).tobytes() == _closed_form_deg3(n, rho).tobytes()

    @pytest.mark.parametrize("n", range(2, 41))
    def test_two_nodes_equal_the_closed_form_bit_for_bit(self, n):
        rho = np.random.default_rng(100 + n).uniform(0.05, 3.0 * np.sqrt(n + 2.0), (1000, 2))
        expected = _closed_form_deg5(n, rho[:, 0], rho[:, 1])
        assert radial_weights(n, rho).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 6, 8, 20])
    def test_three_nodes_match_the_radial_moments(self, n):
        # well-separated nodes: E[u^k] = n (n+2) ... (n+2k-2) for k <= 3
        u = np.array([0.5, 1.5, 3.0]) * (n + 2.0)
        w = radial_weights(n, np.sqrt(u))
        assert w.shape == (4,)
        for k in range(4):
            moment = np.prod([n + 2.0 * i for i in range(k)])
            estimate = (w[0] if k == 0 else 0.0) + w[1:] @ u**k
            assert abs(estimate - moment) < 1e-14 * moment

    def test_shape_and_centre_first(self):
        rho = np.ones((2, 5, 1)) * np.array([1.0, 2.0, 3.0])
        w = radial_weights(3, rho)
        assert w.shape == (2, 5, 4)
        np.testing.assert_array_equal(w[1, 4], radial_weights(3, [1.0, 2.0, 3.0]))

    def test_malformed_nodes_rejected(self):
        for nodes in (1.0, np.zeros((3, 0))):
            with pytest.raises(ValueError, match="nodes"):
                radial_weights(3, nodes)
        with pytest.raises(ValueError, match="distinct"):
            radial_weights(3, [1.0, 2.0, -1.0])
        with pytest.raises(ValueError, match="dimension"):
            radial_weights(0, [1.0])


class TestSimplex:
    def test_n2_vertices(self):
        a = simplex_vertices(2)
        expected = np.array(
            [[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]]
        )
        np.testing.assert_allclose(a, expected, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_unit_norm_and_pairwise_dot(self, n):
        a = simplex_vertices(n)
        assert a.shape == (n + 1, n)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
        gram = a @ a.T
        off = gram[~np.eye(n + 1, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / n, atol=1e-12)

    def test_n2_first_midpoint(self):
        a = simplex_vertices(2)
        b = simplex_midpoints(2, a)
        np.testing.assert_allclose(b[0], [0.5, np.sqrt(3) / 2], atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_midpoint_count_and_norms(self, n):
        a = simplex_vertices(n)
        b = simplex_midpoints(n, a)
        assert b.shape == (n * (n + 1) // 2, n)
        np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)

    def test_n1_has_no_midpoints(self):
        assert simplex_midpoints(1, simplex_vertices(1)).shape == (0, 1)


class TestSphericalWeights:
    def test_n2_values(self):
        wa, wb = spherical_weights_deg5(2)
        assert abs(wa - 5.0 / 36.0) < 1e-15
        assert abs(wb - 1.0 / 36.0) < 1e-15

    @pytest.mark.parametrize("n", range(2, 21))
    def test_total_mass_is_one(self, n):
        wa, wb = spherical_weights_deg5(n)
        assert abs(2 * (n + 1) * wa + n * (n + 1) * wb - 1.0) < 1e-12

    def test_vertex_weight_vanishes_at_n7(self):
        wa, _ = spherical_weights_deg5(7)
        assert wa == 0.0

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            spherical_weights_deg5(1)


class TestSchemeType:
    @pytest.mark.parametrize("kind", [SchemeKind.CKF3, SchemeKind.CKF5], ids=["ckf3", "ckf5"])
    def test_deterministic_nm_other_than_one_rejected(self, kind):
        message = f"^n_m must be 1 for the deterministic {kind.value}, got 10$"
        with pytest.raises(ValueError, match=message):
            IntegrationScheme(kind, n_m=10)
        with pytest.raises(ValueError, match=message):
            IntegrationScheme.from_label(kind.value, n_m=10)
        assert IntegrationScheme(kind).n_m == 1

    def test_mc_requires_samples(self):
        with pytest.raises(ValueError, match="requires mc_samples"):
            IntegrationScheme(SchemeKind.MC)
        with pytest.raises(ValueError, match="requires mc_samples"):
            IntegrationScheme.from_label("mc")

    def test_mc_samples_only_for_mc(self):
        with pytest.raises(ValueError):
            IntegrationScheme(SchemeKind.SIF5, mc_samples=100)

    @pytest.mark.parametrize("kind,kwargs,name", [
        (SchemeKind.SIF5, {"n_m": 2.5}, "n_m"),
        (SchemeKind.SIF5, {"n_m": True}, "n_m"),
        (SchemeKind.MC, {"mc_samples": 2.5}, "mc_samples"),
    ], ids=["n_m-float", "n_m-bool", "mc_samples-float"])
    def test_non_integer_counts_rejected(self, kind, kwargs, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
            IntegrationScheme(kind, **kwargs)

    def test_numpy_integer_counts_accepted(self):
        assert IntegrationScheme(SchemeKind.SIF5, n_m=np.int64(3)).n_m == 3
        assert IntegrationScheme(SchemeKind.MC, mc_samples=np.int32(5)).mc_samples == 5

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            IntegrationScheme.from_label("ukf")

    def test_degree5_rejects_dimension_one(self):
        for label in ("ckf5", "sif5", "qsif5"):
            with pytest.raises(ValueError):
                draw_rule_batch(scheme(label), 1, 1, RngStream(0))


class TestBuildRule:
    """Single draws, ``draw_rule_batch(scheme, n, 1, rng)``."""

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_weights_sum_to_one(self, label):
        _, w = one_draw(label, 5, RngStream(21, stream_id=label))
        assert abs(w.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("label", ["ckf3", "ckf5", "sif3", "sif5", "qsif5"])
    def test_first_two_moments_exact(self, label):
        n = 6
        for draw in range(5):
            c, w = one_draw(label, n, RngStream(22).substream(label, draw))
            mean = w @ c
            cov = np.einsum("p,pi,pj->ij", w, c, c)
            assert np.abs(mean).max() < 1e-10
            assert np.abs(cov - np.eye(n)).max() < 1e-10

    def test_ckf3_structure(self):
        n = 4
        c, w = one_draw("ckf3", n, RngStream(0))
        assert c.shape == (2 * n, n)
        assert np.allclose(sorted(np.abs(c).max(axis=1)), np.sqrt(n))
        assert np.allclose(w, 1.0 / (2 * n))

    def test_sif5_point_counts(self):
        n = 6
        c, _ = one_draw("sif5", n, RngStream(1))
        # stored set is the full symmetric expansion; the operating count
        # tallies each +-pair once and is what budgets are quoted in
        assert c.shape == (2 * (n + 1) * (n + 2) + 1, n)
        assert reported_eval_count(scheme("sif5"), n) == n * n + 3 * n + 3 == 57

    def test_point_set_symmetric(self):
        pts, w = one_draw("sif5", 4, RngStream(2))
        # every non-center point's negation is present with equal weight
        for idx in (1, 5, len(pts) - 1):
            diff = np.abs(pts + pts[idx]).sum(axis=1)
            j = int(np.argmin(diff))
            assert diff[j] < 1e-12
            assert abs(w[idx] - w[j]) < 1e-15

    def test_batch_shapes(self):
        pts, w = draw_rule_batch(scheme("sif3"), 3, 7, RngStream(3))
        assert pts.shape == (7, 7, 3)
        assert w.shape == (7, 7)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_sif5_weights_are_radial_times_spherical(self):
        # radii come first in a batch's stream, so the same seed replays them
        n, size = 5, 4
        _, w = draw_rule_batch(scheme("sif5"), n, size, RngStream(41))
        radii = np.stack(_radial_pair_batch(n, size, RngStream(41)), axis=1)
        w0, w1, w2 = radial_weights(n, radii).T
        wa, wb = spherical_weights_deg5(n)
        np.testing.assert_array_equal(w[:, 0], w0)
        for d in range(size):
            shell = np.unique([w1[d] * wa, w1[d] * wb, w2[d] * wa, w2[d] * wb])
            np.testing.assert_array_equal(np.unique(w[d, 1:]), shell)

    def test_sif3_weights_are_radial_times_spherical(self):
        n, size = 5, 4
        _, w = draw_rule_batch(scheme("sif3"), n, size, RngStream(42))
        w0, w1 = radial_weights(n, sample_chi(n + 2, RngStream(42), size=size)[:, None]).T
        np.testing.assert_array_equal(w[:, 0], w0)
        np.testing.assert_allclose(w[:, 1:], np.repeat(w1[:, None] / (2 * n), 2 * n, axis=1), rtol=1e-15)


def _row_major_points(label, n, size, rng, mean, root):
    """A rule's state-space points as built row by row: the centre, then
    mean +- r (L Q d) for each radius r, with the mean tiled along a row of
    directions, drawing the variates in the order `draw_rule_batch` does."""
    if label == "mc":
        c = rng.generator.standard_normal((size, 50, n))
        return (c.reshape(-1, n) @ root.T + mean).reshape(size, 50, n)
    if label == "ckf3":
        rows, radii, centre = np.broadcast_to(root.T, (size, n, n)), np.full((size, 1), np.sqrt(n)), False
    elif label == "sif3":
        radii = sample_chi(n + 2, rng, size=size)[:, None]
        rows, centre = np.swapaxes(root @ haar_orthogonal_batch(n, size, rng), 1, 2), True
    else:
        dirs = np.concatenate([simplex_vertices(n), simplex_midpoints(n, simplex_vertices(n))])
        if label == "sif5":
            radii = np.stack(_radial_pair_batch(n, size, rng), axis=1)
        else:
            radii = np.full((size, 1), np.sqrt(n + 2.0))
        if label == "ckf5":
            rows = np.broadcast_to(dirs @ root.T, (size,) + dirs.shape)
        else:
            rows = dirs @ np.swapaxes(root @ haar_orthogonal_batch(n, size, rng), 1, 2)
        centre = True
    mean_row = np.tile(mean, rows.shape[1])
    draws = []
    for draw_rows, draw_radii in zip(rows, radii):
        parts = [mean[None]] if centre else []
        for r in draw_radii:
            shell = r * draw_rows.reshape(-1)
            parts += [(mean_row + shell).reshape(-1, n), (mean_row - shell).reshape(-1, n)]
        draws.append(np.concatenate(parts))
    return np.stack(draws)


class TestPointValues:
    """Column-major storage leaves every point value as the row-by-row build gives it."""

    @pytest.mark.parametrize("n", [2, 6, 10, 20])
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_equal_to_the_row_major_build(self, label, n):
        gen = np.random.default_rng(n)
        a = gen.standard_normal((n, n))
        root, mean = np.linalg.cholesky(a @ a.T + np.eye(n)), 10.0 * gen.standard_normal(n)
        expected = _row_major_points(label, n, 3, RngStream(56, stream_id=label), mean, root)
        sch = scheme(label, mc=50)
        # the default column-major array, and a row-major array given as out
        for out in (None, np.empty((3 * points_per_draw(sch, n), n))):
            points, _ = draw_rule_batch(sch, n, 3, RngStream(56, stream_id=label),
                                        mean=mean, root=root, out=out)
            assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_mis_shaped_mean_or_root_rejected(self, label):
        # a (1,) mean would broadcast to every coordinate, a 2 x 2 root fail inside numpy
        sch, n = scheme(label, mc=50), 3
        with pytest.raises(ValueError, match="mean"):
            draw_rule_batch(sch, n, 2, RngStream(57), mean=np.array([5.0]))
        with pytest.raises(ValueError, match="root"):
            draw_rule_batch(sch, n, 2, RngStream(57), root=np.eye(2))

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_list_mean_and_root_give_the_array_result(self, label):
        sch, mean, root = scheme(label, mc=50), [1.0, 2.0], [[1.0, 0.0], [0.5, 2.0]]
        got = draw_rule_batch(sch, 2, 2, RngStream(59), mean=mean, root=root)
        want = draw_rule_batch(sch, 2, 2, RngStream(59), mean=np.array(mean), root=np.array(root))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_wrong_out_rejected(self, label):
        sch, n = scheme(label, mc=50), 3
        rows = 2 * points_per_draw(sch, n)
        for out in (np.empty((rows, n), dtype=np.float32), np.empty((rows + 1, n)),
                    np.empty((rows, n + 1)), np.empty(rows * n)):
            with pytest.raises(ValueError, match="out"):
                draw_rule_batch(sch, n, 2, RngStream(58), out=out)


class TestStreamSequence:
    """``draw_rule_batch`` over a sequence of streams, the lockstep draw."""

    @staticmethod
    def assert_equals_single_calls(label, n, size, make_streams, **affine):
        sch = scheme(label, n_m=1, mc=30)
        streams, lone = make_streams(), make_streams()
        pts, w = draw_rule_batch(sch, n, size, streams, **affine)
        singles = [draw_rule_batch(sch, n, size, s, **affine) for s in lone]
        np.testing.assert_array_equal(pts, np.concatenate([p for p, _ in singles]))
        np.testing.assert_array_equal(w, np.concatenate([q for _, q in singles]))
        # every stream is left where a lone call leaves it
        for a, b in zip(streams, lone):
            np.testing.assert_array_equal(a.generator.standard_normal(2), b.generator.standard_normal(2))

    @pytest.mark.parametrize("n", [2, 6, 10])
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_equals_concatenated_single_calls(self, label, n):
        self.assert_equals_single_calls(
            label, n, 3, lambda: [RngStream(51).substream(label, n, i) for i in range(5)]
        )

    @pytest.mark.parametrize("n", [2, 6, 10])
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_state_space_draws_equal_concatenated_single_calls(self, label, n):
        gen = np.random.default_rng(n)
        a = gen.standard_normal((n, n))
        root = np.linalg.cholesky(a @ a.T + np.eye(n))
        self.assert_equals_single_calls(
            label, n, 3, lambda: [RngStream(55).substream(label, n, i) for i in range(5)],
            mean=gen.standard_normal(n), root=root,
        )

    def test_sif5_radial_redraws_stay_on_their_stream(self, monkeypatch):
        n, size = 6, 4

        def make_streams():
            return [RngStream(52).substream(i) for i in range(6)]

        plain, _ = draw_rule_batch(scheme("sif5"), n, size, make_streams())
        # a tolerance this coarse rejects some radius pair of every stream
        monkeypatch.setattr(samplers, "_DEGENERATE_TOL", 1.5)
        redrawn, _ = draw_rule_batch(scheme("sif5"), n, size, make_streams())
        for block in range(6):
            rows = slice(block * size, (block + 1) * size)
            assert not np.array_equal(plain[rows], redrawn[rows])
        self.assert_equals_single_calls("sif5", n, size, make_streams)

    def test_one_element_sequence_equals_the_stream(self):
        a = draw_rule_batch(scheme("qsif5"), 4, 2, RngStream(53))
        b = draw_rule_batch(scheme("qsif5"), 4, 2, [RngStream(53)])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            draw_rule_batch(scheme("sif3"), 3, 1, [])


class TestPolynomialExactness:
    @staticmethod
    def _max_monomial_dev(points, weights, max_degree):
        worst = 0.0
        n = points.shape[1]
        from itertools import combinations_with_replacement

        for total in range(max_degree + 1):
            for combo in combinations_with_replacement(range(n), total):
                alpha = np.bincount(combo, minlength=n) if combo else np.zeros(n, int)
                vals = np.prod(points ** alpha, axis=1)
                dev = abs(weights @ vals - monomial_moment(alpha))
                worst = max(worst, dev)
        return worst

    @pytest.mark.parametrize("label", ["ckf5", "sif5", "qsif5"])
    def test_degree5_exactness(self, label):
        for draw in range(10):
            c, w = one_draw(label, 4, RngStream(30).substream(label, draw))
            assert self._max_monomial_dev(c, w, 5) < 1e-9

    @pytest.mark.parametrize("label", ["ckf3", "sif3"])
    def test_degree3_exactness(self, label):
        for draw in range(10):
            c, w = one_draw(label, 4, RngStream(31).substream(label, draw))
            assert self._max_monomial_dev(c, w, 3) < 1e-9

    def test_ckf3_fourth_moment_is_n(self):
        n = 6
        c, w = one_draw("ckf3", n, RngStream(0))
        assert abs(w @ c[:, 0] ** 4 - n) < 1e-12

    @pytest.mark.parametrize(
        "label,poly",
        [
            ("sif5", lambda c: 1.0 + 2.0 * c[:, 0] - c[:, 1] ** 3
             + 0.5 * c[:, 0] ** 2 * c[:, 1] ** 2 + c[:, 2] ** 4),
            ("sif3", lambda c: 0.5 - c[:, 0] + 3.0 * c[:, 1] ** 2 + c[:, 2] ** 3),
        ],
    )
    def test_zero_variance_within_exactness_degree(self, label, poly):
        # within the exactness degree, the stochastic rules have no variance
        n = 3
        rng = RngStream(32, stream_id=label)
        vals = []
        for _ in range(50):
            c, w = one_draw(label, n, rng)
            vals.append(w @ poly(c))
        assert np.var(vals) < 1e-18

    def test_sif5_unbiased_for_degree_six(self):
        n, draws = 6, 20_000
        rng = RngStream(33)
        pts, w = draw_rule_batch(scheme("sif5"), n, draws, rng)
        ests = np.einsum("dp,dp->d", w, pts[:, :, 0] ** 6)
        se = ests.std(ddof=1) / np.sqrt(draws)
        assert abs(ests.mean() - 15.0) < 4.0 * se


class TestEvalCounts:
    def test_reported_counts_at_n6(self):
        n = 6
        assert reported_eval_count(scheme("ckf3"), n) == 12
        assert reported_eval_count(scheme("ckf5"), n) == 57
        assert reported_eval_count(scheme("sif3", n_m=50), n) == 601
        assert reported_eval_count(scheme("sif5", n_m=10), n) == 570
        assert reported_eval_count(scheme("qsif5", n_m=10), n) == 561
        assert reported_eval_count(scheme("mc", mc=600), n) == 600

    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    @pytest.mark.parametrize("label", ALL_LABELS)
    def test_points_per_draw_is_the_drawn_size(self, label, n):
        sch = scheme(label, mc=70)
        points, _ = draw_rule_batch(sch, n, 1, RngStream(54))
        assert points.shape[1] == points_per_draw(sch, n)


class TestLayout:
    """The fixed part of each rule is built once per (kind, n)."""

    @pytest.mark.parametrize("label", ["ckf3", "ckf5", "sif3", "sif5", "qsif5"])
    def test_cached_and_read_only(self, label):
        kind = SchemeKind(label)
        layout = rules._layout(kind, 6)
        assert rules._layout(kind, 6) is layout
        assert layout.p == points_per_draw(scheme(label), 6)
        for a in (layout.dirs, layout.sphere_w, layout.radii, layout.radial_w):
            if a is not None:
                assert not a.flags.writeable

    @pytest.mark.parametrize("label,calls", [("ckf5", 0), ("qsif5", 0), ("sif3", 1), ("sif5", 1)])
    def test_fixed_radial_weights_computed_once(self, monkeypatch, label, calls):
        n = 10
        draw_rule_batch(scheme(label), n, 1, RngStream(60))
        seen = []

        def counted(*args):
            seen.append(args)
            return radial_weights(*args)

        monkeypatch.setattr(rules, "radial_weights", counted)
        for k in range(3):
            streams = [RngStream(61).substream(k, s) for s in range(3)]
            draw_rule_batch(scheme(label), n, 2, streams)
        assert len(seen) == 3 * calls


class TestGaussianMonomialMoment:
    @pytest.mark.parametrize(
        "alpha,expected",
        [((0,), 1.0), ((2,), 1.0), ((4,), 3.0), ((6,), 15.0), ((3,), 0.0), ((2, 2), 1.0), ((4, 2), 3.0)],
    )
    def test_values(self, alpha, expected):
        assert gaussian_monomial_moment(alpha) == expected

    def test_matches_independent_oracle(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            alpha = gen.integers(0, 7, size=4)
            assert gaussian_monomial_moment(alpha) == monomial_moment(alpha)
