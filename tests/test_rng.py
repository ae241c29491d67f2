import numpy as np
import pytest

from srcf.rng import RngStream


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        a = RngStream(1234).generator.integers(0, 2**63, 1000)
        b = RngStream(1234).generator.integers(0, 2**63, 1000)
        np.testing.assert_array_equal(a, b)

    def test_same_substream_bit_identical(self):
        a = RngStream(7).substream(3, 9).generator.standard_normal(64)
        b = RngStream(7).substream(3, 9).generator.standard_normal(64)
        np.testing.assert_array_equal(a, b)

    def test_stream_id_argument_equivalent_to_substream(self):
        a = RngStream(5, stream_id=11).generator.standard_normal(16)
        b = RngStream(5).substream(11).generator.standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_substream_chaining_matches_flat_ids(self):
        a = RngStream(5).substream(1).substream(2).generator.standard_normal(8)
        b = RngStream(5).substream(1, 2).generator.standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_string_ids_stable(self):
        a = RngStream(0).substream("sif5", 3).generator.standard_normal(8)
        b = RngStream(0).substream("sif5", 3).generator.standard_normal(8)
        np.testing.assert_array_equal(a, b)


class TestIndependence:
    def test_distinct_ids_give_distinct_sequences(self):
        base = RngStream(42)
        a = base.substream(0).generator.standard_normal(256)
        b = base.substream(1).generator.standard_normal(256)
        assert np.abs(a - b).max() > 1e-6

    def test_substreams_uncorrelated(self):
        base = RngStream(9)
        a = base.substream(0).generator.standard_normal(20000)
        b = base.substream(1).generator.standard_normal(20000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.03  # ~4 sigma for n=20000

    def test_64bit_ids_do_not_collide(self):
        a = RngStream(1).substream(2**32).generator.standard_normal(8)
        b = RngStream(1).substream(1).generator.standard_normal(8)
        assert np.abs(a - b).max() > 1e-6


class TestValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_oversized_id_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0).substream(2**64)

    @pytest.mark.parametrize("seed", [1.7, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(TypeError, match=f"^seed must be an int, got {seed!r}$"):
            RngStream(seed)

    def test_numpy_integer_seed_accepted(self):
        assert RngStream(np.uint64(2**64 - 1)).seed == 2**64 - 1

    def test_bad_id_type_rejected(self):
        with pytest.raises(TypeError):
            RngStream(0).substream(1.5)

    def test_empty_substream_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0).substream()


_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
_PATHS = [(), (0,), (2**32,), ("sif5", 3), (7, "filter", 2**40, 0, "x", 2**64 - 1)]


class TestPinnedStreams:
    @pytest.mark.parametrize("ids", _PATHS, ids=repr)
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_state_is_the_seed_sequence_of_seed_and_path(self, seed, ids):
        stream = RngStream(seed).substream(*ids) if ids else RngStream(seed)
        expected = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=stream.path))
        )
        assert stream.generator.bit_generator.state == expected.bit_generator.state

    def test_first_normals(self):
        # literal values, so a change of seeding shows across commits
        assert RngStream(0).generator.standard_normal(3).tolist() == [
            0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
        ]
        stream = RngStream(2**64 - 1).substream(2**32 + 1, "filter")
        assert stream.generator.standard_normal(3).tolist() == [
            -0.4016892012549758, 0.28529757399217254, 1.2284196822956284,
        ]
