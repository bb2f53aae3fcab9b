"""Trial streams: trial_rng against the SeedSequence route it reproduces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulat.mc import _SEED_BLOCK, _block_words, trial_rng


def seed_sequence_rng(seed, trial) -> np.random.Generator:
    """Oracle: the generator NumPy builds from SeedSequence((seed, trial))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def assert_same_stream(seed, trial):
    got, ref = trial_rng(seed, trial), seed_sequence_rng(seed, trial)
    assert got.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(got.standard_normal(5), ref.standard_normal(5))
    assert np.array_equal(got.integers(0, 2**63, 3), ref.integers(0, 2**63, 3))


SEEDS = [0, 1, 3, 2**31 - 2, 2**32 - 1, 2**32, 2**32 + 7, 2**64 + 5, 2**70 + 1]
TRIALS = [0, 1, 255, 256, 257, 511, 512, 2**32 - 256, 2**32 - 1, 2**32, 2**32 + 255, 2**40 + 3,
          2**64 + 300]


class TestSeedSequenceEquality:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trial", TRIALS)
    def test_grid_of_seeds_and_trials(self, seed, trial):
        assert_same_stream(seed, trial)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**80), st.integers(0, 2**48))
    def test_any_seed_and_trial(self, seed, trial):
        assert_same_stream(seed, trial)

    def test_whole_first_blocks(self):
        for seed in (0, 9173):
            for trial in range(2 * _SEED_BLOCK + 1):
                got = trial_rng(seed, trial).bit_generator.state
                assert got == seed_sequence_rng(seed, trial).bit_generator.state

    @pytest.mark.parametrize(
        "seed, trial", [(np.int64(7), np.int64(300)), (np.uint64(2**63), np.int32(5)), (True, 0)]
    )
    def test_numpy_and_bool_integers(self, seed, trial):
        assert_same_stream(seed, trial)


class TestInputs:
    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (np.int64(-3), 2)])
    def test_negative_rejected(self, seed, trial):
        with pytest.raises(ValueError):
            trial_rng(seed, trial)
        with pytest.raises(ValueError):
            seed_sequence_rng(seed, trial)

    @pytest.mark.parametrize("seed, trial", [(1.5, 0), (0, 1.5), (np.float64(2.0), 0)])
    def test_non_integer_rejected(self, seed, trial):
        with pytest.raises(TypeError):
            trial_rng(seed, trial)
        with pytest.raises(TypeError):
            seed_sequence_rng(seed, trial)


class TestFreshGenerators:
    def test_same_pair_gives_distinct_independent_objects(self):
        a, b = trial_rng(5, 300), trial_rng(5, 300)
        assert a is not b and a.bit_generator is not b.bit_generator
        before = b.bit_generator.state
        a.standard_normal(100)
        assert b.bit_generator.state == before
        assert np.array_equal(b.standard_normal(4), seed_sequence_rng(5, 300).standard_normal(4))

    def test_cached_words_are_read_only(self):
        words = _block_words(5, 1)
        assert words.shape == (_SEED_BLOCK, 4) and words.dtype == np.uint64
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words[0, 0] = 0
        handed = trial_rng(5, 300).bit_generator.seed_seq.generate_state(4, np.uint64)
        assert not handed.flags.writeable
        assert np.array_equal(handed, np.random.SeedSequence((5, 300)).generate_state(4, np.uint64))

    def test_first_trial_of_a_block_leaves_the_block_cache_alone(self):
        # A seed no other test draws, so a block hash would be a cache miss.
        seed = 2**61 + 4099
        before = _block_words.cache_info().misses
        for trial in (0, _SEED_BLOCK, 2**32):
            assert_same_stream(seed, trial)
            handed = trial_rng(seed, trial).bit_generator.seed_seq.generate_state(4, np.uint64)
            assert not handed.flags.writeable
        assert _block_words.cache_info().misses == before
        assert_same_stream(seed, 1)
        assert _block_words.cache_info().misses == before + 1

    def test_seed_words_answer_only_pcg64(self):
        seed_seq = trial_rng(0, 0).bit_generator.seed_seq
        with pytest.raises(ValueError):
            seed_seq.generate_state(8, np.uint32)
