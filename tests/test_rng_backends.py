"""Stream definition and known-answer vectors."""
import numpy as np
import pytest

from erunion import rng

MASK = (1 << 64) - 1


def reference_splitmix64(seed, count):
    """Classic sequential SplitMix64, written independently of erunion.rng."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_stream_matches_sequential_splitmix64():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEFCAFEBABE):
        assert rng.stream_draws(seed, 16) == reference_splitmix64(seed, 16)


def test_known_answer_vectors():
    # first three SplitMix64 outputs for seed 0
    assert rng.stream_draws(0, 3) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_mix64_np_matches_scalar():
    vals = np.array([0, 1, 2**63, MASK, 0x123456789ABCDEF0], dtype=np.uint64)
    got = rng.mix64_np(vals)
    for v, g in zip(vals, got):
        assert rng.mix64(int(v)) == int(g)


def test_trial_seeds_vectorised_matches_scalar():
    seeds = rng.trial_seeds_np(987654321, 5, 20)
    for offset, s in enumerate(seeds):
        assert int(s) == rng.trial_seed(987654321, 5 + offset)


def test_trial_seeds_distinct():
    seeds = rng.trial_seeds_np(7, 0, 10_000)
    assert len(np.unique(seeds)) == 10_000


def test_threshold_exact_binary_fractions():
    assert rng.threshold_u64(0.5) == 1 << 63
    assert rng.threshold_u64(0.25) == 1 << 62
    with pytest.raises(ValueError):
        rng.threshold_u64(0.0)
    with pytest.raises(ValueError):
        rng.threshold_u64(1.0)
