"""Stream definition, known-answer vectors and the v3 skip sampler's law."""
import math

import mpmath as mp
import numpy as np
import pytest

from erunion import rng
from reference import edge_masks, trial_seed, v3_rare_pairs

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


def counter_draws(seed, count):
    """First ``count`` draws of a stream in the counter form of erunion.rng:
    draw j is mix64(seed + (j + 1) * PHI)."""
    return [rng.mix64((seed + (j + 1) * rng.PHI) & MASK) for j in range(count)]


def test_stream_matches_sequential_splitmix64():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEFCAFEBABE):
        assert counter_draws(seed, 16) == reference_splitmix64(seed, 16)


def test_known_answer_vectors():
    # first three SplitMix64 outputs for seed 0
    assert counter_draws(0, 3) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_mix64_np_matches_scalar():
    vals = np.array([0, 1, 2**63, MASK, 0x123456789ABCDEF0], dtype=np.uint64)
    got = rng.mix64_np(vals)
    for v, g in zip(vals, got):
        assert rng.mix64(int(v)) == int(g)


def test_trial_seeds_vectorised_matches_scalar():
    seeds = rng.trial_seeds_np(987654321, 5, 20)
    for offset, s in enumerate(seeds):
        assert int(s) == trial_seed(987654321, 5 + offset)


def test_trial_seeds_distinct():
    seeds = rng.trial_seeds_np(7, 0, 10_000)
    assert len(np.unique(seeds)) == 10_000


def _rare_pair_seeds(count):
    return rng.trial_seeds_np(20261018, 0, count)


@pytest.mark.parametrize("p", [0.03, 0.97])
def test_per_pair_frequency_in_either_rare_state(p):
    # n = 30: every pair's frequency inside 5 sigma of p, the first and the
    # last pair included, where an off-by-one in the skips would show
    num_pairs, trials, step = 435, 200_000, 50_000
    counts = np.zeros(num_pairs, dtype=np.int64)
    for start in range(0, trials, step):
        seeds = rng.trial_seeds_np(20261018, start, step)
        counts += edge_masks(seeds, num_pairs, p).sum(axis=0, dtype=np.int64)
    freq = counts / trials
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(freq[0] - p) <= 5 * sigma
    assert abs(freq[-1] - p) <= 5 * sigma
    assert np.all(np.abs(freq - p) <= 5 * sigma)


@pytest.mark.parametrize("p", [0.03, 0.97])
def test_edge_count_per_trial_is_binomial(p):
    # a trial's edge count, M minus its rare count when p > 1/2, is
    # Binomial(M, p): chi-square tests of its mean (1 degree of freedom) and
    # of its dispersion sum (c - mean)^2 / (M p (1 - p)) over T trials (T - 1
    # degrees of freedom), each two-sided at 1e-4. The binomial's excess
    # kurtosis makes the dispersion spread ~3 % wider than chi-square here,
    # well inside that level
    num_pairs, trials = 435, 20_000
    counts = edge_masks(_rare_pair_seeds(trials), num_pairs, p).sum(axis=1)
    var = num_pairs * p * (1 - p)
    mean_stat = trials * (counts.mean() - num_pairs * p) ** 2 / var
    dispersion = float(np.sum((counts - counts.mean()) ** 2)) / var
    assert float(mp.gammainc(0.5, mean_stat / 2, regularized=True)) >= 1e-4
    upper = float(mp.gammainc((trials - 1) / 2, dispersion / 2, regularized=True))
    assert 2 * min(upper, 1 - upper) >= 1e-4


def test_rare_pairs_are_the_mask_of_edge_masks():
    seeds = _rare_pair_seeds(50)
    for p in (0.2, 0.5, 0.8):
        trial, pair = rng.rare_pairs(seeds, 45, p)
        # ascending (trial, pair) order
        assert np.all((np.diff(trial) > 0) | ((np.diff(trial) == 0) & (np.diff(pair) > 0)))
        masks = edge_masks(seeds, 45, p)
        # the rare pairs of each stream, drawn one at a time
        rare = np.zeros_like(masks)
        for t, seed in enumerate(seeds):
            rare[t, v3_rare_pairs(int(seed), 45, p)] = 1
        assert np.array_equal(rare, masks if p <= 0.5 else 1 - masks)
