"""Counter-based SplitMix64 random streams.

Every random draw made by this package is the SplitMix64 output mix applied
to an affine counter: draw ``j`` of the stream with seed ``s`` is

    draw(s, j) = mix64((s + (j + 1) * PHI) mod 2**64)

which coincides with the classic SplitMix64 sequence started at state ``s``.
Because a draw is a pure function of ``(s, j)``, any draw can be computed
without generating its predecessors, so sampling parallelises without
changing the stream. Independent per-trial streams derive in O(1) from a
master seed:

    trial_seed(master, t) = mix64((mix64(master) + t * PHI) mod 2**64)

A Bernoulli(p) event is realised as ``draw < threshold_u64(p)`` with
``threshold_u64(p) = floor(p * 2**64)``; the realised probability differs
from ``p`` by less than 2**-64. Edge masks (:func:`edge_masks`) spend one
draw per node pair: pair ``e`` of the stream with seed ``s`` is present iff
``draw(s, e) < threshold_u64(p)``. A union of N samples of G(n, p) is
sampled as one G(n, p_hat) graph, p_hat = 1 - (1-p)^N, so it too costs one
draw per pair (stream definition "v2").
"""
from __future__ import annotations

import numpy as np

MASK = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_PHI_U64 = np.uint64(PHI)
_MUL1_U64 = np.uint64(_MUL1)
_MUL2_U64 = np.uint64(_MUL2)


def mix64(z: int) -> int:
    """SplitMix64 output mix of a 64-bit integer."""
    z &= MASK
    z = ((z ^ (z >> 30)) * _MUL1) & MASK
    z = ((z ^ (z >> 27)) * _MUL2) & MASK
    return z ^ (z >> 31)


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorised :func:`mix64` over a uint64 array."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MUL1_U64
        z = (z ^ (z >> np.uint64(27))) * _MUL2_U64
    return z ^ (z >> np.uint64(31))


def trial_seed(master_seed: int, trial: int) -> int:
    """Seed of the independent stream assigned to a trial index."""
    return mix64((mix64(master_seed) + trial * PHI) & MASK)


def trial_seeds_np(master_seed: int, start: int, count: int) -> np.ndarray:
    """Seeds for trials ``start .. start+count-1`` as a uint64 array."""
    base = np.uint64(mix64(master_seed))
    t = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64_np(base + t * _PHI_U64)


def stream_draws(seed: int, count: int) -> list[int]:
    """First ``count`` draws of a stream (scalar reference path)."""
    return [mix64((seed + (j + 1) * PHI) & MASK) for j in range(count)]


def threshold_u64(p: float) -> int:
    """Bernoulli threshold: draw < threshold happens with probability ~p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    # scaling a double by 2**64 is exact; int() truncates exactly
    return int(p * 2.0**64)


def edge_masks(seeds: np.ndarray, num_pairs: int, p: float) -> np.ndarray:
    """Bernoulli(p) edge masks, one row per stream seed.

    Entry ``[t, e]`` is 1 iff ``draw(seeds[t], e) < threshold_u64(p)``.
    Returns a uint8 array of shape (len(seeds), num_pairs).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    with np.errstate(over="ignore"):
        counters = np.arange(1, num_pairs + 1, dtype=np.uint64) * _PHI_U64
        draws = mix64_np(seeds[:, None] + counters[None, :])
    return (draws < np.uint64(threshold_u64(p))).view(np.uint8)
