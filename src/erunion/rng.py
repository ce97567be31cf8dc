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

Stream definition "v3": a G(n, p) sample is drawn by geometric skip
sampling (Batagelj and Brandes 2005), which draws only the pairs in the
rarer state, present pairs when p <= 1/2 and missing pairs otherwise, so
it costs about min(m, M - m) + 1 draws for M pairs, m of them present. With
r = min(p, 1 - p), draw ``j`` gives

    u_j   = ((draw(s, j) >> 11) + 1) * 2**-53                (in (0, 1])
    gap_j = min(floor(log(u_j) / log1p(-r)), M)

and the rare pairs are at positions ``gap_0 + ... + gap_j + j`` (the
cumulative sum of ``gap + 1``, minus 1) below M; the stream stops at its
first position >= M. Each gap is geometric, P[gap >= k] = (1 - r)**k, up to
the 2**-53 grid of ``u`` and the rounding of the log, so each pair is in
the rare state with probability r, independently. A union of N samples of
G(n, p) is sampled as one G(n, p_hat) graph, p_hat = 1 - (1-p)^N.

The sampled pairs are a pure function of (seed, M, p) on a given numpy
build, whatever the batch they are drawn in. numpy's vectorised ``log`` may
differ by an ulp between CPUs, which can move a gap that falls on an
integer, so the sample set is not promised to be identical across hosts.
"""
from __future__ import annotations

import math

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


def trial_seeds_np(master_seed: int, start: int, count: int) -> np.ndarray:
    """Seeds for trials ``start .. start+count-1`` as a uint64 array
    (``trial_seed`` in the module doc)."""
    base = np.uint64(mix64(master_seed))
    t = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64_np(base + t * _PHI_U64)


def missing_is_rare(p: float) -> bool:
    """True iff :func:`rare_pairs` samples the missing pairs at p, not the present ones."""
    return p > 0.5


def _overdraw(mean: float, num_pairs: int) -> int:
    """Draws per trial in each round of :func:`rare_pairs`: a stream needs one
    more than its rare count, binomial with this mean and a standard deviation
    below sqrt(mean), so six of those and 8 spare leave a top-up round rare.
    num_pairs + 1 draws end every stream, as each moves the position >= 1."""
    return min(int(mean + 6.0 * math.sqrt(mean)) + 8, num_pairs + 1)


def rare_pairs(seeds: np.ndarray, num_pairs: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs in the rarer state of each stream's G(n, p) sample ("v3", module doc).

    Returns index arrays ``(trial, pair)``, in ascending (trial, pair) order:
    pair ``pair[k]`` of stream ``seeds[trial[k]]`` is present when p <= 1/2
    and missing otherwise (:func:`missing_is_rare`). Every stream draws a
    fixed overdraw of counters, then the unfinished ones draw the next as
    often as they need; the result does not depend on the overdraw.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    rare = 1.0 - p if missing_is_rare(p) else p
    log_q = math.log1p(-rare)
    width = _overdraw(num_pairs * rare, num_pairs)
    rows = np.arange(len(seeds))
    last = np.full(len(seeds), -1, dtype=np.int64)
    trials, pairs = [], []
    offset = 0
    while rows.size:
        with np.errstate(over="ignore"):
            counters = np.arange(offset + 1, offset + width + 1, dtype=np.uint64) * _PHI_U64
            draws = mix64_np(seeds[rows, None] + counters)
        draws >>= np.uint64(11)
        draws += np.uint64(1)
        u = draws.astype(np.float64)
        u *= 2.0**-53
        # the ratio is >= 0, so truncation floors it; a subnormal r sends it to inf
        with np.errstate(over="ignore"):
            ratio = np.log(u, out=u)
            ratio /= log_q
        np.minimum(ratio, num_pairs, out=ratio)
        positions = ratio.astype(np.int64)
        positions += 1
        np.cumsum(positions, axis=1, out=positions)
        positions += last[:, None]
        keep = positions < num_pairs
        trials.append(np.repeat(rows, np.count_nonzero(keep, axis=1)))
        pairs.append(positions[keep])
        last = positions[:, -1]
        open_ = last < num_pairs
        rows, last = rows[open_], last[open_]
        offset += width
    if len(trials) == 1:
        return trials[0], pairs[0]
    trial, pair = np.concatenate(trials), np.concatenate(pairs)
    order = np.argsort(trial, kind="stable")
    return trial[order], pair[order]
