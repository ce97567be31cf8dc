"""Monte-Carlo estimation of union algebraic connectivity.

A run estimates the mean and variance of lambda_2 and the probability that
the union is connected (lambda_2 > ``EPS_ZERO``). By Fiedler's theorem every
connected n-node graph has lambda_2 >= lambda_min = 2(1 - cos(pi/n)), so that
same count is reported as the probability of lambda_2 >= lambda_min, the
event the analytic bound in :mod:`erunion.bounds` lower-bounds.

Trial t draws its own counter-based stream (see :mod:`erunion.rng`) so the
sample set is a pure function of the configuration: results are bit-identical
for any worker count. Each trial's union is drawn as one G(n, p_hat) graph,
and only its pairs in the rarer state are drawn (:func:`erunion.rng.rare_pairs`),
so trial t's union graph equals
``sample_union(params, num_graphs, rng.trial_seed(master_seed, t))``.

Node degrees come from the sampled pairs: two ``bincount`` calls over their
end nodes count the present pairs at each node, or the missing ones, whose
count subtracted from n - 1 is the degree. The degrees pick each union's
path. A union with a node of degree 0 is disconnected, so its lambda_2 is
exactly 0.0 with no eigensolve; near the connectivity threshold about half
the unions are of this kind. A solve would return rounding noise of about
1e-15, below ``EPS_ZERO``, so the connectivity frequency is that of solving
every union; the lambda_2 mean, variance and their half-widths may differ
in their low digits, and only in runs that hold such a trial.

A union with a node of degree n - 1 is solved through its complement graph
Gc, which is small for the near-complete unions of the paper's certified
regime. Laplacians of complementary graphs sum to nI - J, so on the vectors
orthogonal to the all-ones vector the spectrum of L(G) is n minus that of
L(Gc), and lambda_2(G) = n - lambda_max(L(Gc)). L(Gc) is zero on every node
of degree n - 1 in G and block diagonal over the components of Gc, so
lambda_max(L(Gc)) is the largest eigenvalue of L(Gc) restricted to S: the
nodes Gc touches, less those of its isolated edges (two nodes that miss
each other and nothing else). An isolated edge's block has eigenvalues
{0, 2}, and a component of 3 or more nodes has a node of degree d >= 2,
hence lambda_max >= d + 1 >= 3 (Grone-Merris), so S leaves out every
isolated edge when Gc has such a component, and all but the one at its
lowest node when Gc is a matching; every value still comes from a solve.
S has |S| <= n - 1 rows instead of n, about 4 on average at
(n, p, N) = (50, 0.1, 50) against about 11 for every node Gc touches, and
none for the complete graph, whose lambda_2 is n. The one Laplacian
builder (:func:`erunion.graphs.laplacians_from_pairs`) makes every matrix
from the sampled pairs, with no edge mask: a union solved in full from its
pairs, and L(Gc) on S from the pairs among S, each node numbered by its
rank in S, so only unions solved in full get n x n Laplacians. The
complement Laplacians are stacked in order of |S|, and each |S| is solved
as one slice of the stack. A union solved through Gc has lambda_2 >= 1, as
lambda_max(L(Gc)) <= |S|, so the connectivity count is that of the full
solve, and n - lambda_max does not cancel; the lambda_2 mean, variance and
their half-widths may move in their low digits (about 1e-14 relative), and
only in runs that hold such a trial.

Trials run in chunks of consecutive indices whose size depends on n, p_hat
and the trial count alone, never on the worker count (:func:`_chunk_trials`).
A chunk is bounded three ways: its unions hold at most ``_CHUNK_PAIRS``
pairs, which caps the sampler's draw arrays; the n x n Laplacians it is
expected to build fill about ``_CHUNK_ENTRIES`` entries; and it holds at
least 16 trials, for the per-chunk overhead, but at most ``_EIG_BUDGET / n^2``
and the trial count.
The expected count takes f = (1 - p_hat^(n-1))^n as the share of unions
with no node of degree n - 1, the only ones that may be solved in full, so
a chunk of the certified regime, where f is tiny, is bounded by its pairs
alone. By Harris's inequality the true share is at least f, so a chunk may
hold more such unions than expected; the n x n Laplacians are therefore
built and solved in slices of at most :func:`_slice_matrices` unions,
which bounds the matrices held at once whatever the chunk size. Below
``DSYEVR_MIN_N`` rows a slice holds about ``_CHUNK_ENTRIES`` entries and at
least 16 matrices, for batched ``eigvalsh``; from there up
:func:`erunion.spectral.eigenvalue_at` solves one matrix at a time, so a
slice holds about ``_SLICE_ENTRIES`` entries (1 MB) with no floor. Each
eigensolve depends on its own matrix alone, so neither chunks nor slices
move any result. A slice's pairs are contiguous ranges of the chunk's,
which the sampler returns sorted by union.
The chunks run on a thread pool of min(workers, chunks, usable CPUs)
threads, which take them in index order; numpy's OpenBLAS runs on one
thread meanwhile (:func:`erunion.spectral.one_blas_thread`) so that the
workers' solves do not oversubscribe the cores. A pool of one thread is the
plain loop, and keeps the BLAS threads for ``eigvalsh``; ``dsyevr`` solves
run on one BLAS thread in either case, as their bits depend on the count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import CapabilityError, ValidationError
from .graphs import ModelParams, laplacians_from_pairs, pair_arrays
from .spectral import (DSYEVR_MIN_N, EPS_ZERO, SPECTRAL_N_CEILING, eigenvalue_at,
                       one_blas_thread)

Z95 = 1.959963984540054

# eigensolver workspace (Laplacian entries) that caps a chunk and a slice at large n
_EIG_BUDGET = 1 << 22
# n x n Laplacian entries a slice holds below DSYEVR_MIN_N rows (512 KB of
# float64), so that they stay in cache, and that a chunk is expected to
# build; below 16 trials the per-chunk Python overhead dominates, so a chunk,
# or a slice solved by batched eigvalsh, holds at least 16 while _EIG_BUDGET
# allows
_CHUNK_ENTRIES = 1 << 16
# n x n Laplacian entries a slice holds (1 MB of float64) from DSYEVR_MIN_N
# rows up, where each matrix is solved alone and a slice needs no floor
_SLICE_ENTRIES = 1 << 17
# pairs over all of a chunk's unions; a round of the sampler's draws holds at
# most num_pairs + 1 8-byte draws per trial, so this caps its arrays near 2 MB
_CHUNK_PAIRS = 1 << 18


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _slice_matrices(n: int) -> int:
    """Unions solved in full whose n x n Laplacians are built and solved at once."""
    if n >= DSYEVR_MIN_N:
        return max(1, _SLICE_ENTRIES // (n * n))
    return max(1, min(_EIG_BUDGET // (n * n), max(16, _CHUNK_ENTRIES // (n * n))))


def _chunk_trials(n: int, p_hat: float, trials: int) -> int:
    """Trials per chunk at n nodes and edge probability p_hat (module doc)."""
    chunk = _CHUNK_PAIRS // (n * (n - 1) // 2)
    # n x n entries a trial is expected to build; 0 when f underflows
    built = n * n * (1.0 - p_hat ** (n - 1)) ** n
    if built * chunk > _CHUNK_ENTRIES:
        chunk = int(_CHUNK_ENTRIES / built)
    return max(1, min(trials, _EIG_BUDGET // (n * n), max(16, chunk)))


@dataclass(frozen=True)
class McConfig:
    """One Monte-Carlo run: union of num_graphs G(n, p) samples per trial."""

    params: ModelParams
    num_graphs: int
    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("num_graphs", "trials", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        seed = self.master_seed
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= rng.MASK:
            raise ValidationError(f"master_seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass(frozen=True)
class McEstimate:
    """Empirical moments of lambda_2 and its connectivity frequency.

    ``prob_ge_lambda_min`` equals ``prob_connected`` (Fiedler's theorem).
    """

    mean_lambda2: float
    var_lambda2: float
    prob_connected: float
    prob_ge_lambda_min: float
    ci_halfwidths: dict
    trials: int
    ci_reliable: bool


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (well-behaved near 0/1).

    Its ends are exactly 0.0 when ``successes`` is 0 and exactly 1.0 when it
    is ``trials``, so the interval always holds ``successes / trials``.
    """
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    if (not isinstance(successes, int) or isinstance(successes, bool)
            or not 0 <= successes <= trials):
        raise ValidationError(f"successes must be an integer in [0, {trials}], got {successes!r}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    # centre -/+ half is 0 or 1 in exact arithmetic there; rounding moves it inward
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


def lambda2s_from_pairs(trial: np.ndarray, a: np.ndarray, b: np.ndarray, present: bool,
                        degrees: np.ndarray) -> np.ndarray:
    """lambda_2 of each union in a batch, from its pairs in one state.

    Pair k joins nodes ``a[k] != b[k]`` of union ``trial[k]``. The listed
    pairs are present when ``present`` is true and missing otherwise, and
    every other pair is in the other state, as :func:`erunion.rng.rare_pairs`
    samples them, and the pairs are sorted by union. ``degrees`` holds each
    union's node degrees, one row per union; they pick each union's path. A
    union with a node of degree 0 gets 0.0, a union with a node of degree
    n - 1 gets n - lambda_max of its complement's Laplacian on S, and any
    other union is solved in full, in slices of :func:`_slice_matrices`
    unions. Every eigenvalue comes from
    :func:`erunion.spectral.eigenvalue_at`. Each value depends on its own
    union alone.
    """
    unions, n = degrees.shape
    universal = (degrees == n - 1).any(axis=1)
    full = np.flatnonzero((degrees > 0).all(axis=1) & ~universal)
    lambda2s = np.zeros(unions)
    # the pairs are sorted by union: union u's are first[u]:first[u + 1]
    first = np.searchsorted(trial, np.arange(unions + 1))
    step = _slice_matrices(n)
    for start in range(0, len(full), step):
        at = full[start:start + step]
        counts = first[at + 1] - first[at]
        batch = np.repeat(np.arange(len(at)), counts)
        # each pair's rank in the slice, moved to its union's range
        index = np.arange(len(batch)) + (first[at] - np.cumsum(counts) + counts)[batch]
        lap = laplacians_from_pairs(batch, a[index], b[index], present, len(at), n)
        lambda2s[at] = eigenvalue_at(lap, 2)
    rows = np.flatnonzero(universal)
    lambda2s[rows] = n
    if not rows.size:
        return lambda2s
    # each node's missing neighbours; for a node with one, that neighbour is
    # the other end of its one listed pair when the missing pairs are listed,
    # and the one node its listed pairs leave out when the present ones are
    missing = n - 1 - degrees
    one = missing == 1
    row = trial * n
    ends = (np.bincount(row + a, weights=b, minlength=unions * n)
            + np.bincount(row + b, weights=a, minlength=unions * n)).reshape(-1, n)
    nodes = np.arange(n)
    if present:
        ends = n * (n - 1) // 2 - nodes - ends
    partner = np.where(one, ends, 0).astype(np.int64)
    row_start = np.arange(0, unions * n, n)[:, None]
    isolated = one & (missing.reshape(-1)[row_start + partner] == 1)
    # an isolated complement edge has eigenvalues {0, 2}, below the lambda_max
    # >= 3 of any component of 3 or more nodes, so S keeps none of them, or
    # when the complement is a matching, the one at its lowest node
    matching = (missing < 2).all(axis=1)
    lowest = np.argmax(missing > 0, axis=1)
    kept = matching[:, None] & (np.minimum(nodes, partner) == lowest[:, None])
    # S, the nodes left, numbered in ascending order
    in_s = universal[:, None] & (missing > 0) & ~(isolated & ~kept)
    rank = np.cumsum(in_s, axis=1) - 1
    sizes = rank[rows, -1] + 1
    # the unions by |S|, so that each |S| is one slice of the stack
    order = np.argsort(sizes, kind="stable")
    rows, sizes = rows[order], sizes[order]
    size_max = sizes[-1]
    position = np.empty(unions, dtype=np.int64)
    position[rows] = np.arange(len(rows))
    # the listed pairs among S, by rank, are in the other state in the
    # complement; a pair with a node of degree n - 1 is present in the union
    k = in_s[trial, a] & in_s[trial, b]
    t = trial[k]
    batch, u, v = position[t], rank[t, a[k]], rank[t, b[k]]
    sub = laplacians_from_pairs(batch, u, v, not present, len(rows), size_max)
    if present:
        # the builder took each pair past a union's |S| as present in Gc; off
        # its degrees, each union's leading |S| x |S| block is L(Gc) on S
        sub.reshape(len(rows), size_max**2)[:, ::size_max + 1] -= (size_max - sizes)[:, None]
    # the builder's -0.0 of a missing pair becomes the +0.0 of (nI - J - L)[S, S]
    sub += 0.0
    # each |S| is its own batch, so that no union's submatrix is padded by its
    # batch-mates'; a complete union (|S| = 0) keeps lambda_2 = n
    bounds = np.searchsorted(sizes, np.arange(size_max + 2)).tolist()
    for size in range(1, size_max + 1):
        lo, hi = bounds[size], bounds[size + 1]
        if lo < hi:
            lambda2s[rows[lo:hi]] = n - eigenvalue_at(sub[lo:hi, :size, :size], size)
    return lambda2s


def run_mc(config: McConfig) -> McEstimate:
    """Sample every trial, solve its lambda_2; aggregate deterministically.

    Per trial: draw the union's rare pairs at p_hat from the trial's stream,
    count its degrees from them and take its lambda_2 from them
    (:func:`lambda2s_from_pairs`). Aggregation
    reads the per-trial array in trial order, so any worker count gives
    bit-identical results.
    """
    params = config.params
    n = params.n
    if n > SPECTRAL_N_CEILING:
        raise CapabilityError(
            f"n={n} exceeds the dense eigensolver ceiling ({SPECTRAL_N_CEILING})")
    p_hat, _ = params.effective_probabilities(config.num_graphs)
    num_pairs = params.num_pairs
    trials = config.trials

    lambda2s = np.empty(trials)
    chunk = _chunk_trials(n, p_hat, trials)
    starts = range(0, trials, chunk)
    pool_size = min(config.workers, len(starts), _usable_cpus())
    i, j = pair_arrays(n)
    present = not rng.missing_is_rare(p_hat)

    def run_chunk(start: int) -> None:
        stop = min(start + chunk, trials)
        seeds = rng.trial_seeds_np(config.master_seed, start, stop - start)
        trial, pair = rng.rare_pairs(seeds, num_pairs, p_hat)
        a, b = i[pair], j[pair]
        # a sampled pair counts once at each of its two nodes
        row = trial * n
        size = len(seeds) * n
        counts = (np.bincount(row + a, minlength=size)
                  + np.bincount(row + b, minlength=size)).reshape(-1, n)
        degrees = counts if present else n - 1 - counts
        lambda2s[start:stop] = lambda2s_from_pairs(trial, a, b, present, degrees)

    if pool_size == 1:
        for s in starts:
            run_chunk(s)
    else:
        with one_blas_thread(), ThreadPoolExecutor(max_workers=pool_size) as pool:
            list(pool.map(run_chunk, starts))

    mean = float(np.sum(lambda2s)) / trials
    if trials > 1:
        var = float(np.sum((lambda2s - mean) ** 2)) / (trials - 1)
    else:
        var = 0.0
    n_conn = int(np.count_nonzero(lambda2s > EPS_ZERO))

    ci_reliable = trials >= 2
    if ci_reliable:
        mean_hw = Z95 * math.sqrt(var / trials)
        # distribution-free variance CI from the fourth central moment
        m4c = float(np.sum((lambda2s - mean) ** 4)) / trials
        var_hw = Z95 * math.sqrt(max(m4c - var * var, 0.0) / trials)
    else:
        mean_hw = None
        var_hw = None

    lo, hi = wilson_interval(n_conn, trials)
    conn_hw = (hi - lo) / 2.0
    ci = {
        "mean_lambda2": mean_hw,
        "var_lambda2": var_hw,
        "prob_connected": conn_hw,
        "prob_ge_lambda_min": conn_hw,
    }
    return McEstimate(mean_lambda2=mean, var_lambda2=var,
                      prob_connected=n_conn / trials,
                      prob_ge_lambda_min=n_conn / trials,
                      ci_halfwidths=ci, trials=trials, ci_reliable=ci_reliable)

