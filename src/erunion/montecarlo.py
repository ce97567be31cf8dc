"""Monte-Carlo estimation of union algebraic connectivity.

A run estimates the mean and variance of lambda_2 and the probability that
the union is connected (lambda_2 > ``EPS_ZERO``). By Fiedler's theorem every
connected n-node graph has lambda_2 >= lambda_min = 2(1 - cos(pi/n)), so that
same count is reported as the probability of lambda_2 >= lambda_min, the
event the analytic bound in :mod:`erunion.bounds` lower-bounds.

Trial t draws its own counter-based stream (see :mod:`erunion.rng`) so the
sample set is a pure function of the configuration: results are bit-identical
for any worker count. Each trial's union is drawn as one G(n, p_hat) graph,
and only its pairs in the rarer state are drawn (:func:`erunion.rng.rare_pairs`)
from the stream seeded by ``rng.trial_seeds_np(master_seed, t, 1)``, so trial
t's union graph is the graph ``mc --dump-graphs`` writes for trial t.

Each union's path comes from the sampled pairs: two ``bincount`` calls over
their end nodes count the pairs listed at each node, present or missing. A
node of degree 0 lists no present pair, or every missing one. A union with
such a node is disconnected, so its lambda_2 is exactly 0.0 with no
eigensolve; near the connectivity threshold about half the unions are of
this kind. A union solved in full whose lambda_2 comes out at most
``EPS_ZERO`` (the solver's rounding noise on a disconnected union) gets 0.0
too, so the shortcut gives exactly what a solve gives.

When the missing pairs are sampled (p_hat > 1/2), a union with a node of
degree n - 1 is solved through its complement graph Gc, whose edges are
those pairs, few for the near-complete unions of the paper's certified
regime. Laplacians of complementary graphs sum to nI - J, so on the vectors
orthogonal to the all-ones vector the spectrum of L(G) is n minus that of
L(Gc), and lambda_2(G) = n - lambda_max(L(Gc)). L(Gc) is zero on every node
of degree n - 1 in G and block diagonal over the components of Gc, so
lambda_max(L(Gc)) is the largest eigenvalue of L(Gc) restricted to S: the
nodes of Gc's edges, less those of its isolated edges (two nodes that miss
each other and nothing else). An isolated edge's block has eigenvalues
{0, 2}, and a component of 3 or more nodes has a node of degree d >= 2,
hence lambda_max >= d + 1 >= 3 (Grone-Merris), so S leaves out every
isolated edge when Gc has such a component, and all but the one at its
lowest node, its first listed pair, when Gc is a matching; every value
still comes from a solve. S has |S| <= n - 1 rows instead of n, fewer than
the nodes Gc touches, and none for the complete graph, whose lambda_2 is n.
When the present pairs are sampled (p_hat <= 1/2), such a union is common
only at tiny n, and its complement touches almost every node, so that S
would hold nearly n rows; it is solved in full like any other union. The one
Laplacian builder (:func:`erunion.graphs.laplacians_from_pairs`) makes
every matrix from the sampled pairs, with no edge mask: a union solved in
full from its pairs, and L(Gc) on S from the missing pairs among S, each
node numbered by its rank in S, so only unions solved in full get n x n
Laplacians. The complement Laplacians are stacked in order of |S|, and
each |S| is solved as one slice of the stack. A union solved through Gc
has lambda_2 >= 1, as lambda_max(L(Gc)) <= |S|, so the connectivity count
is that of the full solve, and n - lambda_max does not cancel; the lambda_2
mean, variance and their half-widths may move in their low digits (about
1e-14 relative), and only in runs that hold such a trial.

Trials run in chunks of consecutive indices whose size depends on n, p_hat
and the trial count alone, never on the worker count (:func:`_chunk_trials`).
One cap holds for every chunk: its unions hold at most ``_CHUNK_PAIRS``
(2^18) pairs, which caps the sampler's draw arrays, or one union's
n(n - 1)/2 pairs from n = 725 up. Within that cap a chunk holds no more
unions than are expected to build about ``_CHUNK_ENTRIES`` entries of n x n
Laplacians, but at least 16, for the per-chunk overhead, and never more
than the trial count.
The expected count takes f = (1 - p_hat^(n-1))^n as the share of unions
with no node of degree n - 1, the only ones solved in full when
p_hat > 1/2, so a chunk of the certified regime, where f is tiny, is
bounded by its pairs alone. By Harris's inequality the true share is at
least f, and below p_hat = 1/2 the other unions are solved in full too,
so a chunk may hold more such unions than expected; the n x n Laplacians
are therefore built and solved in slices of at most :func:`_slice_matrices`
unions, each released before the next is built: about ``_CHUNK_ENTRIES``
entries (512 KB), or one union where its matrix is larger (n >= 182),
whatever the chunk size.
Below ``DSYEVR_MIN_N`` rows that is at least 21 matrices for batched
``eigvalsh``; from there up :func:`erunion.spectral.eigenvalue_at` solves one
matrix at a time, and a slice of several spreads the per-slice Python work.
Each eigensolve depends on its own matrix alone, so neither chunks nor
slices move any result. A slice's pairs are contiguous ranges of the
chunk's, which the sampler returns sorted by union.
The chunks run on W = min(workers, chunks, usable CPUs) workers: the
calling thread and W - 1 helper threads run the same loop, taking chunks in
trial order from one shared iterator. A new thread fills a malloc arena of
its own with its chunks' arrays, so the calling thread works rather than
waits. The worker count leaves the BLAS thread count alone: solves of
``DSYEVR_MIN_N`` rows or more run on one BLAS thread, as their bits depend
on the count, and smaller ones at numpy's own count
(:func:`erunion.spectral.eigenvalue_at`).
"""
from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import CapabilityError, ValidationError
from .graphs import ModelParams, laplacians_from_pairs, pair_arrays
from .spectral import EPS_ZERO, SPECTRAL_N_CEILING, eigenvalue_at

Z95 = 1.959963984540054

# n x n Laplacian entries a slice holds (512 KB of float64, at least 21
# matrices below DSYEVR_MIN_N rows, or one larger one), so that they stay in
# cache, and that a chunk is expected to build; below 16 trials the per-chunk
# Python overhead dominates, so this bound leaves a chunk at least 16 trials
# where _CHUNK_PAIRS allows that many
_CHUNK_ENTRIES = 1 << 16
# pairs over all of a chunk's unions, the one hard cap on a chunk of two or
# more trials; a round of the sampler's draws holds at most num_pairs + 1
# 8-byte draws per trial, so this caps its arrays near 2 MB
_CHUNK_PAIRS = 1 << 18


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _slice_matrices(n: int) -> int:
    """Unions solved in full whose n x n Laplacians are built and solved at once."""
    return max(1, _CHUNK_ENTRIES // (n * n))


def _chunk_trials(n: int, p_hat: float, trials: int) -> int:
    """Trials per chunk at n nodes and edge probability p_hat (module doc)."""
    pairs = _CHUNK_PAIRS // (n * (n - 1) // 2)
    # n x n entries a trial is expected to build; 0 when f underflows
    built = n * n * (1.0 - p_hat ** (n - 1)) ** n
    chunk = pairs if built * pairs <= _CHUNK_ENTRIES else max(16, int(_CHUNK_ENTRIES / built))
    return max(1, min(trials, pairs, chunk))


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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion (well-behaved near 0/1).

    Its ends are exactly 0.0 when ``successes`` is 0 and exactly 1.0 when it
    is ``trials``, so the interval always holds ``successes / trials``.
    """
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    if (not isinstance(successes, int) or isinstance(successes, bool)
            or not 0 <= successes <= trials):
        raise ValidationError(f"successes must be an integer in [0, {trials}], got {successes!r}")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = (Z95 / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    # centre -/+ half is 0 or 1 in exact arithmetic there; rounding moves it inward
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


def lambda2s_from_pairs(trial: np.ndarray, pair: np.ndarray, present: bool, unions: int,
                        n: int) -> np.ndarray:
    """lambda_2 of each of ``unions`` n-node unions, from their pairs in one state.

    Union ``trial[k]`` lists pair ``pair[k]`` of :func:`erunion.graphs.pair_arrays`,
    sorted by (union, pair) as :func:`erunion.rng.rare_pairs` returns them;
    a union may list none. The listed pairs are present when ``present`` is
    true and missing otherwise, and every other pair is in the other state.
    A union with a node of degree 0 gets 0.0; when the missing pairs are
    listed, a union with a node of degree n - 1 gets n - lambda_max of its
    complement's Laplacian on S, built from its listed pairs; any other union
    is solved in full, in slices of :func:`_slice_matrices` unions, one slice
    held at a time, and gets 0.0 where its solve gives at most ``EPS_ZERO``.
    Every eigenvalue comes from :func:`erunion.spectral.eigenvalue_at`; each
    depends on its own union alone.
    """
    i, j = pair_arrays(n)
    # a listed pair counts once at each of its two nodes
    listed = (np.bincount(trial * n + i[pair], minlength=unions * n)
              + np.bincount(trial * n + j[pair], minlength=unions * n)).reshape(-1, n)
    # only listed missing pairs take the complement path (module doc), where
    # a node of degree n - 1 lists none; a node of degree 0 lists no present
    # pair, or every missing one
    universal = (listed == 0).any(axis=1) & (not present)
    full = np.flatnonzero(~(listed == (0 if present else n - 1)).any(axis=1) & ~universal)
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
        values = eigenvalue_at(
            laplacians_from_pairs(batch, i[pair[index]], j[pair[index]], present, len(at), n), 2)
        # a disconnected union's lambda_2 is 0 exactly, not the solver's +-1e-16
        values[values <= EPS_ZERO] = 0.0
        lambda2s[at] = values
    rows = np.flatnonzero(universal)
    lambda2s[rows] = n
    if not rows.size:
        return lambda2s
    a, b = i[pair], j[pair]
    # the listed pairs are the complement's edges; an isolated complement edge
    # has eigenvalues {0, 2}, below the lambda_max >= 3 of any component of 3
    # or more nodes, so S keeps none of them, or when the complement is a
    # matching, the one at its lowest node: its first pair, as they are sorted
    isolated = (listed[trial, a] == 1) & (listed[trial, b] == 1)
    leading = (listed < 2).all(axis=1)[trial] & (np.arange(len(trial)) == first[trial])
    kept = universal[trial] & (~isolated | leading)
    t, u, v = trial[kept], a[kept], b[kept]
    # S, the nodes of the kept pairs, numbered in ascending order
    in_s = np.zeros((unions, n), dtype=bool)
    in_s[t, u] = in_s[t, v] = True
    rank = np.cumsum(in_s, axis=1) - 1
    sizes = rank[rows, -1] + 1
    # the unions by |S|, so that each |S| is one slice of the stack
    order = np.argsort(sizes, kind="stable")
    rows, sizes = rows[order], sizes[order]
    size_max = sizes[-1]
    position = np.empty(unions, dtype=np.int64)
    position[rows] = np.arange(len(rows))
    sub = laplacians_from_pairs(position[t], rank[t, u], rank[t, v], True, len(rows), size_max)
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

    Per trial: draw the union's rare pairs at p_hat from the trial's stream
    and take its lambda_2 from them (:func:`lambda2s_from_pairs`). Aggregation
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

    try:  # the per-trial array, before any sampling
        lambda2s = np.empty(trials)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's size limit
        raise CapabilityError(f"trials={trials} needs {8 * trials:.3g} bytes of memory") from exc
    chunk = _chunk_trials(n, p_hat, trials)
    chunks = range(0, trials, chunk)
    pool_size = min(config.workers, len(chunks), _usable_cpus())
    present = not rng.missing_is_rare(p_hat)

    def run_chunk(start: int) -> None:
        stop = min(start + chunk, trials)
        seeds = rng.trial_seeds_np(config.master_seed, start, stop - start)
        trial, pair = rng.rare_pairs(seeds, num_pairs, p_hat)
        lambda2s[start:stop] = lambda2s_from_pairs(trial, pair, present, stop - start, n)

    # the calling thread and pool_size - 1 helpers take the chunks, in trial
    # order, from one iterator; a chunk's arrays go when run_chunk returns
    starts = iter(chunks)

    def run_chunks() -> None:
        try:
            for start in starts:
                run_chunk(start)
        finally:  # after a failure or Ctrl-C, the other workers find no chunk left
            for _ in starts:
                pass

    with contextlib.ExitStack() as stack:
        helpers = []
        if pool_size > 1:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=pool_size - 1))
            helpers = [pool.submit(run_chunks) for _ in range(pool_size - 1)]
        run_chunks()
        for helper in helpers:
            helper.result()

    n_conn = int(np.count_nonzero(lambda2s > EPS_ZERO))
    mean = float(np.sum(lambda2s)) / trials
    var, mean_hw, var_hw = 0.0, None, None
    if trials > 1:
        # the per-trial array is scratch now, so the moments reuse it in place
        lambda2s -= mean
        var = float(np.sum(np.square(lambda2s))) / (trials - 1)
        mean_hw = Z95 * math.sqrt(var / trials)
        # distribution-free variance CI from the fourth central moment
        m4c = float(np.sum(np.power(lambda2s, 4, out=lambda2s))) / trials
        var_hw = Z95 * math.sqrt(max(m4c - var * var, 0.0) / trials)
    lo, hi = wilson_interval(n_conn, trials)
    conn_hw = (hi - lo) / 2.0
    p_conn = n_conn / trials
    return McEstimate(mean_lambda2=mean, var_lambda2=var, prob_connected=p_conn,
                      prob_ge_lambda_min=p_conn, trials=trials,
                      ci_halfwidths={"mean_lambda2": mean_hw, "var_lambda2": var_hw,
                                     "prob_connected": conn_hw, "prob_ge_lambda_min": conn_hw})

