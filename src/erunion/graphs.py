"""Erdos-Renyi graph samples, the one Laplacian builder, and edge-list output.

Nodes are labelled 0..n-1. Admissible node pairs are enumerated in
lexicographic order (0,1), (0,2), ..., (0,n-1), (1,2), ... (:func:`pair_arrays`);
this order fixes both the sampling draw order and the bitmask encoding used
by the enumeration oracle. Sampling draws only the pairs in the rarer state
(present or missing), and a union of N samples is drawn as one G(n, p_hat)
sample, so a sample is a pure function of (params, N, seed); see
:mod:`erunion.rng` for the stream definition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO

import numpy as np

from . import rng
from .errors import ValidationError


@dataclass(frozen=True)
class ModelParams:
    """G(n, p): n labelled nodes, each admissible edge present with probability p."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ValidationError(f"n must be an integer >= 2, got {self.n!r}")
        if self.n > 2**53:
            # the message leaves out n, which may have hundreds of digits
            raise ValidationError("n must be at most 2**53: the closed forms take n "
                                  "as a float64")
        if not 0.0 < float(self.p) < 1.0:
            raise ValidationError(f"p must lie in the open interval (0, 1), got {self.p!r}")

    @property
    def q(self) -> float:
        """Complement probability 1 - p."""
        return 1.0 - self.p

    @property
    def num_pairs(self) -> int:
        """Number of admissible edges n(n-1)/2."""
        return self.n * (self.n - 1) // 2

    def effective_probabilities(self, num_graphs: int) -> tuple[float, float]:
        """(p_hat, q_hat) of a union of num_graphs samples: p_hat = 1 - (1-p)^N.

        Evaluated through log1p/expm1 for stability; exactly (p, q) for one
        graph. Raises :class:`ValidationError` when p_hat rounds to 1 in
        double precision.
        """
        if not isinstance(num_graphs, int) or isinstance(num_graphs, bool) or num_graphs < 1:
            raise ValidationError(f"num_graphs must be a positive integer, got {num_graphs!r}")
        if num_graphs == 1:
            return self.p, self.q
        log_q = math.log1p(-self.p)
        p_hat = -math.expm1(num_graphs * log_q)
        if not 0.0 < p_hat < 1.0:
            raise ValidationError(
                f"effective probability degenerates in double precision "
                f"(p={self.p}, N={num_graphs} gives p_hat={p_hat})")
        return p_hat, math.exp(num_graphs * log_q)


@dataclass(frozen=True)
class GraphSample:
    """Simple undirected graph on n labelled nodes; edges stored as sorted pairs."""

    n: int
    edges: frozenset

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.n):
                raise ValidationError(f"invalid edge {e!r} for n={self.n}")


@lru_cache(maxsize=64)
def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic pair endpoints as two index arrays (row, col)."""
    return np.triu_indices(n, 1)


def laplacians_from_pairs(batch: np.ndarray, a: np.ndarray, b: np.ndarray, present: bool,
                          rows: int, n: int) -> np.ndarray:
    """Batched graph Laplacians L = D - A of ``rows`` graphs on n nodes, from
    the pairs in one state.

    Pair k joins nodes ``a[k] != b[k]`` of graph ``batch[k]``, each pair
    listed at most once. The listed pairs are present when ``present`` is
    true and missing otherwise; every other pair is in the other state. The
    entry of a missing pair is -0.0 and the diagonal holds the degrees. The
    only Laplacian builder of the package. All entries are small integers,
    hence exact in float64, and each matrix depends on its own pairs alone.
    """
    lap = np.full((rows, n, n), -0.0 if present else -1.0)
    flat = lap.reshape(-1)
    counts = np.zeros(rows * n, dtype=np.int64)
    for u, v in ((a, b), (b, a)):
        # row of node u in the stack of rows * n matrix rows, then, in place,
        # the flat index of its entry in column v: one index array at a time
        index = batch * n + u
        counts += np.bincount(index, minlength=rows * n)
        index *= n
        index += v
        flat[index] = -1.0 if present else -0.0
        del index
    lap.reshape(rows, n * n)[:, ::n + 1] = (counts if present else n - 1 - counts).reshape(rows, n)
    return lap


def sample_graph(params: ModelParams, seed: int) -> GraphSample:
    """One G(n, p) sample from the stream with this seed: the pairs that
    :func:`erunion.rng.rare_pairs` draws are its edges when p <= 1/2 and
    its missing pairs otherwise."""
    seeds = np.array([seed & rng.MASK], dtype=np.uint64)
    _, pair = rng.rare_pairs(seeds, params.num_pairs, params.p)
    if rng.missing_is_rare(params.p):
        pair = np.delete(np.arange(params.num_pairs), pair)
    a, b = pair_arrays(params.n)
    return GraphSample(params.n, frozenset(zip(a[pair].tolist(), b[pair].tolist())))


def sample_union(params: ModelParams, num_graphs: int, seed: int) -> GraphSample:
    """Union of ``num_graphs`` independent G(n, p) samples, drawn as G(n, p_hat).

    ``sample_union(params, 1, seed)`` is ``sample_graph(params, seed)``, and
    trial t of a Monte-Carlo run is exactly
    ``sample_union(params, N, rng.trial_seed(master_seed, t))``.
    """
    p_hat, _ = params.effective_probabilities(num_graphs)
    return sample_graph(ModelParams(params.n, p_hat), seed)


def write_edgelist(g: GraphSample, fp: IO[str]) -> None:
    """Serialise as the edge-list text format: header ``n=<count>``, one ``i j`` per line."""
    fp.write(f"n={g.n}\n")
    for i, j in sorted(g.edges):
        fp.write(f"{i} {j}\n")
