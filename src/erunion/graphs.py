"""Erdos-Renyi graph samples, unions, and matrix views.

Nodes are labelled 0..n-1. Admissible node pairs are enumerated in
lexicographic order (0,1), (0,2), ..., (0,n-1), (1,2), ...; this order fixes
both the sampling draw order and the bitmask encoding used by the
enumeration oracle. Sampling draws one uniform per pair (no sparse
shortcuts), and a union of N samples is drawn as one G(n, p_hat) sample, so
a sample is a pure function of (params, N, seed); see :mod:`erunion.rng`
for the stream definition.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import IO, Iterable, Sequence

import numpy as np

from . import rng
from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class ModelParams:
    """G(n, p): n labelled nodes, each admissible edge present with probability p."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ValidationError(f"n must be an integer >= 2, got {self.n!r}")
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
        if not isinstance(num_graphs, int) or num_graphs < 1:
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

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "GraphSample":
        """Build a sample from unordered pairs, normalising each to (min, max)."""
        norm = set()
        for i, j in edges:
            if i == j:
                raise ValidationError(f"self-loop ({i}, {j}) is not allowed")
            norm.add((min(i, j), max(i, j)))
        return cls(n, frozenset(norm))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@lru_cache(maxsize=64)
def all_pairs(n: int) -> tuple:
    """Admissible node pairs of an n-node graph in lexicographic order."""
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=64)
def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic pair endpoints as two index arrays (row, col)."""
    return np.triu_indices(n, 1)


def incident_pairs(n: int) -> np.ndarray:
    """Lexicographic indices of the n-1 pairs holding each node, shape (n, n-1)."""
    i, j = pair_arrays(n)
    e = np.arange(i.size)
    index = np.empty((n, n), dtype=np.intp)
    index[i, j] = e
    index[j, i] = e
    return index[~np.eye(n, dtype=bool)].reshape(n, n - 1)


def laplacians_from_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Batched graph Laplacians from edge masks over the lexicographic pairs.

    The only Laplacian builder of the package. All entries are small
    integers, hence exact in float64; the result is independent of how the
    batch was blocked.
    """
    i, j = pair_arrays(n)
    m = np.asarray(masks, dtype=np.float64)
    lap = np.zeros((m.shape[0], n, n))
    lap[:, i, j] = -m
    lap[:, j, i] = -m
    idx = np.arange(n)
    # 0.0 - row sum keeps an isolated node's degree +0.0, not -0.0
    lap[:, idx, idx] = 0.0 - lap.sum(axis=2)
    return lap


def sample_graph(params: ModelParams, seed: int) -> GraphSample:
    """One G(n, p) sample: pair e is present iff draw e of the stream falls below p."""
    seeds = np.array([seed & rng.MASK], dtype=np.uint64)
    mask = rng.edge_masks(seeds, params.num_pairs, params.p)[0]
    pairs = all_pairs(params.n)
    edges = frozenset(pairs[e] for e in np.flatnonzero(mask))
    return GraphSample(params.n, edges)


def sample_union(params: ModelParams, num_graphs: int, seed: int) -> GraphSample:
    """Union of ``num_graphs`` independent G(n, p) samples, drawn as G(n, p_hat).

    ``sample_union(params, 1, seed)`` is ``sample_graph(params, seed)``, and
    trial t of a Monte-Carlo run is exactly
    ``sample_union(params, N, rng.trial_seed(master_seed, t))``.
    """
    p_hat, _ = params.effective_probabilities(num_graphs)
    return sample_graph(ModelParams(params.n, p_hat), seed)


def union_graphs(samples: Sequence[GraphSample]) -> GraphSample:
    """Edge-set union of graphs on a common node set."""
    if not samples:
        raise ValidationError("union_graphs needs at least one graph")
    n = samples[0].n
    merged = set()
    for g in samples:
        if g.n != n:
            raise DimensionError(f"node counts differ: {g.n} != {n}")
        merged |= g.edges
    return GraphSample(n, frozenset(merged))


def laplacian(g: GraphSample) -> np.ndarray:
    """Graph Laplacian L = D - A (dense, symmetric, zero row sums)."""
    adj = np.zeros((g.n, g.n), dtype=np.uint8)
    for i, j in g.edges:
        adj[i, j] = 1
    return laplacians_from_masks(adj[pair_arrays(g.n)][None, :], g.n)[0]


def is_connected_bfs(g: GraphSample) -> bool:
    """True iff every node is reachable from node 0 (breadth-first traversal)."""
    if g.n == 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                queue.append(w)
    return count == g.n


def write_edgelist(g: GraphSample, fp: IO[str]) -> None:
    """Serialise as the edge-list text format: header ``n=<count>``, one ``i j`` per line."""
    fp.write(f"n={g.n}\n")
    for i, j in sorted(g.edges):
        fp.write(f"{i} {j}\n")


def _is_ascii_number(token: str) -> bool:
    return token.isascii() and token.isdigit()


def read_edgelist(fp: IO[str]) -> GraphSample:
    """Parse the edge-list text format produced by :func:`write_edgelist`: a
    header ``n=<count>``, then one ``i j`` pair per line with ``i < j``, each
    pair at most once and every number in ASCII digits."""
    header = fp.readline().strip()
    if not (header.startswith("n=") and _is_ascii_number(header[2:])):
        raise ValidationError(f"edge-list header must be 'n=<count>', got {header!r}")
    edges = set()
    for line in fp:
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not all(map(_is_ascii_number, parts)):
            raise ValidationError(f"bad edge line {line!r}")
        i, j = int(parts[0]), int(parts[1])
        if i >= j:
            raise ValidationError(f"edge line {line!r} needs i < j")
        if (i, j) in edges:
            raise ValidationError(f"edge line {line!r} repeats an earlier pair")
        edges.add((i, j))
    return GraphSample(int(header[2:]), frozenset(edges))
