"""Reference implementations that the tests compare the package against.

None of these is on a path the command line runs. The Laplacian, BFS,
edge-list parser and writer, scalar trial seeds, per-graph exact table and
order-statistic bounds are written apart from the package's code, so a test
that compares the two checks both; the one-graph sampler draws through
:func:`erunion.rng.rare_pairs` into a :class:`GraphSample`, and the rest are
plain helpers.
"""
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import IO, Iterable, Sequence

import numpy as np

from erunion import ModelParams, ValidationError, eigenvalue_moment, rng
from erunion.graphs import pair_arrays
from erunion.spectral import EPS_ZERO


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


def trial_seed(master_seed: int, trial: int) -> int:
    """Seed of the stream assigned to a trial index, from the scalar mix."""
    return rng.mix64((rng.mix64(master_seed) + trial * rng.PHI) & rng.MASK)


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
    ``sample_union(params, N, trial_seed(master_seed, t))``.
    """
    p_hat, _ = params.effective_probabilities(num_graphs)
    return sample_graph(ModelParams(params.n, p_hat), seed)


def write_edgelist(g: GraphSample, fp: IO[str]) -> None:
    """Serialise as the edge-list text format: header ``n=<count>``, one ``i j`` per line."""
    fp.write(f"n={g.n}\n")
    for i, j in sorted(g.edges):
        fp.write(f"{i} {j}\n")


@lru_cache(maxsize=64)
def all_pairs(n: int) -> tuple:
    """Admissible node pairs of an n-node graph in lexicographic order."""
    return tuple(combinations(range(n), 2))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> GraphSample:
    """A sample from unordered pairs, normalising each to (min, max)."""
    norm = set()
    for i, j in edges:
        if i == j:
            raise ValidationError(f"self-loop ({i}, {j}) is not allowed")
        norm.add((min(i, j), max(i, j)))
    return GraphSample(n, frozenset(norm))


def num_edges(g: GraphSample) -> int:
    return len(g.edges)


def v3_rare_pairs(seed: int, num_pairs: int, p: float) -> list[int]:
    """Stream v3 written one draw at a time: the pairs in the rarer state."""
    rare = min(p, 1.0 - p)
    log_q = math.log1p(-rare)
    pairs, position, j = [], -1, 0
    while True:
        draw = rng.mix64((seed + (j + 1) * rng.PHI) & rng.MASK)
        u = ((draw >> 11) + 1) * 2.0**-53
        ratio = math.log(u) / log_q
        position += (num_pairs if ratio >= num_pairs else math.floor(ratio)) + 1
        if position >= num_pairs:
            return pairs
        pairs.append(position)
        j += 1


def edge_masks(seeds: np.ndarray, num_pairs: int, p: float) -> np.ndarray:
    """G(n, p) edge masks over ``num_pairs`` pairs, one uint8 row per stream
    seed, set from the pairs :func:`erunion.rng.rare_pairs` draws."""
    trial, pair = rng.rare_pairs(seeds, num_pairs, p)
    missing = rng.missing_is_rare(p)
    masks = (np.ones if missing else np.zeros)((len(seeds), num_pairs), dtype=np.uint8)
    masks[trial, pair] = not missing
    return masks


def union_graphs(samples: Sequence[GraphSample]) -> GraphSample:
    """Edge-set union of graphs on a common node set."""
    if not samples:
        raise ValidationError("union_graphs needs at least one graph")
    n = samples[0].n
    merged = set()
    for g in samples:
        if g.n != n:
            raise ValidationError(f"node counts differ: {g.n} != {n}")
        merged |= g.edges
    return GraphSample(n, frozenset(merged))


def laplacian(g: GraphSample) -> np.ndarray:
    """Graph Laplacian L = D - A, one edge at a time.

    An absent pair's entry is -0.0, the entry of -A, as in the package's
    builder, so an eigensolver sees the same bits from both.
    """
    lap = np.full((g.n, g.n), -0.0)
    degrees = [0] * g.n
    for i, j in g.edges:
        lap[i, j] = lap[j, i] = -1.0
        degrees[i] += 1
        degrees[j] += 1
    np.fill_diagonal(lap, degrees)
    return lap


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


def _is_ascii_number(token: str) -> bool:
    return token.isascii() and token.isdigit()


def read_edgelist(fp: IO[str]) -> GraphSample:
    """Parse the edge-list text format that :func:`write_edgelist` and
    ``mc --dump-graphs`` write: a header ``n=<count>``, then one ``i j`` pair
    per line with ``i < j``, each pair at most once and every number in ASCII
    digits."""
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


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending.

    Raises :class:`ValidationError` when the input is not square or departs
    from symmetry by more than 1e-12 relative to its largest entry.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise ValidationError("matrix is not symmetric to within 1e-12")
    return np.linalg.eigvalsh(m)


def lambda2(laplacian_matrix) -> float:
    """Algebraic connectivity: second-smallest eigenvalue of a graph Laplacian.

    Positive (above :data:`erunion.spectral.EPS_ZERO`) iff the graph is connected.
    """
    m = np.asarray(laplacian_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValidationError(f"expected a square Laplacian of size >= 2, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m.sum(axis=1)))) > 1e-9 * scale:
        raise ValidationError("row sums are not zero: not a graph Laplacian")
    w = symmetric_eigenvalues(m)
    return float(w[1])


def bitmask_laplacians(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and Laplacians of the 2^M graphs on n nodes, graph b
    holding pair e of :func:`all_pairs` when bit e of b is set."""
    pairs = all_pairs(n)
    bits = (np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1
    adjacency = np.zeros((len(bits), n, n))
    for e, (i, j) in enumerate(pairs):
        adjacency[:, i, j] = adjacency[:, j, i] = bits[:, e]
    lap = -adjacency
    lap[:, range(n), range(n)] = adjacency.sum(axis=2)
    return bits.sum(axis=1), lap


@lru_cache(maxsize=None)
def per_graph_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and the 8 rows (1, tr L^k for k = 1..4, lambda_2,
    lambda_2^2, connected) of the 2^M graphs of :func:`bitmask_laplacians`,
    from each graph's own solve, lambda_2 taken as 0 where it is at most
    :data:`erunion.spectral.EPS_ZERO`. Cached, so both are read-only."""
    edge_counts, lap = bitmask_laplacians(n)
    lambda2s = np.linalg.eigvalsh(lap)[:, 1]
    lambda2s[lambda2s <= EPS_ZERO] = 0.0
    traces = [np.trace(np.linalg.matrix_power(lap, k), axis1=1, axis2=2) for k in (1, 2, 3, 4)]
    rows = np.stack([np.ones(len(lap)), *traces, lambda2s, lambda2s ** 2, lambda2s > EPS_ZERO])
    edge_counts.flags.writeable = rows.flags.writeable = False
    return edge_counts, rows


def per_graph_table(n: int) -> np.ndarray:
    """The oracle's (8, M+1) table from each graph's own solve: entry (r, m)
    is the exact sum of row r of :func:`per_graph_rows` over the graphs with
    m edges."""
    edge_counts, rows = per_graph_rows(n)
    return np.array([[math.fsum(row[edge_counts == m]) for m in range(edge_counts.max() + 1)]
                     for row in rows])


def structured_matrix_eigs(alpha: float, beta: float, n: int) -> tuple[float, float]:
    """Eigenvalues of (alpha-beta)I + beta*J: the simple one and the (n-1)-fold one.

    Returns ``(alpha + (n-1)*beta, alpha - beta)``.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    return alpha + (n - 1) * beta, alpha - beta


def order_stat_expectation_bounds(mu: float, sigma: float, m: int,
                                  k: int) -> tuple[float, float]:
    """Mean bounds for the k-th order statistic of m variables with common
    mean mu and variance sigma^2:

        mu - sigma*sqrt((m-k)/k)  <=  E[X_(k)]  <=  mu + sigma*sqrt((k-1)/(m-k+1))
    """
    if sigma < 0.0:
        raise ValidationError(f"sigma must be nonnegative, got {sigma!r}")
    if not (isinstance(m, int) and isinstance(k, int) and 1 <= k <= m):
        raise ValidationError(f"need integers 1 <= k <= m, got k={k!r}, m={m!r}")
    lower = mu - sigma * math.sqrt((m - k) / k)
    upper = mu + sigma * math.sqrt((k - 1) / (m - k + 1))
    return lower, upper


@dataclass(frozen=True)
class MomentSet:
    """First four eigenvalue moments and the variance of an eigenvalue for one (n, p)."""

    m1: float
    m2: float
    m3: float
    m4: float
    var1: float      # Var of an eigenvalue: 2npq


def eigenvalue_variances(params: ModelParams) -> MomentSet:
    """The package's four closed-form moments and Var of an eigenvalue (2npq)."""
    n, p, q = params.n, params.p, params.q
    m = [eigenvalue_moment(params, k) for k in (1, 2, 3, 4)]
    return MomentSet(m1=m[0], m2=m[1], m3=m[2], m4=m[3], var1=2.0 * n * p * q)
