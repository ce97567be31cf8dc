"""Reference implementations that the tests compare the package against.

None of these is on a path the command line runs. The Laplacian, BFS,
edge-list parser and order-statistic bounds are written apart from the
package's code, so a test that compares the two checks both; the rest are
plain helpers.
"""
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import IO, Iterable, Sequence

import numpy as np

from erunion import GraphSample, ModelParams, ValidationError, eigenvalue_moment, rng
from erunion.moments import _square_moments


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
    """Parse the edge-list text format that :func:`erunion.write_edgelist`
    writes: a header ``n=<count>``, then one ``i j`` pair per line with
    ``i < j``, each pair at most once and every number in ASCII digits."""
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
    """First four eigenvalue moments and the derived variances for one (n, p)."""

    m1: float
    m2: float
    m3: float
    m4: float
    var1: float      # Var of an eigenvalue: 2npq
    var2: float      # Var of a squared eigenvalue: m4 - m2^2
    sigma2: float    # sqrt(var2)


def eigenvalue_variances(params: ModelParams) -> MomentSet:
    """The package's four closed-form moments, Var of an eigenvalue (2npq), and
    the package's var2 = m4 - m2^2 (:func:`erunion.moments._square_moments`)."""
    n, p, q = params.n, params.p, params.q
    m = [eigenvalue_moment(params, k) for k in (1, 2, 3, 4)]
    _, var2 = _square_moments(n, p)
    return MomentSet(m1=m[0], m2=m[1], m3=m[2], m4=m[3],
                     var1=2.0 * n * p * q, var2=var2, sigma2=math.sqrt(var2))
