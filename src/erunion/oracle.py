"""Exact ground truth by weighted enumeration of all labelled graphs (n <= 6).

Every edge subset of the M = n(n-1)/2 admissible pairs is enumerated as a
bitmask over the lexicographic pair order (bit e = pair e), and its Laplacian
is built from the pairs its set bits name by the one builder,
:func:`erunion.graphs.laplacians_from_pairs`. A graph with m edges has weight
p^m q^(M-m), which depends on m alone, so each n is enumerated once into a
p-free table of per-graph quantities summed by edge count (``_structure``),
and each (n, p) is that table times the M+1 weights. All quantities are exact
sums over the full 2^M-graph sample space and are entirely independent of
the closed-form moment formulas they are used to check.

A graph counts as connected when lambda_2 > ``EPS_ZERO``; by Fiedler's
theorem these are exactly the graphs with lambda_2 >= lambda_min, so
``prob_lambda2_ge_lambda_min`` is the same sum as ``prob_connected``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError
from .graphs import ModelParams, laplacians_from_pairs, pair_arrays
from .spectral import EPS_ZERO

ORACLE_N_CAP = 6
_SLICE_GRAPHS = 1 << 10  # graphs built and solved at once: 0.3 MB of Laplacians at n = 6
_EDGE_COUNTS = np.arange(ORACLE_N_CAP * (ORACLE_N_CAP - 1) // 2 + 1)  # 0..M for every n <= cap


@dataclass(frozen=True)
class ExactReport:
    """Probability-weighted exact quantities for one (n, p)."""

    n: int
    p: float
    expected_trace_lk: dict        # k in 1..4 -> E[trace(L^k)]
    eigenvalue_moments: dict       # k in 1..4 -> E[trace(L^k)] / (n-1)
    expected_lambda2: float
    expected_lambda2_sq: float
    prob_connected: float
    prob_lambda2_ge_lambda_min: float
    weight_total: float


def _graph_stats(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and the 8 rows (1, tr L^k for k = 1..4, lambda_2,
    lambda_2^2, connected) of the graphs with bitmasks start..stop-1.

    One product L^2 gives all four traces: tr(AB) is the entrywise sum of
    A * B when B is symmetric, and L and L^2 are, so tr L^2 = sum(L * L),
    tr L^3 = sum(L^2 * L) and tr L^4 = sum(L^2 * L^2). Every entry is a small
    integer, so the traces are exact.
    """
    m = n * (n - 1) // 2
    masks = np.arange(start, stop, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(bool)
    # np.nonzero(bits), taken on the flat index: the 2-d form is about 4x slower here
    graph, pair = np.divmod(np.flatnonzero(bits), m)
    i, j = pair_arrays(n)
    lap = laplacians_from_pairs(graph, i[pair], j[pair], True, len(bits), n)
    l2 = lap @ lap
    lambda2s = np.linalg.eigvalsh(lap)[:, 1]
    return bits.sum(axis=1, dtype=np.int64), np.stack([
        np.ones(len(bits)), np.einsum("bii->b", lap), np.einsum("bij,bij->b", lap, lap),
        np.einsum("bij,bij->b", l2, lap), np.einsum("bij,bij->b", l2, l2),
        lambda2s, lambda2s * lambda2s, lambda2s > EPS_ZERO])


@lru_cache(maxsize=8)
def _structure(n: int) -> np.ndarray:
    """Read-only p-free (8, M+1) table: entry (r, m) sums ``_graph_stats``
    row r over the C(M, m) graphs with m edges.

    Graphs are built, solved and reduced by edge count ``_SLICE_GRAPHS`` at a
    time, so the build holds one slice of Laplacians, not all 2^M (22 MB at
    n = 6). Values are split into multiples of 2^-20, whose sums are exact
    (below 2^28, so 48 bits, for n <= 6), and remainders, so each entry is
    the exact sum up to about one rounding; the integer rows are exact.
    """
    m = n * (n - 1) // 2
    coarse, fine = np.zeros((8, m + 1)), np.zeros((8, m + 1))
    for start in range(0, 1 << m, _SLICE_GRAPHS):
        edge_counts, stats = _graph_stats(n, start, min(start + _SLICE_GRAPHS, 1 << m))
        grid = np.round(stats * 2.0 ** 20) * 2.0 ** -20
        for table, part in ((coarse, grid), (fine, stats - grid)):
            for row, values in zip(table, part):
                row += np.bincount(edge_counts, weights=values, minlength=m + 1)
    table = coarse + fine
    table.flags.writeable = False
    return table


def enumerate_exact(params: ModelParams) -> ExactReport:
    """Exact expectations/probabilities by full enumeration; n <= 6 only."""
    n = params.n
    if n > ORACLE_N_CAP:
        raise CapabilityError(
            f"exact enumeration is capped at n = {ORACLE_N_CAP}, got n = {n}")
    pairs = params.num_pairs
    weights = params.p ** _EDGE_COUNTS[:pairs + 1] * params.q ** _EDGE_COUNTS[pairs::-1]
    total, *traces, lambda2, lambda2_sq, connected = (_structure(n) @ weights).tolist()
    return ExactReport(
        n=n,
        p=params.p,
        expected_trace_lk=dict(enumerate(traces, 1)),
        eigenvalue_moments={k: t / (n - 1) for k, t in enumerate(traces, 1)},
        expected_lambda2=lambda2,
        expected_lambda2_sq=lambda2_sq,
        prob_connected=connected,
        prob_lambda2_ge_lambda_min=connected,
        weight_total=total,
    )


def exact_union_report(params: ModelParams, num_graphs: int) -> ExactReport:
    """Exact report for a union of num_graphs samples: enumeration at p_hat."""
    p_hat, _ = params.effective_probabilities(num_graphs)
    return enumerate_exact(ModelParams(params.n, p_hat))
