"""Exact ground truth by weighted enumeration of all labelled graphs (n <= 6).

Every edge subset of the M = n(n-1)/2 admissible pairs is enumerated as a
bitmask over the lexicographic pair order (bit e = pair e), and its Laplacian
is built from the pairs its set bits name by the one builder,
:func:`erunion.graphs.laplacians_from_pairs`. A graph with m edges has weight
p^m q^(M-m), which depends on m alone, so each n is enumerated once into a
p-free table of quantities summed by edge count (``_structure``), and each
(n, p) is that table times the M+1 weights. All quantities are exact sums
over the full 2^M-graph sample space and are entirely independent of the
closed-form moment formulas they are used to check.

Every summed quantity (1, tr L^k for k = 1..4, lambda_2, lambda_2^2 and the
connectivity indicator) and the edge count m = tr L / 2 are functions of the
Laplacian spectrum, so the table is a sum over spectrum classes, each
counted once per graph in it: 154 classes, and so 154 lambda_2 solves, for
the 32,768 graphs on 6 nodes. Graphs are grouped by a stable sort of their
trace rows tr L^1 .. tr L^(n-1), and equal traces mean equal spectra: L's
eigenvalue 0 adds nothing to any power sum, the first n-1 power sums of the
other n-1 eigenvalues fix them by Newton's identities, and the traces are
integers below 2^31, so float64 computes them and int32 holds them exactly.
A class whose solved lambda_2 is at most ``EPS_ZERO`` (a disconnected
graph's, which the solver returns as about +-1e-16) gets lambda_2 = 0
exactly.

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
from .spectral import EPS_ZERO, eigenvalue_at

ORACLE_N_CAP = 6
_SLICE_GRAPHS = 1 << 10  # graphs built at once: L, L^2 and L^3 take 0.9 MB at n = 6
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


def _laplacians(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Laplacians of the graphs with the given bitmasks, and their traces
    tr L^1 .. tr L^5, one row per k.

    Two products L^2 and L^3 give the traces: tr(AB) is the entrywise sum of
    A * B when B is symmetric, and L^k is, so tr L^2 = sum(L * L),
    tr L^3 = sum(L^2 * L), tr L^4 = sum(L^2 * L^2) and tr L^5 = sum(L^2 * L^3).
    Every entry is a small integer, so the traces are exact.
    """
    m = n * (n - 1) // 2
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(bool)
    # np.nonzero(bits), taken on the flat index: the 2-d form is about 4x slower here
    graph, pair = np.divmod(np.flatnonzero(bits), m)
    i, j = pair_arrays(n)
    lap = laplacians_from_pairs(graph, i[pair], j[pair], True, len(bits), n)
    l2 = lap @ lap
    l3 = l2 @ lap
    return lap, np.stack([
        np.einsum("bii->b", lap), np.einsum("bij,bij->b", lap, lap),
        np.einsum("bij,bij->b", l2, lap), np.einsum("bij,bij->b", l2, l2),
        np.einsum("bij,bij->b", l2, l3)])


@lru_cache(maxsize=8)
def _structure(n: int) -> np.ndarray:
    """Read-only p-free (8, M+1) table: entry (r, m) sums row r of
    (1, tr L^k for k = 1..4, lambda_2, lambda_2^2, connected) over the
    C(M, m) graphs with m edges.

    Graphs are built ``_SLICE_GRAPHS`` at a time, so the build holds one
    slice of Laplacians, not all 2^M (22 MB at n = 6), and their traces
    tr L^1 .. tr L^(n-1) as one int32 row per k: tr L^k <= (n-1) n^k, at
    most 38,880 at n = 6. A stable sort of the rows groups the graphs into
    spectrum classes, each led by its lowest mask. That graph is built again
    and solved, and entry (r, m) is the exact sum, rounded once, of the
    class's graph count times its row r value over the classes with m edges.
    """
    m = n * (n - 1) // 2
    all_traces = np.empty((n - 1, 1 << m), dtype=np.int32)
    for start in range(0, 1 << m, _SLICE_GRAPHS):
        masks = np.arange(start, min(start + _SLICE_GRAPHS, 1 << m), dtype=np.uint32)
        all_traces[:, masks] = _laplacians(n, masks)[1][:n - 1]
    order = np.lexsort(all_traces)
    # a class starts where any trace differs from the previous sorted graph's;
    # one row at a time: diffing every gathered row at once peaks at 4.2 MB at n = 6
    starts = np.zeros(1 << m, dtype=bool)
    starts[0] = True
    for row in all_traces:
        row = row[order]
        starts[1:] |= row[1:] != row[:-1]
    starts = np.flatnonzero(starts)
    first, counts = order[starts], np.diff(starts, append=1 << m)
    lap, traces = _laplacians(n, first)
    lambda2s = eigenvalue_at(lap, 2)
    # a disconnected graph's lambda_2 is 0 exactly, not the solver's +-1e-16
    lambda2s[lambda2s <= EPS_ZERO] = 0.0
    rows = np.stack([np.ones(len(first)), *traces[:4], lambda2s, lambda2s * lambda2s,
                     lambda2s > EPS_ZERO])
    # imported here, off the CLI's import path (about 3 ms per process) and
    # after the slices, whose Laplacians set the build's peak memory
    from fractions import Fraction

    sums = np.full((8, m + 1), Fraction(0))
    for edges, count, column in zip(traces[0].astype(int) // 2, counts.tolist(), rows.T.tolist()):
        sums[:, edges] += [count * Fraction(value) for value in column]
    table = sums.astype(float)
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
