"""Exact ground truth by weighted enumeration of all labelled graphs (n <= 6).

Every edge subset of the n(n-1)/2 admissible pairs is enumerated as a bitmask
over the lexicographic pair order (bit e = pair e), and its Laplacian is
built from the pairs its set bits name (``np.nonzero``) by the one builder,
:func:`erunion.graphs.laplacians_from_pairs`. A graph with m edges has
probability weight p^m q^(M-m). That weight depends on m alone, so it is
evaluated once for each m in 0..M and gathered by edge count. The traces
tr L^k, k = 1..4, come from one batched product L^2 (see ``_structure``). All
quantities are probability-weighted sums over the full 2^M-graph sample space
and are entirely independent of the closed-form moment formulas they are used
to check.

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


def _set_pairs(bits: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(graph, node a, node b) of each pair set in a batch of bitmask rows."""
    # np.nonzero(bits), taken on the flat index: the 2-d form is about 4x slower here
    graph, pair = np.divmod(np.flatnonzero(bits), bits.shape[1])
    i, j = pair_arrays(n)
    return graph, i[pair], j[pair]


@lru_cache(maxsize=8)
def _structure(n: int):
    """Per-bitmask edge counts, Laplacian power traces, lambda_2, lambda_2^2
    and the connectivity indicator (all p-free).

    One product L^2 gives all four traces: tr(AB) is the entrywise sum of
    A * B when B is symmetric, and L and L^2 are, so tr L^2 = sum(L * L),
    tr L^3 = sum(L^2 * L) and tr L^4 = sum(L^2 * L^2). Every entry is a small
    integer, so the traces are exact.
    """
    m = n * (n - 1) // 2
    masks = np.arange(1 << m, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(bool)
    edge_counts = bits.sum(axis=1, dtype=np.int64)
    # the pair arrays (6 MB at n = 6) live through this call only, not the solves
    lap = laplacians_from_pairs(*_set_pairs(bits, n), True, len(bits), n)

    l2 = lap @ lap
    traces = {
        1: np.einsum("bii->b", lap),
        2: np.einsum("bij,bij->b", lap, lap),
        3: np.einsum("bij,bij->b", l2, lap),
        4: np.einsum("bij,bij->b", l2, l2),
    }
    lambda2s = np.linalg.eigvalsh(lap)[:, 1]
    return edge_counts, traces, lambda2s, lambda2s * lambda2s, lambda2s > EPS_ZERO


def enumerate_exact(params: ModelParams) -> ExactReport:
    """Exact expectations/probabilities by full enumeration; n <= 6 only."""
    n = params.n
    if n > ORACLE_N_CAP:
        raise CapabilityError(
            f"exact enumeration is capped at n = {ORACLE_N_CAP}, got n = {n}")
    edge_counts, traces, lambda2s, lambda2s_sq, connected = _structure(n)
    m = np.arange(params.num_pairs + 1)
    w = (params.p ** m * params.q ** (params.num_pairs - m))[edge_counts]
    prob_connected = float(w[connected].sum())
    return ExactReport(
        n=n,
        p=params.p,
        expected_trace_lk={k: float(w @ traces[k]) for k in (1, 2, 3, 4)},
        eigenvalue_moments={k: float(w @ traces[k]) / (n - 1) for k in (1, 2, 3, 4)},
        expected_lambda2=float(w @ lambda2s),
        expected_lambda2_sq=float(w @ lambda2s_sq),
        prob_connected=prob_connected,
        prob_lambda2_ge_lambda_min=prob_connected,
        weight_total=float(w.sum()),
    )


def exact_union_report(params: ModelParams, num_graphs: int) -> ExactReport:
    """Exact report for a union of num_graphs samples: enumeration at p_hat."""
    p_hat, _ = params.effective_probabilities(num_graphs)
    return enumerate_exact(ModelParams(params.n, p_hat))
