"""Exact ground truth by weighted enumeration of all labelled graphs (n <= 6).

Every edge subset of the n(n-1)/2 admissible pairs is enumerated as a bitmask
over the lexicographic pair order (bit e = pair e); a graph with m edges has
probability weight p^m q^(M-m). All quantities are probability-weighted sums
over the full 2^M-graph sample space and are entirely independent of the
closed-form moment formulas they are used to check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError
from .graphs import ModelParams, laplacians_from_masks
from .spectral import lambda2_indicators

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


@lru_cache(maxsize=8)
def _structure(n: int):
    """Per-bitmask edge counts, Laplacian power traces, lambda_2, lambda_2^2
    and the two lambda_2 indicators (all p-free)."""
    m = n * (n - 1) // 2
    masks = np.arange(1 << m, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(np.uint8)
    edge_counts = bits.sum(axis=1, dtype=np.float64)
    lap = laplacians_from_masks(bits, n)

    l2 = lap @ lap
    l3 = l2 @ lap
    l4 = l3 @ lap
    traces = {
        1: np.einsum("bii->b", lap),
        2: np.einsum("bii->b", l2),
        3: np.einsum("bii->b", l3),
        4: np.einsum("bii->b", l4),
    }
    lambda2s = np.linalg.eigvalsh(lap)[:, 1]
    connected, ge_lambda_min = lambda2_indicators(lambda2s, n)
    return edge_counts, traces, lambda2s, lambda2s * lambda2s, connected, ge_lambda_min


def _weights(edge_counts: np.ndarray, num_pairs: int, p: float) -> np.ndarray:
    q = 1.0 - p
    if min(p, q) < 1e-3:
        # log-space path for extreme probabilities
        logw = edge_counts * math.log(p) + (num_pairs - edge_counts) * math.log1p(-p)
        return np.exp(logw)
    return p ** edge_counts * q ** (num_pairs - edge_counts)


def enumerate_exact(params: ModelParams) -> ExactReport:
    """Exact expectations/probabilities by full enumeration; n <= 6 only."""
    n = params.n
    if n > ORACLE_N_CAP:
        raise CapabilityError(
            f"exact enumeration is capped at n = {ORACLE_N_CAP}, got n = {n}")
    edge_counts, traces, lambda2s, lambda2s_sq, connected, ge_lambda_min = _structure(n)
    w = _weights(edge_counts, params.num_pairs, params.p)
    return ExactReport(
        n=n,
        p=params.p,
        expected_trace_lk={k: float(w @ traces[k]) for k in (1, 2, 3, 4)},
        eigenvalue_moments={k: float(w @ traces[k]) / (n - 1) for k in (1, 2, 3, 4)},
        expected_lambda2=float(w @ lambda2s),
        expected_lambda2_sq=float(w @ lambda2s_sq),
        prob_connected=float(w[connected].sum()),
        prob_lambda2_ge_lambda_min=float(w[ge_lambda_min].sum()),
        weight_total=float(w.sum()),
    )


def exact_union_report(params: ModelParams, num_graphs: int) -> ExactReport:
    """Exact report for a union of num_graphs samples: enumeration at p_hat."""
    p_hat, _ = params.effective_probabilities(num_graphs)
    return enumerate_exact(ModelParams(params.n, p_hat))
