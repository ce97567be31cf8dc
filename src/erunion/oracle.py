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

lambda_2 is solved once per Laplacian spectrum, not once per graph: 154
solves for the 32,768 graphs on 6 nodes. Graphs are keyed by their traces
tr L^1 .. tr L^(n-1) (``_spectrum_keys``), and equal keys mean equal spectra:
L's eigenvalue 0 adds nothing to any power sum, the first n-1 power sums of
the other n-1 eigenvalues fix them by Newton's identities, and the traces
are integers below 2^53, so float64 computes them exactly. A class whose
solved lambda_2 is at most ``EPS_ZERO`` (a disconnected graph's, which the
solver returns as about +-1e-16) gets lambda_2 = 0 exactly.

A graph counts as connected when lambda_2 > ``EPS_ZERO``; by Fiedler's
theorem these are exactly the graphs with lambda_2 >= lambda_min, so
``prob_lambda2_ge_lambda_min`` is the same sum as ``prob_connected``.
"""
from __future__ import annotations

import math
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


def _spectrum_keys(n: int, traces: np.ndarray) -> np.ndarray:
    """One int64 per graph packing its traces tr L^1 .. tr L^(n-1) (rows of
    ``traces``) in mixed radix; equal keys mean equal Laplacian spectra.

    tr L^k is an integer in 0..(n-1) n^k, as L has n-1 eigenvalues besides
    its zero and all lie in [0, n], so radix (n-1) n^k + 1 holds it.
    """
    radices = [(n - 1) * n ** k + 1 for k in range(1, n)]
    assert math.prod(radices) < 2 ** 63
    keys = np.zeros(traces.shape[1], dtype=np.int64)
    for radix, trace in zip(radices[::-1], traces[:n - 1][::-1]):
        keys = keys * radix + trace.astype(np.int64)
    return keys


def _graph_stats(n: int, start: int, stop: int,
                 solved: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and the 8 rows (1, tr L^k for k = 1..4, lambda_2,
    lambda_2^2, connected) of the graphs with bitmasks start..stop-1.

    Two products L^2 and L^3 give the traces: tr(AB) is the entrywise sum of
    A * B when B is symmetric, and L^k is, so tr L^2 = sum(L * L),
    tr L^3 = sum(L^2 * L), tr L^4 = sum(L^2 * L^2) and tr L^5 = sum(L^2 * L^3).
    Every entry is a small integer, so the traces are exact. lambda_2 is
    solved once per spectrum (``_spectrum_keys``), for the first graph with
    it; ``solved`` maps the keys already solved to their lambda_2 and gains
    the new ones.
    """
    solved = {} if solved is None else solved
    m = n * (n - 1) // 2
    masks = np.arange(start, stop, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.uint32)) & 1).astype(bool)
    # np.nonzero(bits), taken on the flat index: the 2-d form is about 4x slower here
    graph, pair = np.divmod(np.flatnonzero(bits), m)
    i, j = pair_arrays(n)
    lap = laplacians_from_pairs(graph, i[pair], j[pair], True, len(bits), n)
    l2 = lap @ lap
    l3 = l2 @ lap
    traces = np.stack([
        np.einsum("bii->b", lap), np.einsum("bij,bij->b", lap, lap),
        np.einsum("bij,bij->b", l2, lap), np.einsum("bij,bij->b", l2, l2),
        np.einsum("bij,bij->b", l2, l3)])
    keys, first, inverse = np.unique(_spectrum_keys(n, traces), return_index=True,
                                     return_inverse=True)
    new = [k for k, key in enumerate(keys.tolist()) if key not in solved]
    if new:
        values = eigenvalue_at(lap[first[new]], 2)
        # a disconnected graph's lambda_2 is 0 exactly, not the solver's +-1e-16
        values[values <= EPS_ZERO] = 0.0
        solved.update(zip(keys[new].tolist(), values.tolist()))
    lambda2s = np.array([solved[key] for key in keys.tolist()])[inverse]
    return bits.sum(axis=1, dtype=np.int64), np.stack([
        np.ones(len(bits)), *traces[:4], lambda2s, lambda2s * lambda2s, lambda2s > EPS_ZERO])


@lru_cache(maxsize=8)
def _structure(n: int) -> np.ndarray:
    """Read-only p-free (8, M+1) table: entry (r, m) sums ``_graph_stats``
    row r over the C(M, m) graphs with m edges.

    Graphs are built, solved and reduced by edge count ``_SLICE_GRAPHS`` at a
    time, so the build holds one slice of Laplacians, not all 2^M (22 MB at
    n = 6); a spectrum solved in one slice is not solved again in a later
    one. Values are split into multiples of 2^-20, whose sums are exact
    (below 2^28, so 48 bits, for n <= 6), and remainders, so each entry is
    the exact sum up to about one rounding; the integer rows are exact.
    """
    m = n * (n - 1) // 2
    coarse, fine = np.zeros((8, m + 1)), np.zeros((8, m + 1))
    solved = {}
    for start in range(0, 1 << m, _SLICE_GRAPHS):
        edge_counts, stats = _graph_stats(n, start, min(start + _SLICE_GRAPHS, 1 << m), solved)
        grid = np.round(stats * 2.0 ** 20) * 2.0 ** -20
        # entry (r, m) is bin r (M+1) + m, which sums row r's values in graph order
        bins = (np.arange(8)[:, None] * (m + 1) + edge_counts).ravel()
        for table, part in ((coarse, grid), (fine, stats - grid)):
            table += np.bincount(bins, weights=part.ravel(),
                                 minlength=8 * (m + 1)).reshape(8, m + 1)
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
