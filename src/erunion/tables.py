"""Reference tables: minimum union sizes and probability lower bounds.

Table 1: n_min (rounded up) over n in {10, ..., 1e5} x p in {1e-5, ..., 1e-1}.
Table 2: probability bound for n=50, N=50, p in {0.05, ..., 0.25}.
Table 3: probability bound for n=50, p=0.1, N in {25, ..., 125}.
"""
from __future__ import annotations

from .bounds import bound_report, n_min
from .graphs import ModelParams

TABLE1_NS = (10, 100, 1000, 10000, 100000)
TABLE1_PS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
TABLE2_N = 50
TABLE2_UNION = 50
TABLE2_PS = (0.05, 0.10, 0.15, 0.20, 0.25)
TABLE3_N = 50
TABLE3_P = 0.10
TABLE3_UNIONS = (25, 50, 75, 100, 125)


def table1() -> list[tuple[float, list[int]]]:
    """Rows (p, [n_min for each n]) of the minimum-union-size table."""
    return [(p, [n_min(ModelParams(n, p)).rounded_up for n in TABLE1_NS])
            for p in TABLE1_PS]


def _certified_bound(n: int, p: float, num_graphs: int) -> float:
    """Probability lower bound of one table cell; every cell is certified."""
    rep = bound_report(ModelParams(n, p), num_graphs)
    assert rep.prob_status == "certified", rep.prob_status
    return rep.prob_lower


def table2() -> list[tuple[float, float]]:
    """Rows (p, probability lower bound) at n=50, N=50."""
    return [(p, _certified_bound(TABLE2_N, p, TABLE2_UNION)) for p in TABLE2_PS]


def table3() -> list[tuple[int, float]]:
    """Rows (N, probability lower bound) at n=50, p=0.1."""
    return [(num, _certified_bound(TABLE3_N, TABLE3_P, num)) for num in TABLE3_UNIONS]
