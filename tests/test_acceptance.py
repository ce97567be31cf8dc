"""Acceptance suite: one test per criterion, at the stated tolerances.

The conftest hook prints one ``ACCEPTANCE <name>: PASS/FAIL`` line per
criterion. Run with ``pytest tests/test_acceptance.py -v``.
"""
import json
import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import mpmath as mp
import numpy as np

import erunion
from erunion import (McConfig, ModelParams, bound_report, enumerate_exact,
                     line_graph_lambda_min, n_min, n_min_asymptotic, run_mc)
from erunion.moments import _coefficient
from erunion.spectral import EPS_ZERO
from erunion.tables import TABLE1_PS, table1, table2, table3
from reference import is_connected_bfs, lambda2, laplacian, sample_graph, trial_seed

EXPECTED_TABLE1 = {
    1e-5: [117846, 110539, 109928, 109868, 109862],
    1e-4: [11785, 11054, 10993, 10987, 10986],
    1e-3: [1178, 1105, 1099, 1099, 1099],
    1e-2: [118, 110, 110, 110, 110],
    1e-1: [12, 11, 11, 11, 11],
}
EXPECTED_TABLE2 = [0.359, 0.810, 0.953, 0.989, 0.998]
EXPECTED_TABLE3 = [0.377, 0.810, 0.947, 0.986, 0.996]


def test_ac01_table1_exact_reproduction(capsys):
    from pathlib import Path
    from erunion.cli import main
    t0 = time.perf_counter()
    rows = table1()
    elapsed = time.perf_counter() - t0
    assert [p for p, _ in rows] == list(TABLE1_PS)
    for p, values in rows:
        assert values == EXPECTED_TABLE1[p], f"row p={p}"
    assert elapsed < 1.0, f"table 1 took {elapsed:.3f}s"
    # the CLI emits the same 25 cells, byte-for-byte against the fixture
    assert main(["tables", "1"]) == 0
    out = capsys.readouterr().out
    fixture = (Path(__file__).parent / "data" / "table1.csv").read_text()
    assert out == fixture


def _assert_cli_table_matches_fixture(which, capsys):
    from erunion.cli import main
    assert main(["tables", str(which)]) == 0
    fixture = (Path(__file__).parent / "data" / f"table{which}.csv").read_text()
    assert capsys.readouterr().out == fixture


def test_ac02_table2_probability_bounds(capsys):
    rows = table2()
    for (p, value), want in zip(rows, EXPECTED_TABLE2):
        assert abs(round(value, 3) - want) <= 0.001, f"p={p}: {value}"
    _assert_cli_table_matches_fixture(2, capsys)


def test_ac03_table3_probability_bounds(capsys):
    rows = table3()
    for (num, value), want in zip(rows, EXPECTED_TABLE3):
        assert abs(round(value, 3) - want) <= 0.001, f"N={num}: {value}"
    deep = bound_report(ModelParams(50, 0.1), 250)
    assert deep.prob_lower >= 0.9998
    _assert_cli_table_matches_fixture(3, capsys)


def test_ac04_asymptote_agreement():
    asym = n_min_asymptotic(1e-5)
    # printed value 109,861 (the exact real value is 109860.6796, so the
    # match is at round/ceil; see the decisions ledger)
    assert round(asym) == 109861
    assert math.ceil(asym) == 109861
    exact = n_min(ModelParams(100000, 1e-5)).exact_real
    assert abs(exact - asym) <= 1.0


def test_ac05_oracle_vs_moment_formulas():
    from erunion import eigenvalue_moment
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        for p in (0.2, 0.5, 0.8):
            rep = enumerate_exact(ModelParams(n, p))
            for k in (1, 2, 3, 4):
                analytic = eigenvalue_moment(ModelParams(n, p), k)
                rel = abs(rep.eigenvalue_moments[k] - analytic) / abs(analytic)
                assert rel <= 1e-10, f"(n={n}, p={p}, k={k}): rel={rel:.2e}"
    assert time.perf_counter() - t0 < 30.0


def test_ac06_moment_matrix_entrywise():
    n, p = 4, 0.5
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    sums = {k: np.zeros((n, n)) for k in (1, 2, 3, 4)}
    for mask in range(1 << m):
        a = np.zeros((n, n))
        edges = 0
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                a[i, j] = a[j, i] = 1.0
                edges += 1
        lap = np.diag(a.sum(axis=1)) - a
        weight = p ** edges * (1 - p) ** (m - edges)
        power = np.eye(n)
        for k in (1, 2, 3, 4):
            power = power @ lap
            sums[k] += weight * power
    structure = n * np.eye(n) - np.ones((n, n))
    for k in (1, 2, 3, 4):
        c = _coefficient(n, p, k)
        assert np.max(np.abs(sums[k] - c * structure)) <= 1e-12, f"k={k}"


def _ac07_configs():
    rnd = random.Random(0xE12A)
    configs = []
    for _ in range(12):          # sandwich-only group, any union size
        n = rnd.randint(5, 60)
        p = 10 ** rnd.uniform(math.log10(0.03), math.log10(0.7))
        configs.append((n, p, rnd.randint(1, 6)))
    for _ in range(8):           # probability group, at or above n_min
        n = rnd.randint(5, 60)
        p = rnd.uniform(0.15, 0.7)
        base = n_min(ModelParams(n, p)).rounded_up
        configs.append((n, p, base + rnd.randint(0, 2)))
    return configs


def test_ac07_bound_soundness_randomised():
    trials = 20_000
    for idx, (n, p, num) in enumerate(_ac07_configs()):
        params = ModelParams(n, p)
        est = run_mc(McConfig(params, num_graphs=num, trials=trials,
                              master_seed=1000 + idx))
        rep = bound_report(params, num)
        lower, upper = rep.e_lambda2_lower, rep.e_lambda2_upper
        se = math.sqrt(est.var_lambda2 / trials)
        assert lower - 3 * se <= est.mean_lambda2 <= upper + 3 * se, \
            f"config {idx}: mean {est.mean_lambda2} outside [{lower}, {upper}] +- 3se"
        if rep.prob_status == "certified":
            emp = est.prob_ge_lambda_min
            se_p = math.sqrt(max(emp * (1 - emp), 1e-12) / trials)
            assert emp >= rep.prob_lower - 3 * se_p, \
                f"config {idx}: P_emp={emp} below bound {rep.prob_lower}"


def test_ac08_eigensolver_accuracy_and_bfs_agreement():
    from reference import GraphSample, all_pairs, from_edges
    for n in range(2, 201):
        comp = GraphSample(n, frozenset(all_pairs(n)))
        assert abs(lambda2(laplacian(comp)) - n) <= 1e-9, f"K_{n}"
        path = from_edges(n, [(i, i + 1) for i in range(n - 1)])
        expect = 2 * (1 - math.cos(math.pi / n))
        assert abs(lambda2(laplacian(path)) - expect) <= 1e-9, f"P_{n}"

    disagreements = 0
    connected_seen = 0
    for i in range(10_000):
        n = 5 + i % 28
        p = min(0.9, (0.6 + 0.9 * ((i // 28) % 3)) * math.log(n) / n)
        g = sample_graph(ModelParams(n, p), trial_seed(0xAC8, i))
        lam2 = lambda2(laplacian(g))
        bfs = is_connected_bfs(g)
        disagreements += bfs != (lam2 > EPS_ZERO)
        if bfs:
            connected_seen += 1
            assert lam2 >= line_graph_lambda_min(n) - 1e-9
    assert disagreements == 0
    assert connected_seen > 1000   # the sweep genuinely mixes both outcomes
    assert connected_seen < 9000


def test_ac09_cli_determinism_across_workers():
    args = [sys.executable, "-m", "erunion.cli", "mc", "--n", "20", "--p", "0.3",
            "--N", "2", "--trials", "3000", "--seed", "123"]
    # the child imports the package under test, wherever this process found it
    src = str(Path(erunion.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for workers in ("1", "4"):
        out = subprocess.run(args + ["--workers", workers],
                             capture_output=True, check=True, env=env)
        runs.append(out.stdout)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["estimate"]["trials"] == 3000


def _nmin_reference(n, p):
    """50-digit reference evaluation, independent of the double-precision path."""
    with mp.workdps(50):
        nn = mp.mpf(n)
        u = 1 - mp.cos(mp.pi / nn)
        tau = mp.sqrt(16 * nn**2 * (nn - 2) * u
                      + 32 * nn * (2 - nn) * u**2
                      + 4 * nn**2 * (nn - 2)**2)
        num = 4 * nn**2 + 4 * nn * u - tau - 8 * nn
        den = 6 * nn**2 - 8 * nn
        return mp.log(num / den) / mp.log(1 - mp.mpf(p))


def test_ac10_nmin_double_vs_extended_precision():
    for n in (10, 100, 1000, 10_000, 100_000):
        for p in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            got = n_min(ModelParams(n, p)).exact_real
            ref = _nmin_reference(n, p)
            rel = abs(got - float(ref)) / abs(float(ref))
            assert rel <= 1e-6, f"(n={n}, p={p}): rel={rel:.2e}"
