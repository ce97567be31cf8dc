"""Monte-Carlo harness: determinism, agreement with BFS, bound coverage."""
import dataclasses
import math

import numpy as np
import pytest

from erunion import (CapabilityError, McConfig, ModelParams, ValidationError,
                     enumerate_exact, expected_lambda2_bounds, is_connected_bfs,
                     lambda2, lambda2_variance_bounds, laplacian,
                     line_graph_lambda_min, run_mc, sample_union, sweep,
                     union_effective_params, wilson_interval)
from erunion import montecarlo, rng
from erunion.rng import trial_seed
from erunion.spectral import EPS_ZERO

# n=40, N=2: p_hat = 0.0975 sits at the connectivity threshold ln(40)/40,
# where about half the unions have a node of degree 0
THRESHOLD_CONFIG = McConfig(ModelParams(40, 0.05), num_graphs=2, trials=300,
                            master_seed=2024)


class TestDegenerateAndErrors:
    def test_effectively_complete_graph(self):
        cfg = McConfig(ModelParams(5, 1.0 - 1e-12), num_graphs=1, trials=100,
                       master_seed=3)
        est = run_mc(cfg)
        assert est.mean_lambda2 == pytest.approx(5.0, abs=1e-9)
        assert est.prob_connected == 1.0
        assert est.var_lambda2 == pytest.approx(0.0, abs=1e-18)

    def test_single_trial_flags_unreliable_ci(self):
        est = run_mc(McConfig(ModelParams(6, 0.5), 1, trials=1, master_seed=1))
        assert est.trials == 1
        assert not est.ci_reliable
        assert est.ci_halfwidths["mean_lambda2"] is None
        assert est.var_lambda2 == 0.0
        assert math.isfinite(est.mean_lambda2)

    def test_capability_ceiling(self):
        with pytest.raises(CapabilityError):
            run_mc(McConfig(ModelParams(2001, 0.5), 1, 10, 0))

    def test_degenerate_effective_probability_fails_before_sampling(self, monkeypatch):
        # p_hat = 1 - 0.5**100 rounds to 1.0 in double precision
        def no_sampling(*args):
            raise AssertionError("sampled before validating p_hat")
        monkeypatch.setattr(rng, "edge_masks", no_sampling)
        with pytest.raises(ValidationError):
            run_mc(McConfig(ModelParams(10, 0.5), num_graphs=100, trials=10, master_seed=0))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            McConfig(ModelParams(5, 0.5), num_graphs=0, trials=10, master_seed=0)
        with pytest.raises(ValidationError):
            McConfig(ModelParams(5, 0.5), num_graphs=1, trials=0, master_seed=0)


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        cfg = McConfig(ModelParams(12, 0.3), num_graphs=3, trials=400, master_seed=99)
        assert run_mc(cfg) == run_mc(cfg)

    @pytest.mark.parametrize("workers", [2, 4, 16])
    def test_worker_count_does_not_change_results(self, workers):
        base = run_mc(McConfig(ModelParams(14, 0.25), 2, 2000, 12345, workers=1))
        other = run_mc(McConfig(ModelParams(14, 0.25), 2, 2000, 12345, workers=workers))
        assert base == other

    def test_many_blocks_match_one_block(self, monkeypatch):
        base = run_mc(THRESHOLD_CONFIG)
        n = THRESHOLD_CONFIG.params.n
        monkeypatch.setattr(montecarlo, "_EIG_BUDGET", 7 * n * n)  # 43 blocks of <= 7
        for workers in (1, 2, 4):
            assert run_mc(dataclasses.replace(THRESHOLD_CONFIG, workers=workers)) == base


class TestIsolatedNodeShortcut:
    def test_solves_only_unions_without_isolated_node(self, monkeypatch):
        cfg = THRESHOLD_CONFIG
        params = cfg.params
        graphs = [sample_union(params, cfg.num_graphs, trial_seed(cfg.master_seed, t))
                  for t in range(cfg.trials)]
        isolated = [len({v for e in g.edges for v in e}) < g.n for g in graphs]
        assert cfg.trials / 3 <= sum(isolated) <= 2 * cfg.trials / 3
        expected = np.array([0.0 if iso else lambda2(laplacian(g))
                             for g, iso in zip(graphs, isolated)])

        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a):
            solved.append(a.shape[0] if a.ndim == 3 else 1)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        est = run_mc(cfg)
        assert sum(solved) == isolated.count(False)

        mean = float(np.sum(expected)) / cfg.trials
        var = float(np.sum((expected - mean) ** 2)) / (cfg.trials - 1)
        assert est.mean_lambda2 == mean
        assert est.var_lambda2 == var
        assert est.prob_connected == sum(map(is_connected_bfs, graphs)) / cfg.trials


class TestAgreementWithGraphApi:
    def test_trials_reproducible_through_sample_union(self):
        # trial t of a run is sample_union(params, N, trial_seed(seed, t));
        # the spectral indicator agrees with BFS on every trial
        params = ModelParams(16, 0.12)
        cfg = McConfig(params, num_graphs=2, trials=1500, master_seed=31415)
        est = run_mc(cfg)
        connected = 0
        ge_lambda_min = 0
        lam_min = line_graph_lambda_min(params.n)
        for t in range(cfg.trials):
            g = sample_union(params, cfg.num_graphs, trial_seed(cfg.master_seed, t))
            bfs = is_connected_bfs(g)
            lam2 = lambda2(laplacian(g))
            assert bfs == (lam2 > EPS_ZERO)
            connected += bfs
            ge_lambda_min += lam2 >= lam_min - 1e-9
        assert est.prob_connected == connected / cfg.trials
        assert est.prob_ge_lambda_min == ge_lambda_min / cfg.trials
        # clearing the line-graph floor implies connectivity
        assert est.prob_ge_lambda_min <= est.prob_connected + 1e-12


class TestAgainstExactValues:
    def test_prob_connected_matches_enumeration(self):
        params = ModelParams(4, 0.5)
        est = run_mc(McConfig(params, 1, trials=1_000_000, master_seed=8))
        exact = enumerate_exact(params).prob_connected
        lo, hi = wilson_interval(round(est.prob_connected * est.trials), est.trials)
        assert lo <= exact <= hi

    def test_paper_scale_union_in_bounded_memory(self):
        # Table-1 cell n=100, p=1e-5, N_min=110539: one draw per pair keeps a
        # trial at 4950 draws however many graphs the union holds
        params = ModelParams(100, 1e-5)
        est = run_mc(McConfig(params, 110539, trials=64, master_seed=110539))
        lo, hi = expected_lambda2_bounds(union_effective_params(params, 110539))
        assert lo <= est.mean_lambda2 <= hi

    def test_reference_probability_row_validated(self):
        # 50-fold union at (n=50, p=0.1): certified lower bound is 0.810
        est = run_mc(McConfig(ModelParams(50, 0.1), 50, trials=100_000, master_seed=1))
        assert est.prob_ge_lambda_min >= 0.810


class TestCoverage:
    def test_mean_and_variance_inside_analytic_bounds(self):
        params = ModelParams(10, 0.6)
        est = run_mc(McConfig(params, 1, trials=100_000, master_seed=21))
        u = union_effective_params(params, 1)
        lo, hi = expected_lambda2_bounds(u)
        assert lo <= est.mean_lambda2 <= hi
        vb = lambda2_variance_bounds(u)
        assert vb.lower <= est.var_lambda2 <= vb.upper

    def test_variance_bounds_at_dense_effective_probability(self):
        params = ModelParams(10, 0.9)
        est = run_mc(McConfig(params, 1, trials=100_000, master_seed=22))
        vb = lambda2_variance_bounds(union_effective_params(params, 1))
        assert est.var_lambda2 <= vb.upper
        assert est.var_lambda2 >= vb.lower


class TestSweep:
    def test_empty(self):
        assert sweep([]) == []

    def test_preserves_order_and_isolates_errors(self):
        good = McConfig(ModelParams(8, 0.4), 1, 200, 5)
        bad = McConfig(ModelParams(2001, 0.4), 1, 10, 5)   # beyond eigensolver ceiling
        rows = sweep([good, bad, good])
        assert [r.error is None for r in rows] == [True, False, True]
        assert rows[1].estimate is None
        assert "CapabilityError" in rows[1].error
        assert rows[0].estimate == rows[2].estimate

    def test_reference_probability_table_sweep(self):
        # five (n=50, N=50) rows: analytic bound never exceeds the empirical
        # frequency by more than three binomial standard errors
        configs = [McConfig(ModelParams(50, p), 50, trials=5000, master_seed=9)
                   for p in (0.05, 0.10, 0.15, 0.20, 0.25)]
        rows = sweep(configs)
        assert len(rows) == 5
        for row in rows:
            emp = row.estimate.prob_ge_lambda_min
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / row.estimate.trials)
            assert row.bounds.prob_lower <= emp + 3 * se

    def test_deeper_union_sweep_bound_nondecreasing(self):
        configs = [McConfig(ModelParams(50, 0.1), num, trials=2000, master_seed=10)
                   for num in (25, 50, 75, 100, 125)]
        rows = sweep(configs)
        bounds = [r.bounds.prob_lower for r in rows]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))
        for row in rows:
            emp = row.estimate.prob_ge_lambda_min
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / row.estimate.trials)
            assert row.bounds.prob_lower <= emp + 3 * se
