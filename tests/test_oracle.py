"""Exact enumeration: weights, hand-checkable values, and union equivalence."""
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from erunion import (CapabilityError, ModelParams, bound_report, enumerate_exact,
                     exact_union_report, rng, wilson_interval)
from erunion.graphs import laplacians_from_pairs, pair_arrays
from erunion.oracle import _graph_stats, _structure
from erunion.spectral import EPS_ZERO, line_graph_lambda_min
from reference import all_pairs, edge_masks


class TestWeights:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1e-4, 0.2, 0.5, 0.8, 1 - 1e-4])
    def test_weights_sum_to_one(self, n, p):
        rep = enumerate_exact(ModelParams(n, p))
        assert rep.weight_total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("p", [1e-4, 5e-4])
    def test_small_p_matches_extended_precision(self, n, p):
        # P[connected] = sum over m of (connected graphs with m edges) p^m q^(M-m),
        # summed in 50-digit arithmetic from the same double p
        counts = _structure(n)[7]
        num_pairs = n * (n - 1) // 2
        with mp.workdps(50):
            exact = mp.fsum(int(c) * mp.mpf(p) ** m * (1 - mp.mpf(p)) ** (num_pairs - m)
                            for m, c in enumerate(counts))
            got = enumerate_exact(ModelParams(n, p)).prob_connected
            assert abs(mp.mpf(got) - exact) / exact <= 1e-15


class TestHandCheckableValues:
    def test_two_nodes(self):
        rep = enumerate_exact(ModelParams(2, 0.5))
        assert rep.prob_connected == pytest.approx(0.5, abs=1e-15)

    def test_three_nodes(self):
        # connected on 3 nodes: the triangle (p^3) plus three 2-edge paths
        # (3 p^2 q); at p = 1/2 that is 4/8
        rep = enumerate_exact(ModelParams(3, 0.5))
        assert rep.prob_connected == pytest.approx(0.5, abs=1e-12)
        p = 0.3
        rep = enumerate_exact(ModelParams(3, p))
        expect = p**3 + 3 * p**2 * (1 - p)
        assert rep.prob_connected == pytest.approx(expect, abs=1e-12)

    def test_four_nodes_half(self):
        # 38 of the 64 labelled graphs on 4 nodes are connected
        rep = enumerate_exact(ModelParams(4, 0.5))
        assert rep.prob_connected == pytest.approx(38 / 64, abs=1e-12)

    def test_second_moment_example(self):
        rep = enumerate_exact(ModelParams(4, 0.5))
        assert rep.eigenvalue_moments[2] == pytest.approx(6.0, abs=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("n,p", [(3, 0.2), (4, 0.5), (5, 0.7), (6, 0.4)])
    def test_lambda_min_threshold_equals_connectivity(self, n, p):
        # every connected graph clears the line-graph floor, so the two
        # probabilities coincide
        rep = enumerate_exact(ModelParams(n, p))
        assert rep.prob_lambda2_ge_lambda_min <= rep.prob_connected + 1e-12
        assert rep.prob_lambda2_ge_lambda_min == pytest.approx(
            rep.prob_connected, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_expected_lambda2_inside_analytic_bounds(self, n, p):
        rep = enumerate_exact(ModelParams(n, p))
        bounds = bound_report(ModelParams(n, p), 1)
        assert (bounds.e_lambda2_lower - 1e-12 <= rep.expected_lambda2
                <= bounds.e_lambda2_upper + 1e-12)


class TestSharedIndicators:
    # labelled connected graphs on n nodes (OEIS A001187)
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)])
    def test_indicators_over_every_graph(self, n, count):
        _, stats = _graph_stats(n, 0, 1 << (n * (n - 1) // 2))
        lambda2s, connected = stats[5], stats[7].astype(bool)
        assert len(connected) == 1 << (n * (n - 1) // 2)
        assert int(np.count_nonzero(connected)) == count
        # Fiedler's floor: every connected graph has lambda_2 >= lambda_min,
        # and the path attains it
        lam_min = line_graph_lambda_min(n)
        assert lambda2s[connected].min() >= lam_min - 1e-12
        pairs = all_pairs(n)
        path = sum(1 << pairs.index((i, i + 1)) for i in range(n - 1))
        assert lambda2s[path] == pytest.approx(lam_min, abs=1e-12)


class TestEdgeCountTable:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)])
    def test_count_and_connected_rows(self, n, count):
        num_pairs = n * (n - 1) // 2
        table = _structure(n)
        assert table.shape == (8, num_pairs + 1)
        assert table[0].tolist() == [math.comb(num_pairs, m) for m in range(num_pairs + 1)]
        assert table[7].sum() == count

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1e-4, 5e-4, 0.3, 0.5, 0.999, "union"])
    def test_matches_per_graph_weighted_sum(self, n, p):
        # every field as the weighted sum over all 2^M graphs, each graph
        # weighted by its own edge count; math.fsum sums the 2^M products
        # exactly, since a float64 sum of them would itself err by ~1e-15
        rep = (exact_union_report(ModelParams(n, 0.2), 3) if p == "union"
               else enumerate_exact(ModelParams(n, p)))
        num_pairs = n * (n - 1) // 2
        edge_counts, stats = _graph_stats(n, 0, 1 << num_pairs)
        m = np.arange(num_pairs + 1)
        w = (rep.p ** m * (1 - rep.p) ** (num_pairs - m))[edge_counts]
        total, *traces, lambda2, lambda2_sq, connected = (
            math.fsum((w * row).tolist()) for row in stats)
        fields = [(rep.weight_total, total), (rep.expected_lambda2, lambda2),
                  (rep.expected_lambda2_sq, lambda2_sq), (rep.prob_connected, connected),
                  (rep.prob_lambda2_ge_lambda_min, connected)]
        for k, trace in enumerate(traces, 1):
            fields += [(rep.expected_trace_lk[k], trace),
                       (rep.eigenvalue_moments[k], trace / (n - 1))]
        for got, want in fields:
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_cold_build_memory_is_bounded(self):
        # the n = 6 build holds one slice of graphs at a time; building all
        # 2^15 Laplacians and their solves at once peaked at 22 MB, and
        # slices of 2^12 graphs at 4.3 MB
        _structure.cache_clear()
        tracemalloc.start()
        try:
            _structure(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


class TestUnionReports:
    def test_single_union_is_identity(self):
        a = exact_union_report(ModelParams(3, 0.5), 1)
        b = enumerate_exact(ModelParams(3, 0.5))
        assert a == b

    def test_double_union_uses_effective_probability(self):
        a = exact_union_report(ModelParams(3, 0.5), 2)
        b = enumerate_exact(ModelParams(3, 0.75))
        assert a.prob_connected == pytest.approx(b.prob_connected, rel=1e-15)

    def test_union_equivalence_against_literal_unions(self):
        # Monte Carlo of literal 3-graph unions lands inside the Wilson
        # interval around the enumeration value at the effective probability;
        # constituent k draws single-graph masks from its own seed range
        params = ModelParams(4, 0.3)
        exact = exact_union_report(params, 3)
        trials, chunk, num = 1_000_000, 100_000, 3
        connected = 0
        for start in range(0, trials, chunk):
            masks = np.zeros((chunk, params.num_pairs), dtype=np.uint8)
            for k in range(num):
                seeds = rng.trial_seeds_np(77, k * trials + start, chunk)
                masks |= edge_masks(seeds, params.num_pairs, params.p)
            trial, pair = np.nonzero(masks)
            i, j = pair_arrays(params.n)
            lap = laplacians_from_pairs(trial, i[pair], j[pair], True, chunk, params.n)
            lam2 = np.linalg.eigvalsh(lap)[:, 1]
            connected += int(np.count_nonzero(lam2 > EPS_ZERO))
        lo, hi = wilson_interval(connected, trials)
        assert lo <= exact.prob_connected <= hi


class TestCapability:
    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            enumerate_exact(ModelParams(7, 0.5))
