"""Exact enumeration: weights, hand-checkable values, and union equivalence."""
import math
import tracemalloc
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from erunion import (CapabilityError, ModelParams, bound_report, enumerate_exact,
                     exact_union_report, oracle, rng, wilson_interval)
from erunion.graphs import laplacians_from_pairs, pair_arrays
from erunion.oracle import _structure
from erunion.spectral import EPS_ZERO, line_graph_lambda_min
from reference import all_pairs, bitmask_laplacians, edge_masks, per_graph_rows, per_graph_table


@lru_cache(maxsize=None)
def _lambda2_by_spectrum(n):
    """50-digit lambda_2 of each spectrum class and its graph counts by edge
    count. Graphs are grouped by their spectra rounded to 8 places, apart
    from the package's trace key, and one graph per group is solved."""
    edge_counts, lap = bitmask_laplacians(n)
    spectra = np.round(np.linalg.eigvalsh(lap), 8) + 0.0  # -0.0 -> 0.0
    _, first, group = np.unique(spectra, axis=0, return_index=True, return_inverse=True)
    with mp.workdps(50):
        lambda2s = [sorted(mp.eigsy(mp.matrix(lap[b].tolist()), eigvals_only=True))[1]
                    for b in first]
    counts = np.zeros((len(first), edge_counts.max() + 1), dtype=np.int64)
    np.add.at(counts, (group.ravel(), edge_counts), 1)
    return lambda2s, counts


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

    @pytest.mark.parametrize("n,p,num", [
        (5, 1e-4, 1), (5, 5e-4, 1), (5, 0.3, 1), (6, 1e-4, 1), (6, 5e-4, 1), (6, 0.3, 1),
        (3, 0.3, 1), (3, 0.3, 3), (5, 0.3, 3), (6, 0.3, 3)])
    def test_lambda2_moments_match_extended_precision(self, n, p, num):
        # E[lambda_2] and E[lambda_2^2] summed in 50-digit arithmetic from the
        # same double p_hat; taking a disconnected graph's lambda_2 as the
        # solver's +-1e-16, not 0, errs by 1.2e-9 relative at (6, 1e-4)
        rep = exact_union_report(ModelParams(n, p), num)
        lambda2s, counts = _lambda2_by_spectrum(n)
        num_pairs = n * (n - 1) // 2
        with mp.workdps(50):
            ph = mp.mpf(rep.p)
            weights = [ph ** m * (1 - ph) ** (num_pairs - m) for m in range(num_pairs + 1)]
            class_weights = [mp.fsum(int(c) * w for c, w in zip(row, weights)) for row in counts]
            for got, power in ((rep.expected_lambda2, 1), (rep.expected_lambda2_sq, 2)):
                exact = mp.fsum(lam ** power * w for lam, w in zip(lambda2s, class_weights))
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
        # the per-graph rows the oracle's table sums, from each graph's own solve
        _, stats = per_graph_rows(n)
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
        edge_counts, stats = per_graph_rows(n)
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_each_graphs_own_solve(self, n):
        # the table against one eigvalsh per graph, not one per spectrum
        table, want = _structure(n), per_graph_table(n)
        big = table > 1e-12
        assert np.all(np.abs(table[big] - want[big]) <= 1e-15 * want[big])
        assert np.array_equal(table[~big], want[~big])


class TestSpectrumClasses:
    @pytest.mark.parametrize("n,solves", [(2, 2), (3, 4), (4, 11), (5, 34), (6, 154)])
    def test_one_solve_per_spectrum(self, monkeypatch, n, solves):
        # a cold build solves one graph per distinct Laplacian spectrum
        sizes, solve = [], oracle.eigenvalue_at

        def recording(stack, k):
            sizes.append(len(stack))
            return solve(stack, k)

        monkeypatch.setattr(oracle, "eigenvalue_at", recording)
        _structure.cache_clear()
        _structure(n)
        assert sum(sizes) == solves

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_first_graph_of_each_class_is_solved(self, monkeypatch, n):
        # each class's lowest-mask graph is solved, so the table's bits do not
        # depend on the order the sort leaves a class's graphs in
        _, lap = bitmask_laplacians(n)
        _, first = np.unique(_trace_columns(lap, n), axis=0, return_index=True)
        stacks, solve = [], oracle.eigenvalue_at

        def recording(stack, k):
            stacks.append(stack.copy())
            return solve(stack, k)

        monkeypatch.setattr(oracle, "eigenvalue_at", recording)
        _structure.cache_clear()
        _structure(n)
        solved = np.concatenate(stacks)
        i, j = np.array(all_pairs(n)).T
        masks = (solved[:, i, j] != 0) @ (1 << np.arange(len(i)))
        assert np.array_equal(np.sort(masks), np.sort(first))
        assert np.array_equal(solved, lap[masks])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_graphs_sharing_a_key_are_cospectral(self, n):
        # graphs with equal traces tr L^1 .. tr L^(n-1) have equal spectra
        _, lap = bitmask_laplacians(n)
        _, group = np.unique(_trace_columns(lap, n), axis=0, return_inverse=True)
        spectra = np.linalg.eigvalsh(lap)
        for g in range(group.max() + 1):
            same = spectra[group.ravel() == g]
            assert np.abs(same - same[0]).max() <= 1e-13


def _trace_columns(lap, n):
    """tr L^1 .. tr L^(n-1) of each Laplacian of a stack, one row per graph."""
    return np.stack([np.trace(np.linalg.matrix_power(lap, k), axis1=1, axis2=2)
                     for k in range(1, n)], axis=1)


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
