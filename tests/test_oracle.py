"""Exact enumeration: weights, hand-checkable values, and union equivalence."""
import numpy as np
import pytest

from erunion import (CapabilityError, ModelParams, enumerate_exact,
                     exact_union_report, expected_lambda2_bounds, rng,
                     union_effective_params, wilson_interval)
from erunion.graphs import laplacians_from_masks
from erunion.oracle import _structure
from erunion.spectral import EPS_ZERO


class TestWeights:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1e-4, 0.2, 0.5, 0.8, 1 - 1e-4])
    def test_weights_sum_to_one(self, n, p):
        rep = enumerate_exact(ModelParams(n, p))
        assert rep.weight_total == pytest.approx(1.0, abs=1e-12)


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
        lower, upper = expected_lambda2_bounds(union_effective_params(ModelParams(n, p), 1))
        assert lower - 1e-12 <= rep.expected_lambda2 <= upper + 1e-12


class TestSharedIndicators:
    # labelled connected graphs on n nodes (OEIS A001187)
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)])
    def test_indicators_over_every_graph(self, n, count):
        connected, ge_lambda_min = _structure(n)[-2:]
        assert len(connected) == 1 << (n * (n - 1) // 2)
        assert int(np.count_nonzero(connected)) == count
        # every connected graph clears the line-graph floor, within the slack
        assert np.array_equal(ge_lambda_min, connected)


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
        # interval around the enumeration value at the effective probability
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
                masks |= rng.edge_masks(seeds, params.num_pairs, params.p)
            lam2 = np.linalg.eigvalsh(laplacians_from_masks(masks, params.n))[:, 1]
            connected += int(np.count_nonzero(lam2 > EPS_ZERO))
        lo, hi = wilson_interval(connected, trials)
        assert lo <= exact.prob_connected <= hi


class TestCapability:
    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            enumerate_exact(ModelParams(7, 0.5))
