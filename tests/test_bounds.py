"""Union equivalence, order-statistic bounds, n_min, and the probability bound."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erunion import (InfeasibleError, ModelParams, ValidationError,
                     bound_report, connectivity_probability_bound,
                     exact_union_report, expected_lambda2_bounds,
                     lambda2_variance_bounds, line_graph_lambda_min, n_min,
                     n_min_asymptotic, order_stat_expectation_bounds,
                     paley_zygmund_bound, union_effective_params)


class TestUnionEffectiveParams:
    def test_single_graph(self):
        u = union_effective_params(ModelParams(10, 0.5), 1)
        assert u.p_hat == pytest.approx(0.5, rel=1e-15)

    def test_two_graphs(self):
        u = union_effective_params(ModelParams(10, 0.5), 2)
        assert u.p_hat == pytest.approx(0.75, rel=1e-15)
        assert u.q_hat == pytest.approx(0.25, rel=1e-15)

    def test_fifty_fold_union(self):
        u = union_effective_params(ModelParams(10, 0.1), 50)
        assert u.p_hat == pytest.approx(0.994846, abs=1e-6)

    def test_small_p_precision(self):
        # log1p path keeps precision where (1-p)**N would lose it
        u = union_effective_params(ModelParams(10, 1e-12), 1000)
        assert u.p_hat == pytest.approx(1e-9, rel=1e-9)

    def test_matches_extended_precision(self):
        import mpmath as mp
        with mp.workdps(40):
            for p in (1e-5, 0.01, 0.3, 0.9):
                for num in (1, 7, 10):
                    u = union_effective_params(ModelParams(10, p), num)
                    exact = 1 - (1 - mp.mpf(p)) ** num
                    assert u.p_hat == pytest.approx(float(exact), rel=1e-14)
                    assert u.q_hat == pytest.approx(float(1 - exact), rel=1e-14)

    def test_strictly_increasing_in_num_graphs(self):
        params = ModelParams(10, 0.2)
        vals = [union_effective_params(params, k).p_hat for k in range(1, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_degenerate_num_graphs_rejected(self):
        with pytest.raises(ValidationError):
            union_effective_params(ModelParams(10, 0.5), 0)
        with pytest.raises(ValidationError):
            # p_hat rounds to 1.0 once q_hat < 2**-54
            union_effective_params(ModelParams(10, 0.5), 5000)
        with pytest.raises(ValidationError):
            union_effective_params(ModelParams(10, 0.9), 50)


class TestOrderStatBounds:
    def test_degenerate_sigma(self):
        assert order_stat_expectation_bounds(3.0, 0.0, 7, 3) == (3.0, 3.0)

    def test_maximum_lower_is_mu(self):
        lower, upper = order_stat_expectation_bounds(1.0, 2.0, 5, 5)
        assert lower == 1.0
        assert upper == pytest.approx(1.0 + 2.0 * math.sqrt(4.0))

    def test_minimum_of_five_standard_normals(self):
        lower, upper = order_stat_expectation_bounds(0.0, 1.0, 5, 1)
        assert (lower, upper) == (-2.0, 0.0)
        r = np.random.default_rng(20240818)
        emp = r.normal(size=(1_000_000, 5)).min(axis=1).mean()
        assert lower <= emp <= upper
        assert emp == pytest.approx(-1.16296, abs=0.01)

    def test_k_out_of_range(self):
        for m, k in ((5, 0), (5, 6), (0, 1)):
            with pytest.raises(ValidationError):
                order_stat_expectation_bounds(0.0, 1.0, m, k)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            order_stat_expectation_bounds(0.0, -1.0, 5, 1)

    @given(st.floats(-100, 100), st.floats(0, 50), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_lower_never_exceeds_upper(self, mu, sigma, m):
        for k in range(1, m + 1):
            lower, upper = order_stat_expectation_bounds(mu, sigma, m, k)
            assert lower <= mu <= upper


class TestExpectedLambda2Bounds:
    def test_dense_limit_is_complete_graph(self):
        u = union_effective_params(ModelParams(10, 1.0 - 1e-15), 1)
        lower, upper = expected_lambda2_bounds(u)
        assert upper == pytest.approx(10.0, rel=1e-9)
        assert lower == pytest.approx(10.0, rel=1e-6)

    def test_positivity_threshold(self):
        # lower bound positive exactly when p_hat > (2n-4)/(3n-4)
        n = 10
        thresh = (2 * n - 4) / (3 * n - 4)
        above = union_effective_params(ModelParams(n, thresh + 1e-6), 1)
        below = union_effective_params(ModelParams(n, thresh - 1e-6), 1)
        assert expected_lambda2_bounds(above)[0] > 0.0
        assert expected_lambda2_bounds(below)[0] == 0.0

    def test_explicit_values(self):
        u = union_effective_params(ModelParams(10, 0.7), 1)
        lower, upper = expected_lambda2_bounds(u)
        assert upper == pytest.approx(7.0, rel=1e-12)
        assert lower == pytest.approx(7.0 - math.sqrt(2 * 10 * 8 * 0.7 * 0.3), rel=1e-12)
        # below the positivity threshold the lower bound clamps to zero
        u = union_effective_params(ModelParams(10, 0.6), 1)
        assert expected_lambda2_bounds(u)[0] == 0.0


class TestVarianceBounds:
    def test_upper_vanishes_in_dense_limit(self):
        # decays like sqrt(q_hat): ~8e-5 at q_hat = 1e-13
        u = union_effective_params(ModelParams(10, 1.0 - 1e-13), 1)
        vb = lambda2_variance_bounds(u)
        assert vb.upper == pytest.approx(0.0, abs=1e-4)
        tail = [lambda2_variance_bounds(
                    union_effective_params(ModelParams(10, 1.0 - q), 1)).upper
                for q in (1e-7, 1e-10, 1e-13)]
        assert tail[0] > tail[1] > tail[2] > 0.0

    def test_lower_at_most_upper_when_unclamped(self):
        u = union_effective_params(ModelParams(10, 0.9), 1)
        vb = lambda2_variance_bounds(u)
        assert vb.lower <= vb.upper
        assert vb.lower >= 0.0

    @pytest.mark.parametrize("n,p,num", [
        (3, 0.5, 1), (3, 0.99, 1), (4, 0.9, 3), (6, 0.83, 20), (10, 0.9, 1),
        (50, 0.1, 50), (80, 0.5, 50), (300, 0.5, 52), (10**5, 1e-5, 2)])
    def test_lower_is_zero_for_n_at_least_3(self, n, p, num):
        # the raw bound is negative for every n >= 3 (see the docstring);
        # at (80, 0.5, 50) the difference form printed 9.09e-13
        vb = lambda2_variance_bounds(union_effective_params(ModelParams(n, p), num))
        assert vb.lower == 0.0
        assert vb.upper > 0.0

    @pytest.mark.parametrize("p,num", [(0.3, 1), (0.3, 3), (0.5, 2), (0.01, 1), (0.9, 2),
                                       (0.96, 10)])
    def test_lower_at_n2_is_4pq(self, p, num):
        # at (0.96, 10), q_hat ~ 1e-14 and m2 - (2 p_hat)^2 was off by 0.5 %
        u = union_effective_params(ModelParams(2, p), num)
        assert lambda2_variance_bounds(u).lower == 4.0 * u.p_hat * u.q_hat


class TestExactSoundnessGrid:
    def test_bounds_hold_against_exact_enumeration(self):
        # every analytic bound against exact values over n in 3..6, a p grid
        # and union sizes up to 20; only floating-point rounding is allowed
        for n in (3, 4, 5, 6):
            for p in [k / 100 for k in range(1, 100)]:
                params = ModelParams(n, p)
                for num in (1, 2, 3, 5, 10, 20):
                    try:
                        rep = bound_report(params, num)
                    except ValidationError:  # p_hat rounds to 1
                        continue
                    exact = exact_union_report(params, num)
                    var = exact.expected_lambda2_sq - exact.expected_lambda2 ** 2
                    tol = 1e-12 * max(1.0, exact.expected_lambda2_sq)
                    where = (n, p, num)
                    assert (rep.e_lambda2_lower - tol <= exact.expected_lambda2
                            <= rep.e_lambda2_upper + tol), where
                    assert rep.var_lambda2_lower - tol <= var <= rep.var_lambda2_upper + tol, where
                    if rep.prob_lower is not None:
                        assert rep.prob_lower <= exact.prob_lambda2_ge_lambda_min + tol, where


class TestNmin:
    @pytest.mark.parametrize("n,p,want", [
        (10, 0.1, 12),
        (100, 0.01, 110),
        (100000, 0.00001, 109862),
        (1000, 0.001, 1099),
    ])
    def test_reference_cells(self, n, p, want):
        assert n_min(ModelParams(n, p)).rounded_up == want

    def test_n2_infeasible(self):
        with pytest.raises(InfeasibleError):
            n_min(ModelParams(2, 0.5))

    def test_n3_feasible(self):
        res = n_min(ModelParams(3, 0.5))
        assert res.rounded_up == 2
        assert 0 < res.exact_real <= res.rounded_up

    def test_strictly_decreasing_in_p(self):
        for n in (10, 137, 5000):
            grid = np.geomspace(1e-5, 0.5, 40)
            vals = [n_min(ModelParams(n, float(p))).exact_real for p in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_order_of_magnitude_row_scaling(self):
        for n in (10, 100, 1000, 10000, 100000):
            for p in (1e-5, 1e-4, 1e-3, 1e-2):
                ratio = (n_min(ModelParams(n, p)).exact_real
                         / n_min(ModelParams(n, 10 * p)).exact_real)
                assert 9.5 <= ratio <= 10.5

    def test_criterion_consistency(self):
        # at N = rounded_up the expectation lower bound clears the line-graph
        # floor; at N-1 the threshold's own criterion q_hat <= log_argument fails
        for n, p in ((10, 0.1), (25, 0.2), (50, 0.1), (200, 0.05)):
            res = n_min(ModelParams(n, p))
            u = union_effective_params(ModelParams(n, p), res.rounded_up)
            lower, _ = expected_lambda2_bounds(u)
            assert lower >= line_graph_lambda_min(n) - 1e-9
            if res.rounded_up > res.exact_real:
                q_prev = math.exp((res.rounded_up - 1) * math.log1p(-p))
                assert q_prev > res.log_argument


class TestNminAsymptotic:
    def test_tiny_p(self):
        a = n_min_asymptotic(1e-5)
        assert a == pytest.approx(109860.6796, abs=1e-3)
        assert round(a) == 109861

    def test_p_point_one(self):
        a = n_min_asymptotic(0.1)
        assert a == pytest.approx(10.4272, abs=1e-4)
        assert math.ceil(a) == 11

    def test_close_to_nmin_at_large_n(self):
        for p in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            gap = n_min(ModelParams(100000, p)).exact_real - n_min_asymptotic(p)
            assert abs(gap) <= 1.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            n_min_asymptotic(0.0)


class TestPaleyZygmund:
    def test_theta_one_gives_zero(self):
        assert paley_zygmund_bound(2.0, 5.0, 1.0) == 0.0

    def test_deterministic_variable_gives_one(self):
        assert paley_zygmund_bound(2.0, 4.0, 0.0) == pytest.approx(1.0)

    def test_bernoulli_example(self):
        # Z ~ Bernoulli(0.3): E[Z] = E[Z^2] = 0.3; bound at theta=0.5 is
        # 0.25 * 0.09 / 0.3 = 0.075 <= P[Z > 0.15] = 0.3
        bound = paley_zygmund_bound(0.3, 0.3, 0.5)
        assert bound == pytest.approx(0.075, rel=1e-12)
        assert bound <= 0.3

    def test_theta_domain(self):
        for theta in (-0.1, 1.5):
            with pytest.raises(ValidationError):
                paley_zygmund_bound(1.0, 1.0, theta)

    def test_second_moment_domain(self):
        with pytest.raises(ValidationError):
            paley_zygmund_bound(1.0, 0.0, 0.5)


class TestConnectivityProbabilityBound:
    def test_reference_values(self):
        res = connectivity_probability_bound(ModelParams(50, 0.05), 50)
        assert res.status == "certified"
        assert res.value == pytest.approx(0.359, abs=5e-4)
        res = connectivity_probability_bound(ModelParams(50, 0.10), 125)
        assert res.value == pytest.approx(0.996, abs=5e-4)

    def test_deep_union_exceeds_09998(self):
        res = connectivity_probability_bound(ModelParams(50, 0.10), 250)
        assert res.value >= 0.9998

    def test_below_n_min_status(self):
        res = connectivity_probability_bound(ModelParams(50, 0.10), 5)
        assert res.status == "below_n_min"
        assert res.value is None
        assert res.n_min_rounded == 11

    def test_nondecreasing_in_num_graphs(self):
        params = ModelParams(50, 0.10)
        start = n_min(params).rounded_up
        vals = [connectivity_probability_bound(params, k).value
                for k in range(start, start + 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_n2_propagates_infeasible(self):
        with pytest.raises(InfeasibleError):
            connectivity_probability_bound(ModelParams(2, 0.5), 10)

    def test_zero_lower_bound_guard(self, monkeypatch):
        # unreachable in exact arithmetic for N >= n_min; the guard keeps a
        # nonpositive mean bound from giving a positive Paley-Zygmund value
        from erunion import bounds
        monkeypatch.setattr(bounds, "_e_lambda2_lower_raw", lambda n, p_hat, q_hat: 0.0)
        params = ModelParams(50, 0.1)
        res = connectivity_probability_bound(params, 50)
        assert res.status == "zero_lower_bound"
        assert res.value == 0.0
        assert res.theta is None
        assert bound_report(params, 50).prob_lower == 0.0
