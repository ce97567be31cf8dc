"""Union equivalence, order-statistic bounds, n_min, and the probability bound."""
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erunion import (InfeasibleError, ModelParams, ValidationError, bounds,
                     bound_report, exact_union_report, line_graph_lambda_min,
                     n_min, n_min_asymptotic, paley_zygmund_bound,
                     union_effective_params)
from erunion.bounds import _nmin_log_argument
from erunion.moments import _coefficient
from reference import order_stat_expectation_bounds


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
        rep = bound_report(ModelParams(10, 1.0 - 1e-15), 1)
        lower, upper = rep.e_lambda2_lower, rep.e_lambda2_upper
        assert upper == pytest.approx(10.0, rel=1e-9)
        assert lower == pytest.approx(10.0, rel=1e-6)

    def test_positivity_threshold(self):
        # lower bound positive exactly when p_hat > (2n-4)/(3n-4)
        n = 10
        thresh = (2 * n - 4) / (3 * n - 4)
        above = bound_report(ModelParams(n, thresh + 1e-6), 1)
        below = bound_report(ModelParams(n, thresh - 1e-6), 1)
        assert above.e_lambda2_lower > 0.0
        assert below.e_lambda2_lower == 0.0

    def test_explicit_values(self):
        rep = bound_report(ModelParams(10, 0.7), 1)
        lower, upper = rep.e_lambda2_lower, rep.e_lambda2_upper
        assert upper == pytest.approx(7.0, rel=1e-12)
        assert lower == pytest.approx(7.0 - math.sqrt(2 * 10 * 8 * 0.7 * 0.3), rel=1e-12)
        # below the positivity threshold the lower bound clamps to zero
        assert bound_report(ModelParams(10, 0.6), 1).e_lambda2_lower == 0.0

    @pytest.mark.parametrize("n,p,num", [(2, 0.3, 1), (3, 0.9, 2), (10, 0.7, 1), (50, 0.1, 50),
                                         (10**5, 1e-5, 200000)])
    def test_lower_is_the_first_order_statistic_bound(self, n, p, num):
        # the mean-variance bound on the least of the n-1 nonzero-indexed
        # eigenvalues, each with mean n p_hat and variance 2 n p_hat q_hat
        u = union_effective_params(ModelParams(n, p), num)
        sigma = math.sqrt(2.0 * n * u.p_hat * u.q_hat)
        lower, _ = order_stat_expectation_bounds(n * u.p_hat, sigma, n - 1, 1)
        assert bound_report(ModelParams(n, p), num).e_lambda2_lower == max(lower, 0.0)


class TestVarianceBounds:
    def test_upper_vanishes_in_dense_limit(self):
        # decays like sqrt(q_hat): ~8e-5 at q_hat = 1e-13
        rep = bound_report(ModelParams(10, 1.0 - 1e-13), 1)
        assert rep.var_lambda2_upper == pytest.approx(0.0, abs=1e-4)
        tail = [bound_report(ModelParams(10, 1.0 - q), 1).var_lambda2_upper
                for q in (1e-7, 1e-10, 1e-13)]
        assert tail[0] > tail[1] > tail[2] > 0.0

    def test_lower_at_most_upper_when_unclamped(self):
        rep = bound_report(ModelParams(10, 0.9), 1)
        assert rep.var_lambda2_lower <= rep.var_lambda2_upper
        assert rep.var_lambda2_lower >= 0.0

    @pytest.mark.parametrize("n,p,num", [
        (3, 0.5, 1), (3, 0.99, 1), (4, 0.9, 3), (6, 0.83, 20), (10, 0.9, 1),
        (50, 0.1, 50), (80, 0.5, 50), (300, 0.5, 52), (10**5, 1e-5, 2),
        (3, 1e-300, 1), (3, 1 - 2.0**-52, 1), (10**9, 1e-300, 1), (10**9, 0.5, 1),
        (10**9, 1 - 2.0**-52, 1), (2**53, 1e-300, 1), (2**53, 1 - 2.0**-52, 1)])
    def test_lower_is_zero_for_n_at_least_3(self, n, p, num):
        # the raw bound is negative for every n >= 3 (see _variance_bounds);
        # at (80, 0.5, 50) the difference form printed 9.09e-13
        rep = bound_report(ModelParams(n, p), num)
        assert rep.var_lambda2_lower == 0.0
        assert rep.var_lambda2_upper > 0.0

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 100, 10**5, 10**9, 2**53])
    def test_paper_lower_bound_is_negative_for_n_at_least_3(self, n):
        # why var_lambda2_lower is 0 for n >= 3: the paper's
        # m2 - sigma2 sqrt(n-2) - (n p_hat)^2, sigma2^2 = m4 - m2^2, from the
        # closed-form moments at 50 digits
        with mpmath.workdps(50):
            for p in (5e-324, 1e-300, 1e-9, 0.01, 0.5, 0.99, 1 - 2.0**-52, 1 - 2.0**-53):
                mp = mpmath.mpf(p)
                m2 = n * ((n - 2) * mp + 2) * mp
                m4 = n * ((((n - 7) * (n - 3) * (n - 2) * mp + 6 * (2 * n - 7) * (n - 2)) * mp
                           + 25 * (n - 2)) * mp + 8) * mp
                paper = m2 - mpmath.sqrt(m4 - m2 * m2) * mpmath.sqrt(n - 2) - (n * mp) ** 2
                assert paper < 0, (n, p)

    @pytest.mark.parametrize("p,num", [(0.3, 1), (0.3, 3), (0.5, 2), (0.01, 1), (0.9, 2),
                                       (0.96, 10), (1e-300, 1), (1 - 2.0**-52, 1)])
    def test_lower_at_n2_is_4pq(self, p, num):
        # at (0.96, 10), q_hat ~ 1e-14 and m2 - (2 p_hat)^2 was off by 0.5 %
        u = union_effective_params(ModelParams(2, p), num)
        assert bound_report(ModelParams(2, p), num).var_lambda2_lower == 4.0 * u.p_hat * u.q_hat

    def test_lower_at_most_upper_on_small_n_grid(self):
        # the upper bound is a sum of nonnegative terms; m2 - raw^2 rounded
        # below the lower bound at n = 2, where the two bounds coincide
        for n in range(2, 7):
            for p in [k / 50 for k in range(1, 50)] + [1e-6, 1e-3, 0.999]:
                for num in (1, 2, 3, 5, 10, 20):
                    try:
                        rep = bound_report(ModelParams(n, p), num)
                    except ValidationError:  # p_hat rounds to 1
                        continue
                    assert rep.var_lambda2_lower <= rep.var_lambda2_upper, (n, p, num)
                    if n == 2:
                        assert rep.var_lambda2_lower == rep.var_lambda2_upper, (n, p, num)

    @pytest.mark.parametrize("n,p,num", [
        (2, 0.5, 3), (3, 0.5, 1), (10, 0.7, 1), (10, 1.0 - 1e-13, 1), (50, 0.1, 50),
        (1000, 0.001, 2000), (10**5, 1e-5, 200000)])
    def test_upper_matches_extended_precision(self, n, p, num):
        import mpmath as mp
        with mp.workdps(60):
            p_hat = 1 - (1 - mp.mpf(p)) ** num
            raw = n * p_hat - mp.sqrt(2 * n * (n - 2) * p_hat * (1 - p_hat))
            want = n * ((n - 2) * p_hat + 2) * p_hat - max(raw, 0) ** 2
            got = bound_report(ModelParams(n, p), num).var_lambda2_upper
            assert abs(got - want) <= 1e-14 * want


class TestBoundReportSinglePass:
    """bound_report computes in one pass what each field's definition gives apart."""

    @staticmethod
    def _expected(params, num):
        """The record field by field: the first order-statistic bound, the
        variance sandwich, n_min and the clamped Paley-Zygmund value at
        theta = lambda_min / (n p_hat)."""
        n = params.n
        u = union_effective_params(params, num)
        sigma = math.sqrt(2.0 * n * u.p_hat * u.q_hat)
        raw, _ = order_stat_expectation_bounds(n * u.p_hat, sigma, n - 1, 1)
        m2 = n * _coefficient(n, u.p_hat, 2)
        var_lo, var_hi = bounds._variance_bounds(n, u.p_hat, u.q_hat, raw, m2)
        lam = line_graph_lambda_min(n)
        theta = prob = rounded = None
        try:
            rounded = n_min(params).rounded_up
        except InfeasibleError:
            status = "infeasible"
        else:
            status = "below_n_min" if num < rounded else "certified"
        if status == "certified":
            assert raw > 0.0, (n, params.p, num)  # see test_zero_lower_bound_case_fields
            theta = lam / (n * u.p_hat)
            prob = min(max(paley_zygmund_bound(raw, m2, theta), 0.0), 1.0)
        return {"e_lambda2_lower": max(raw, 0.0), "e_lambda2_upper": n * u.p_hat,
                "var_lambda2_lower": var_lo, "var_lambda2_upper": var_hi,
                "lambda_min": lam, "theta": theta, "prob_lower": prob,
                "prob_status": status, "n_min": rounded}

    def test_fields_equal_their_definitions(self):
        statuses = set()
        for n in (2, 3, 4, 6, 10, 50, 1000):
            for p in (1e-5, 0.01, 0.1, 0.5, 0.9):
                params = ModelParams(n, p)
                for num in (1, 2, 5, 11, 12, 50, 125, 2000):
                    try:
                        want = self._expected(params, num)
                    except ValidationError:
                        with pytest.raises(ValidationError):
                            bound_report(params, num)
                        continue
                    rep = bound_report(params, num)
                    assert dataclasses.asdict(rep) == want, (n, p, num)
                    statuses.add(rep.prob_status)
        assert statuses == {"infeasible", "below_n_min", "certified"}

    def test_zero_lower_bound_case_fields(self, monkeypatch):
        # with no positive E[lambda_2] lower bound, the Var upper bound is m2
        # and nothing is certified
        params = ModelParams(50, 0.1)
        want = self._expected(params, 50)
        m2 = 50 * _coefficient(50, params.effective_probabilities(50)[0], 2)
        want.update(e_lambda2_lower=0.0, var_lambda2_upper=m2, theta=None,
                    prob_lower=0.0, prob_status="zero_lower_bound")
        monkeypatch.setattr(bounds, "_e_lambda2_lower_raw", lambda n, p_hat, q_hat: 0.0)
        assert dataclasses.asdict(bound_report(params, 50)) == want

    def test_overflowing_n_min_is_rejected_by_both(self):
        params = ModelParams(10, 1e-310)
        with pytest.raises(ValidationError):
            bound_report(params, 5)
        with pytest.raises(ValidationError):
            n_min(params)


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
        # floor; at N-1 the threshold's own criterion q_hat <= the log argument fails
        for n, p in ((10, 0.1), (25, 0.2), (50, 0.1), (200, 0.05)):
            res = n_min(ModelParams(n, p))
            lower = bound_report(ModelParams(n, p), res.rounded_up).e_lambda2_lower
            assert lower >= line_graph_lambda_min(n) - 1e-9
            if res.rounded_up > res.exact_real:
                q_prev = math.exp((res.rounded_up - 1) * math.log1p(-p))
                assert q_prev > _nmin_log_argument(n, line_graph_lambda_min(n))


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
        rep = bound_report(ModelParams(50, 0.05), 50)
        assert rep.prob_status == "certified"
        assert rep.prob_lower == pytest.approx(0.359, abs=5e-4)
        rep = bound_report(ModelParams(50, 0.10), 125)
        assert rep.prob_lower == pytest.approx(0.996, abs=5e-4)

    def test_deep_union_exceeds_09998(self):
        assert bound_report(ModelParams(50, 0.10), 250).prob_lower >= 0.9998

    def test_below_n_min_status(self):
        rep = bound_report(ModelParams(50, 0.10), 5)
        assert rep.prob_status == "below_n_min"
        assert rep.prob_lower is None
        assert rep.n_min == 11

    def test_nondecreasing_in_num_graphs(self):
        params = ModelParams(50, 0.10)
        start = n_min(params).rounded_up
        vals = [bound_report(params, k).prob_lower for k in range(start, start + 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_n2_propagates_infeasible(self):
        rep = bound_report(ModelParams(2, 0.5), 10)
        assert rep.prob_status == "infeasible"
        assert (rep.prob_lower, rep.theta, rep.n_min) == (None, None, None)

    def test_zero_lower_bound_guard(self, monkeypatch):
        # unreachable in exact arithmetic for N >= n_min; the guard keeps a
        # nonpositive mean bound from giving a positive Paley-Zygmund value
        monkeypatch.setattr(bounds, "_e_lambda2_lower_raw", lambda n, p_hat, q_hat: 0.0)
        rep = bound_report(ModelParams(50, 0.1), 50)
        assert rep.prob_status == "zero_lower_bound"
        assert rep.prob_lower == 0.0
        assert rep.theta is None
