"""Closed-form eigenvalue moments against the exact enumeration oracle."""
import math
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erunion import ModelParams, ValidationError, eigenvalue_moment, enumerate_exact
from erunion.moments import _coefficient
from reference import edge_masks, eigenvalue_variances, structured_matrix_eigs


def enumerate_moment_matrix(n, p, k):
    """E[L^k] by direct enumeration; independent of the oracle module."""
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    acc = np.zeros((n, n))
    for mask in range(1 << m):
        a = np.zeros((n, n))
        edges = 0
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                a[i, j] = a[j, i] = 1.0
                edges += 1
        lap = np.diag(a.sum(axis=1)) - a
        acc += np.linalg.matrix_power(lap, k) * (p ** edges * (1 - p) ** (m - edges))
    return acc


class TestMomentMatrix:
    def test_first_coefficient_is_p(self):
        c = _coefficient(10, 0.5, 1)
        assert c == 0.5

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_coefficients_vanish_as_p_to_zero(self, k):
        c = _coefficient(10, 1e-12, k)
        assert 0 < c < 1e-10

    def test_second_coefficient_value(self):
        c = _coefficient(4, 0.5, 2)
        assert c == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matrix_matches_enumeration_n4(self, k):
        n, p = 4, 0.5
        c = _coefficient(n, p, k)
        target = c * (n * np.eye(n) - np.ones((n, n)))
        assert np.max(np.abs(enumerate_moment_matrix(n, p, k) - target)) <= 1e-12

    def test_k_out_of_range(self):
        for k in (0, 5, -1):
            with pytest.raises(ValidationError):
                _coefficient(4, 0.5, k)


class TestEigenvalueMoment:
    def test_first_moment_is_np(self):
        assert eigenvalue_moment(ModelParams(10, 0.5), 1) == pytest.approx(5.0)

    def test_second_moment_small_case(self):
        # n(n-2)p^2 + 2np at (4, 0.5) = 6; enumeration of E[trace(L^2)]/(n-1) agrees
        assert eigenvalue_moment(ModelParams(4, 0.5), 2) == pytest.approx(6.0, abs=1e-12)
        rep = enumerate_exact(ModelParams(4, 0.5))
        assert rep.eigenvalue_moments[2] == pytest.approx(6.0, abs=1e-12)

    def test_fourth_moment_against_oracle(self):
        params = ModelParams(5, 0.3)
        rep = enumerate_exact(params)
        for k in (1, 2, 3, 4):
            assert eigenvalue_moment(params, k) == pytest.approx(
                rep.eigenvalue_moments[k], rel=1e-10)

    def test_trace_consistency_grid(self):
        # (n-1) * moment == exact expected trace of L^k
        for n in (4, 5, 6):
            for p in (0.2, 0.5, 0.8):
                rep = enumerate_exact(ModelParams(n, p))
                for k in (1, 2, 3, 4):
                    analytic = (n - 1) * eigenvalue_moment(ModelParams(n, p), k)
                    assert analytic == pytest.approx(rep.expected_trace_lk[k], rel=1e-10)

    def test_expected_trace_formula(self):
        # E[trace L] = n(n-1)p
        for n, p in ((4, 0.2), (6, 0.7)):
            rep = enumerate_exact(ModelParams(n, p))
            assert rep.expected_trace_lk[1] == pytest.approx(n * (n - 1) * p, rel=1e-12)

    def test_expected_trace_by_monte_carlo(self):
        # E[trace L] = n(n-1)p, checked by sampling: trace = 2 * edge count
        from erunion import rng
        n, p, trials = 10, 0.3, 20_000
        num_pairs = n * (n - 1) // 2
        seeds = rng.trial_seeds_np(606, 0, trials)
        masks = edge_masks(seeds, num_pairs, p)
        mean_trace = 2.0 * masks.sum() / trials
        se = 2.0 * math.sqrt(num_pairs * p * (1 - p) / trials)
        assert abs(mean_trace - n * (n - 1) * p) <= 5 * se

    def test_structured_matrix_consistency(self):
        # c_k (nI - J) has simple eigenvalue 0 and repeated eigenvalue n c_k
        params = ModelParams(7, 0.45)
        for k in (1, 2, 3, 4):
            c = _coefficient(params.n, params.p, k)
            simple, repeated = structured_matrix_eigs(c * (params.n - 1), -c, params.n)
            assert simple == pytest.approx(0.0, abs=1e-12)
            assert repeated == pytest.approx(eigenvalue_moment(params, k), rel=1e-12)

    def test_monotone_in_p_for_moderate_n(self):
        for n in (8, 20, 100):
            grid = np.linspace(0.01, 0.99, 99)
            for k in (1, 2, 3, 4):
                vals = [eigenvalue_moment(ModelParams(n, float(p)), k) for p in grid]
                assert all(b > a for a, b in zip(vals, vals[1:]))


class TestVariances:
    def test_var1_formula(self):
        ms = eigenvalue_variances(ModelParams(10, 0.5))
        assert ms.var1 == pytest.approx(5.0)

    def test_var1_vanishes_as_p_to_one(self):
        ms = eigenvalue_variances(ModelParams(10, 1.0 - 1e-12))
        assert ms.var1 == pytest.approx(0.0, abs=1e-10)

    def test_against_oracle_variances(self):
        params = ModelParams(5, 0.3)
        ms = eigenvalue_variances(params)
        rep = enumerate_exact(params)
        var1 = rep.eigenvalue_moments[2] - rep.eigenvalue_moments[1] ** 2
        assert ms.var1 == pytest.approx(var1, rel=1e-10)

    @given(st.integers(2, 500), st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_moment_inequalities(self, n, p):
        ms = eigenvalue_variances(ModelParams(n, p))
        assert ms.m1 ** 2 <= ms.m2 * (1 + 1e-12)
        assert ms.m2 ** 2 <= ms.m4 * (1 + 1e-12)
        assert ms.var1 >= 0
        assert ms.m1 == pytest.approx(n * p, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 80, 300, 1000, 10**5])
    @pytest.mark.parametrize("p", [1e-9, 1e-4, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6, 1 - 2.0**-52])
    def test_var2_matches_extended_precision(self, n, p):
        # the closed form of var2 = m4 - m2^2 that the proof of the Var[lambda_2]
        # lower bound takes (in bounds.bound_report), against the package's
        # coefficients at 50 digits
        with mpmath.workdps(50):
            mp = mpmath.mpf(p)
            m2, m4 = (n * _coefficient(n, mp, k) for k in (2, 4))
            closed = n * mp * (1 - mp) * (8 + (n - 2) * mp * (21 + (8 * n - 21) * mp))
            assert abs(m4 - m2 * m2 - closed) <= mpmath.mpf(10) ** -25 * closed
