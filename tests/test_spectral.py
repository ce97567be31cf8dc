"""Eigenvalue solver accuracy against closed-form spectra."""
import math

import mpmath
import numpy as np
import pytest

from erunion import (GraphSample, ModelParams, ValidationError, all_pairs,
                     is_connected_bfs, lambda2, laplacian,
                     line_graph_lambda_min, rng, sample_graph,
                     structured_matrix_eigs, symmetric_eigenvalues)
from erunion.spectral import EPS_ZERO, one_blas_thread


def path_laplacian(n):
    g = GraphSample.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return laplacian(g)


def complete_laplacian(n):
    g = GraphSample.from_edges(n, list(all_pairs(n)))
    return laplacian(g)


class TestSymmetricEigenvalues:
    def test_zero_matrix(self):
        assert np.array_equal(symmetric_eigenvalues(np.zeros((3, 3))), np.zeros(3))

    def test_complete_graph_spectrum(self):
        for n in (2, 5, 30):
            w = symmetric_eigenvalues(complete_laplacian(n))
            assert abs(w[0]) <= EPS_ZERO
            assert np.allclose(w[1:], n, atol=1e-9)

    def test_path_closed_form(self):
        # path spectrum is 2(1 - cos(k pi / n)), k = 0..n-1
        n = 4
        w = symmetric_eigenvalues(path_laplacian(n))
        expected = sorted(2 * (1 - math.cos(k * math.pi / n)) for k in range(n))
        assert np.allclose(w, expected, atol=1e-9)
        assert w[1] == pytest.approx(2 - math.sqrt(2), abs=1e-9)

    def test_sorted_ascending(self):
        m = np.diag([3.0, -1.0, 2.0])
        assert np.array_equal(symmetric_eigenvalues(m), [-1.0, 2.0, 3.0])

    def test_trace_consistency(self):
        r = np.random.default_rng(5)
        for _ in range(25):
            n = int(r.integers(2, 40))
            m = r.normal(size=(n, n))
            m = m + m.T
            w = symmetric_eigenvalues(m)
            tr = float(np.trace(m))
            assert w.sum() == pytest.approx(tr, rel=1e-9, abs=1e-9)

    def test_non_symmetric_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            symmetric_eigenvalues(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            symmetric_eigenvalues(np.zeros((2, 3)))


class TestLambda2:
    def test_complete_50(self):
        assert lambda2(complete_laplacian(50)) == pytest.approx(50.0, abs=1e-9)

    def test_disconnected_zero(self):
        g = GraphSample.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert abs(lambda2(laplacian(g))) <= EPS_ZERO

    def test_path_50(self):
        expect = 2 * (1 - math.cos(math.pi / 50))
        assert lambda2(path_laplacian(50)) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(0.0039465, abs=5e-7)

    def test_rejects_non_laplacian(self):
        with pytest.raises(ValidationError):
            lambda2(np.eye(3))

    def test_laplacian_spectrum_nonnegative(self):
        for seed in range(30):
            g = sample_graph(ModelParams(20, 0.2), seed)
            w = symmetric_eigenvalues(laplacian(g))
            assert w[0] >= -EPS_ZERO
            assert abs(w[0]) <= EPS_ZERO


class TestStructuredMatrix:
    def test_expected_laplacian_structure(self):
        # M = p(nI - J): alpha = p(n-1), beta = -p -> eigenvalues 0 and n p
        n, p = 10, 0.37
        simple, repeated = structured_matrix_eigs(p * (n - 1), -p, n)
        assert simple == pytest.approx(0.0, abs=1e-12)
        assert repeated == pytest.approx(n * p, rel=1e-12)

    def test_rank_one(self):
        simple, repeated = structured_matrix_eigs(2.0, 2.0, 6)
        assert simple == pytest.approx(12.0)
        assert repeated == pytest.approx(0.0)

    def test_against_dense_solver(self):
        alpha, beta, n = 3.0, 1.0, 4
        simple, repeated = structured_matrix_eigs(alpha, beta, n)
        assert (simple, repeated) == (6.0, 2.0)
        m = (alpha - beta) * np.eye(n) + beta * np.ones((n, n))
        w = symmetric_eigenvalues(m)
        assert np.allclose(w, [2, 2, 2, 6], atol=1e-9)

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValidationError):
            structured_matrix_eigs(1.0, 1.0, 1)


class TestLineGraphMinimum:
    def test_n2(self):
        assert line_graph_lambda_min(2) == 2.0

    def test_matches_extended_precision(self):
        # the difference form 2(1 - cos(pi/n)) errs by 9.5e-12 at n = 1000
        # and is 0.0 from n ~ 1e9
        ns = list(range(2, 2001)) + [10**k for k in range(4, 10)]
        with mpmath.workdps(40):
            for n in ns:
                ref = 2 * (1 - mpmath.cos(mpmath.pi / n))
                assert abs(line_graph_lambda_min(n) - ref) <= 1e-15 * ref, n
        assert line_graph_lambda_min(10**9) > 0.0

    def test_n4_closed_form(self):
        assert line_graph_lambda_min(4) == pytest.approx(2 - math.sqrt(2), abs=1e-12)

    def test_matches_path_lambda2(self):
        for n in (2, 3, 7, 20, 50):
            assert lambda2(path_laplacian(n)) == pytest.approx(
                line_graph_lambda_min(n), abs=1e-9)

    def test_minimality_over_connected_samples(self):
        # full 1e4-sample sweep runs in the acceptance suite
        hits = 0
        for seed in range(600):
            n = 5 + seed % 20
            g = sample_graph(ModelParams(n, 2.5 / n), rng.trial_seed(911, seed))
            if is_connected_bfs(g):
                hits += 1
                assert lambda2(laplacian(g)) >= line_graph_lambda_min(n) - 1e-9
        assert hits > 100


def test_overlapping_one_blas_thread_bodies_restore_the_count(blas_get_at_two_threads):
    # bodies in two threads may end in either order; the last restores
    get = blas_get_at_two_threads
    first, second = one_blas_thread(), one_blas_thread()
    first.__enter__()
    second.__enter__()
    assert get() == 1
    first.__exit__(None, None, None)
    assert get() == 1
    second.__exit__(None, None, None)
    assert get() == 2
