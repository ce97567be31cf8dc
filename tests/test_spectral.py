"""Eigenvalue solver accuracy against closed-form spectra."""
import builtins
import ctypes
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from erunion import ModelParams, ValidationError, line_graph_lambda_min, rng
from erunion import spectral
from erunion.graphs import laplacians_from_pairs, pair_arrays
from erunion.spectral import EPS_ZERO, eigenvalue_at, one_blas_thread
from reference import (all_pairs, from_edges, is_connected_bfs, lambda2, laplacian,
                       sample_graph, structured_matrix_eigs, symmetric_eigenvalues,
                       trial_seed)


def path_laplacian(n):
    g = from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return laplacian(g)


def complete_laplacian(n):
    g = from_edges(n, list(all_pairs(n)))
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
        g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
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

    @pytest.mark.parametrize("n", [1, 0, 2.0, True])
    def test_rejects_other_than_an_integer_of_2_or_more(self, n):
        with pytest.raises(ValidationError, match="n must be an integer >= 2"):
            line_graph_lambda_min(n)

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
            g = sample_graph(ModelParams(n, 2.5 / n), trial_seed(911, seed))
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


def test_one_blas_thread_without_thread_controls_runs_the_body(
        monkeypatch, blas_get_at_two_threads):
    # a BLAS without OpenBLAS's thread-count functions: the body runs as is
    get = blas_get_at_two_threads
    monkeypatch.setattr(spectral, "_openblas_thread_controls", lambda: None)
    ran = False
    with one_blas_thread():
        ran = True
        assert spectral._one_thread_holders == 0
        assert get() == 2
    assert ran
    assert get() == 2


def _clear_lookups():
    for value in vars(spectral).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _address(function):
    return ctypes.cast(function, ctypes.c_void_p).value


def test_numpy_openblas_wheel_resolves_dsyevr_and_thread_controls():
    # the solver tests skip where either lookup is None, so a numpy wheel that
    # renamed these symbols would send every solve to eigvalsh without a failure
    if np.__config__.CONFIG["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
        pytest.skip("numpy's BLAS is not its own scipy-openblas wheel build")
    assert spectral._dsyevr() is not None
    assert spectral._openblas_thread_controls() is not None


def test_blas_is_numpy_linalgs_and_found_without_proc_self_maps(monkeypatch):
    # the thread controls and dsyevr are those of the BLAS numpy.linalg
    # calls, found also where /proc/self/maps is hidden (macOS, sandboxes)
    if spectral._openblas_thread_controls() is None or spectral._dsyevr() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread controls or scipy_dsyevr_64_")
    real_open = builtins.open

    def open_without_maps(file, *args, **kwargs):
        if str(file) == "/proc/self/maps":
            raise PermissionError(13, "Permission denied", file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_without_maps)
    _clear_lookups()
    try:
        controls, dsyevr = spectral._openblas_thread_controls(), spectral._dsyevr()
    finally:
        _clear_lookups()
    assert controls is not None and dsyevr is not None
    linalg = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    assert _address(dsyevr) == _address(linalg.scipy_dsyevr_64_)
    names = next(pair for pair in spectral._OPENBLAS_THREAD_SYMBOLS if hasattr(linalg, pair[0]))
    assert [_address(f) for f in controls] == [_address(getattr(linalg, n)) for n in names]


def _sampled_laplacians(n, count, seed):
    """Laplacians of `count` G(n, 2 log n / n) samples, from the one builder."""
    p = 2 * math.log(n) / n
    trial, pair = rng.rare_pairs(rng.trial_seeds_np(seed, 0, count), n * (n - 1) // 2, p)
    i, j = pair_arrays(n)
    return laplacians_from_pairs(trial, i[pair], j[pair], True, count, n)


class TestEigenvalueAt:
    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_agrees_with_eigvalsh(self, n):
        laps = _sampled_laplacians(n, 12, seed=n)
        want = np.linalg.eigvalsh(laps)
        for k in (2, n):
            got = eigenvalue_at(laps.copy(), k)
            assert np.max(np.abs(got - want[:, k - 1])) <= 1e-12, k

    def test_complete_and_path_closed_forms(self):
        # lambda_2 and lambda_max: n and n for K_n, 2 -/+ 2cos(pi/n) for P_n
        for n in range(2, 201):
            cos = math.cos(math.pi / n)
            complete = n * np.eye(n) - np.ones((n, n))
            path = np.diag(np.r_[1.0, np.full(n - 2, 2.0), 1.0]) - np.eye(n, k=1) - np.eye(n, k=-1)
            for lap, low, high in ((complete, n, n), (path, 2 * (1 - cos), 2 + 2 * cos)):
                assert abs(eigenvalue_at(lap[None].copy(), 2)[0] - low) <= 1e-9, n
                assert abs(eigenvalue_at(lap[None].copy(), n)[0] - high) <= 1e-9, n

    @pytest.mark.parametrize("n", [30, 100])
    def test_non_contiguous_stack_is_left_intact(self, n):
        # each Laplacian in the leading block of a wider matrix, every other one taken
        laps = _sampled_laplacians(n, 6, seed=7)
        padded = np.zeros((12, n + 3, n + 3))
        padded[::2, :n, :n] = laps
        view = padded[::2, :n, :n]
        before = padded.copy()
        got = eigenvalue_at(view, 2)
        assert np.max(np.abs(got - np.linalg.eigvalsh(laps)[:, 1])) <= 1e-12
        assert np.array_equal(padded, before)

    def test_strided_contiguous_matrices(self):
        laps = _sampled_laplacians(100, 6, seed=8)
        got = eigenvalue_at(laps.copy()[::2], 2)
        assert np.max(np.abs(got - np.linalg.eigvalsh(laps[::2])[:, 1])) <= 1e-12

    def test_value_does_not_depend_on_earlier_solves(self):
        # dsyevr's outcome depends on its workspace sizes (on K_100 here), so
        # they must be a function of n alone, whatever a thread solved before
        def solve_in_new_thread(sizes):
            values = []
            worker = threading.Thread(target=lambda: values.extend(
                eigenvalue_at(complete_laplacian(n)[None], n)[0] for n in sizes))
            worker.start()
            worker.join()
            return values

        assert solve_in_new_thread([300, 100])[1] == solve_in_new_thread([100])[0]

    @pytest.mark.parametrize("n", [spectral.DSYEVR_MIN_N, 300])
    def test_a_solve_leaves_no_workspace_behind(self, n):
        # the sizes are cached per n and the buffers freed with the call, so
        # a solve in a fresh thread leaves at most a cache entry traced
        laps = _sampled_laplacians(n, 2, seed=n)
        left = []

        def solve():
            tracemalloc.start()
            try:
                eigenvalue_at(laps.copy(), 2)
                left.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()

        worker = threading.Thread(target=solve)
        worker.start()
        worker.join()
        assert left and left[0] <= 2048

    def test_concurrent_solves_give_the_serial_bits(self):
        # two threads alternate sizes at once, each in its own order
        laps = {n: _sampled_laplacians(n, 2, seed=n) for n in (60, 100, 300)}
        want = {n: eigenvalue_at(lap.copy(), 2) for n, lap in laps.items()}
        start = threading.Barrier(2)
        got = [[], []]

        def solve(sizes, out):
            start.wait()
            out.extend((n, eigenvalue_at(laps[n].copy(), 2)) for n in sizes * 4)

        workers = [threading.Thread(target=solve, args=(sizes, out))
                   for sizes, out in (((60, 100, 300), got[0]), ((300, 60, 100), got[1]))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert len(got[0]) == len(got[1]) == 12
        for n, values in got[0] + got[1]:
            assert np.array_equal(values, want[n]), n

    @pytest.mark.parametrize("n", [20, 100, 200])
    def test_without_dsyevr_is_eigvalsh_bit_for_bit(self, monkeypatch, n):
        monkeypatch.setattr(spectral, "_dsyevr", lambda: None)
        laps = _sampled_laplacians(n, 5, seed=9)
        want = np.linalg.eigvalsh(laps)
        for k in (2, n):
            assert np.array_equal(eigenvalue_at(laps.copy(), k), want[:, k - 1])

    def test_below_the_cutoff_is_eigvalsh_bit_for_bit(self):
        n = spectral.DSYEVR_MIN_N - 1
        laps = _sampled_laplacians(n, 5, seed=10)
        assert np.array_equal(eigenvalue_at(laps.copy(), 2), np.linalg.eigvalsh(laps)[:, 1])

    def test_cutoff_is_in_the_measured_range(self):
        # crossover near n = 50; the mc-dense shape (n = 50) stays on eigvalsh
        assert 50 < spectral.DSYEVR_MIN_N <= 64

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(ValidationError):
            eigenvalue_at(np.zeros((2, 3, 3)), k)

    @pytest.mark.parametrize("rows", [10, 60])
    @pytest.mark.parametrize("k", [2.0, 2.7, True])
    def test_k_other_than_an_integer_rejected(self, rows, k):
        # on both sides of DSYEVR_MIN_N; numpy integers stay accepted
        laps = _sampled_laplacians(rows, 2, seed=rows)
        with pytest.raises(ValidationError, match="k must be an integer"):
            eigenvalue_at(laps.copy(), k)
        assert np.array_equal(eigenvalue_at(laps.copy(), np.int64(2)),
                              eigenvalue_at(laps.copy(), 2))

    def test_no_convergence_is_solved_again_by_eigvalsh(self):
        # K_n with k = n: this OpenBLAS's dstebz reports INFO = 2 at some of
        # these n and writes one element before IWORK; a corrupted heap
        # would abort the child, so it must exit 0
        code = (
            "import numpy as np\n"
            "from erunion.spectral import eigenvalue_at\n"
            "for n in (64, 100, 200, 300):\n"
            "    lap = n * np.eye(n) - np.ones((n, n))\n"
            "    for _ in range(3):\n"
            "        value = eigenvalue_at(lap[None].copy(), n)[0]\n"
            "        assert abs(value - n) <= 1e-9, (n, value)\n"
            "print('ok')\n")
        src = str(Path(spectral.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
        assert out.returncode == 0, out.stderr.decode()
        assert out.stdout == b"ok\n"

    def test_info_above_zero_falls_back_to_eigvalsh(self, monkeypatch):
        dsyevr = spectral._dsyevr()
        if dsyevr is None:
            pytest.skip("numpy's OpenBLAS exports no scipy_dsyevr_64_")

        def failing(*args):
            # the workspace query (LWORK = -1) succeeds; every solve fails to
            # converge after destroying the triangle LAPACK reads
            if ctypes.c_int64.from_address(args[17]).value == -1:
                return dsyevr(*args)
            n = ctypes.c_int64.from_address(args[3]).value
            a = np.ctypeslib.as_array((ctypes.c_double * (n * n)).from_address(args[4]))
            a.reshape(n, n)[np.triu_indices(n)] = np.nan
            ctypes.c_int64.from_address(args[20]).value = 2
            return None

        monkeypatch.setattr(spectral, "_dsyevr", lambda: failing)
        laps = _sampled_laplacians(100, 4, seed=11)
        want = np.linalg.eigvalsh(laps)
        for k in (2, 100):
            assert np.array_equal(eigenvalue_at(laps.copy(), k), want[:, k - 1])

    def test_info_below_zero_raises(self, monkeypatch):
        dsyevr = spectral._dsyevr()
        if dsyevr is None:
            pytest.skip("numpy's OpenBLAS exports no scipy_dsyevr_64_")

        def illegal(*args):
            # the workspace query (LWORK = -1) succeeds, every solve reports
            # an illegal fourth argument
            if ctypes.c_int64.from_address(args[17]).value == -1:
                return dsyevr(*args)
            ctypes.c_int64.from_address(args[20]).value = -4
            return None

        monkeypatch.setattr(spectral, "_dsyevr", lambda: illegal)
        with pytest.raises(RuntimeError, match="argument 4"):
            eigenvalue_at(_sampled_laplacians(100, 2, seed=12), 2)

    @pytest.mark.parametrize("fail", [False, True])
    def test_solves_run_on_one_blas_thread(self, record_dsyevr, blas_get_at_two_threads,
                                           fail):
        get = blas_get_at_two_threads
        seen = record_dsyevr(get, fail)
        laps = _sampled_laplacians(100, 3, seed=13)
        if fail:
            with pytest.raises(RuntimeError):
                eigenvalue_at(laps, 2)
        else:
            eigenvalue_at(laps, 2)
        assert seen and seen == [(True, 1)] * len(seen)
        assert get() == 2
