"""Monte-Carlo harness: determinism, agreement with BFS, bound coverage."""
import dataclasses
import functools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest

from erunion import (CapabilityError, McConfig, ModelParams, ValidationError,
                     bound_report, enumerate_exact, line_graph_lambda_min, run_mc,
                     wilson_interval)
from erunion import montecarlo, rng, spectral
from erunion.graphs import pair_arrays
from erunion.montecarlo import lambda2s_from_pairs
from erunion.spectral import DSYEVR_MIN_N, EPS_ZERO, eigenvalue_at
from reference import (edge_masks, is_connected_bfs, lambda2, laplacian, sample_union,
                       trial_seed)

# n=40, N=2: p_hat = 0.0975 sits at the connectivity threshold ln(40)/40,
# where about half the unions have a node of degree 0
THRESHOLD_CONFIG = McConfig(ModelParams(40, 0.05), num_graphs=2, trials=300,
                            master_seed=2024)

# n=30, N=6: p_hat = 0.984, so almost every union has a node joined to all
# others and is solved through its complement
DENSE_CONFIG = McConfig(ModelParams(30, 0.5), num_graphs=6, trials=300, master_seed=6)

# solved by dsyevr: the threshold shape of the benchmark (8 chunks of <= 13
# trials), a denser n = 100 one (6 chunks of 16) and p_hat = 0.969 at
# n = 100, where almost every union is solved on a complement of 89 to 99 nodes
ABOVE_CUTOFF_CONFIGS = [
    McConfig(ModelParams(200, 0.007), num_graphs=4, trials=104, master_seed=1),
    McConfig(ModelParams(100, 0.03), num_graphs=4, trials=96, master_seed=2),
    McConfig(ModelParams(100, 0.5), num_graphs=5, trials=156, master_seed=3),
]


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
        monkeypatch.setattr(rng, "rare_pairs", no_sampling)
        with pytest.raises(ValidationError):
            run_mc(McConfig(ModelParams(10, 0.5), num_graphs=100, trials=10, master_seed=0))

    @pytest.mark.parametrize("trials", [10**17, 2**64])
    def test_per_trial_array_beyond_memory_fails_before_sampling(self, monkeypatch, trials):
        # 8e17 bytes is more than any address space maps, and 2**64 floats
        # more than numpy indexes, so neither is ever allocated
        def no_sampling(*args):
            raise AssertionError("sampled before allocating the per-trial array")
        monkeypatch.setattr(rng, "rare_pairs", no_sampling)
        with pytest.raises(CapabilityError, match=f"trials={trials} needs .* bytes"):
            run_mc(McConfig(ModelParams(3, 0.5), num_graphs=1, trials=trials, master_seed=1))

    def test_estimate_holds_at_most_two_per_trial_arrays(self):
        # the per-trial array and one temporary of its size: the moments are
        # taken on it in place; at 10**6 trials the sampler's chunk arrays
        # are far smaller
        trials = 10**6
        tracemalloc.start()
        try:
            run_mc(McConfig(ModelParams(3, 0.5), 1, trials, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * 8 * trials

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            McConfig(ModelParams(5, 0.5), num_graphs=0, trials=10, master_seed=0)
        with pytest.raises(ValidationError):
            McConfig(ModelParams(5, 0.5), num_graphs=1, trials=0, master_seed=0)

    @pytest.mark.parametrize("field", ["num_graphs", "trials", "workers"])
    @pytest.mark.parametrize("value", [True, False])
    def test_counts_reject_bool(self, field, value):
        counts = {"num_graphs": 1, "trials": 10, "workers": 1, field: value}
        with pytest.raises(ValidationError):
            McConfig(ModelParams(5, 0.5), master_seed=0, **counts)

    @pytest.mark.parametrize("seed", [1.5, True, -1, 1 << 64])
    def test_master_seed_must_be_a_64_bit_integer(self, seed):
        # seeds are reduced mod 2**64, so 0 and 2**64 would share one stream
        with pytest.raises(ValidationError):
            McConfig(ModelParams(5, 0.5), num_graphs=1, trials=10, master_seed=seed)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_master_seed_range_ends_run(self, seed):
        est = run_mc(McConfig(ModelParams(5, 0.5), num_graphs=1, trials=10, master_seed=seed))
        assert est.trials == 10


@pytest.mark.parametrize("successes, trials", [(5, 1), (-1, 10), (3, 2), (1.5, 3), (True, 3),
                                               (0, 0), (1, True), (1, 2.0)])
def test_wilson_interval_rejects_impossible_counts(successes, trials):
    with pytest.raises(ValidationError):
        wilson_interval(successes, trials)


@pytest.mark.parametrize("successes, trials", [(0, 1), (1, 1), (0, 10), (4, 10), (10, 10)])
def test_wilson_interval_accepts_every_count_from_0_to_trials(successes, trials):
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= hi <= 1.0


def test_wilson_interval_holds_the_observed_frequency():
    # the ends are exact at 0 and at trials successes
    for trials in range(1, 301):
        for successes in range(trials + 1):
            lo, hi = wilson_interval(successes, trials)
            assert lo <= successes / trials <= hi
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0


class TestWorkerFailure:
    @pytest.mark.parametrize("raiser", ["caller", "helper"])
    def test_a_failing_worker_stops_the_other(self, monkeypatch, raiser):
        # 80 chunks of 13 trials on two workers: the worker that does not
        # raise holds its first chunk until the other has raised, and then
        # must find no chunk left
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        caller = threading.get_ident()
        raised = threading.Event()
        calls = []

        class Boom(Exception):
            pass

        def failing(trial, pair, present, unions, n):
            in_caller = threading.get_ident() == caller
            calls.append(in_caller)
            if in_caller == (raiser == "caller"):
                raised.set()
                raise Boom
            assert raised.wait(10.0)
            time.sleep(0.05)  # the raising worker leaves run_chunks meanwhile
            return np.zeros(unions)

        monkeypatch.setattr(montecarlo, "lambda2s_from_pairs", failing)
        cfg = McConfig(ModelParams(200, 0.007), num_graphs=4, trials=1040, master_seed=1,
                       workers=2)
        with pytest.raises(Boom):
            run_mc(cfg)
        assert sorted(calls) == [False, True]


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        cfg = McConfig(ModelParams(12, 0.3), num_graphs=3, trials=400, master_seed=99)
        assert run_mc(cfg) == run_mc(cfg)

    @pytest.mark.parametrize("workers", [2, 4, 16])
    def test_worker_count_does_not_change_results(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 16)
        # at (5, 0.5, 1) the present pairs are sampled, and a quarter of the
        # unions have a node of degree n - 1 and are solved in full
        for cfg in (McConfig(ModelParams(14, 0.25), 2, 2000, 12345),
                    McConfig(ModelParams(5, 0.5), 1, 4000, 12345)):
            assert run_mc(dataclasses.replace(cfg, workers=workers)) == run_mc(cfg)

    def test_worker_count_does_not_change_results_without_dsyevr(self, monkeypatch):
        # without dsyevr every solve goes to eigvalsh, whose bits depend on
        # the BLAS thread count from about n = 220; eigenvalue_at runs each
        # such solve on one BLAS thread, with one worker or two
        controls = spectral._openblas_thread_controls()
        if controls is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        monkeypatch.setattr(spectral, "_dsyevr", lambda: None)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        get, set_ = controls
        saved = get()
        set_(2)
        try:
            cfg = McConfig(ModelParams(250, 0.05), num_graphs=2, trials=30, master_seed=7)
            assert run_mc(dataclasses.replace(cfg, workers=2)) == run_mc(cfg)
        finally:
            set_(saved)

    def test_many_blocks_match_one_block(self, monkeypatch):
        base = run_mc(THRESHOLD_CONFIG)
        pairs = THRESHOLD_CONFIG.params.num_pairs
        monkeypatch.setattr(montecarlo, "_CHUNK_PAIRS", 7 * pairs)  # 43 blocks of <= 7
        for workers in (1, 2, 4):
            assert run_mc(dataclasses.replace(THRESHOLD_CONFIG, workers=workers)) == base

    def test_top_up_rounds_change_nothing(self, monkeypatch):
        # three draws per round leave almost every stream unfinished, so the
        # sampler runs many top-up rounds; masks and estimates stay the same
        seeds = rng.trial_seeds_np(5, 0, 40)
        ps = (1e-300, 0.05, 0.5, 0.9, 1 - 1e-12)
        masks = [edge_masks(seeds, 190, p) for p in ps]
        configs = (THRESHOLD_CONFIG, DENSE_CONFIG)
        estimates = [run_mc(cfg) for cfg in configs]
        monkeypatch.setattr(rng, "_overdraw", lambda mean, num_pairs: 3)
        for p, mask in zip(ps, masks):
            assert np.array_equal(edge_masks(seeds, 190, p), mask)
        assert [run_mc(cfg) for cfg in configs] == estimates

    def test_many_chunks_match_one_chunk(self, monkeypatch):
        cfg = McConfig(ModelParams(10, 0.6), num_graphs=1, trials=5000, master_seed=1)
        _assert_many_chunks_match_one_chunk(monkeypatch, cfg)

    def test_many_chunks_match_one_chunk_near_complete(self, monkeypatch):
        # p_hat = 0.9375: 2 % of the unions are solved in full, the rest on
        # complements of 16 to 29 nodes, so that chunks differ in their
        # largest |S|, where padding a chunk's solves to it would show
        cfg = McConfig(ModelParams(30, 0.5), num_graphs=4, trials=2000, master_seed=1)
        _assert_many_chunks_match_one_chunk(monkeypatch, cfg)


def _assert_many_chunks_match_one_chunk(monkeypatch, cfg):
    """One chunk and chunks of <= 37 trials on 1 or 2 workers give equal results."""
    n, pairs = cfg.params.n, cfg.params.num_pairs
    monkeypatch.setattr(montecarlo, "_CHUNK_PAIRS", cfg.trials * pairs)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", cfg.trials * n * n)
    counts = _count_blocks(monkeypatch)
    base = run_mc(cfg)
    assert counts == [(0, cfg.trials)]
    monkeypatch.setattr(montecarlo, "_CHUNK_PAIRS", 37 * pairs)
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 37 * n * n)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    for workers in (1, 2):
        counts.clear()
        assert run_mc(dataclasses.replace(cfg, workers=workers)) == base
        assert len(counts) == -(-cfg.trials // 37)


def _count_blocks(monkeypatch) -> list[tuple[int, int]]:
    """Record (first trial, trial count) of each chunk run_mc seeds from now on."""
    counts = []
    trial_seeds_np = rng.trial_seeds_np

    def counting(master_seed, start, count):
        counts.append((start, count))
        return trial_seeds_np(master_seed, start, count)

    monkeypatch.setattr(rng, "trial_seeds_np", counting)
    return counts


class _RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, runs each
    submitted call inline."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """max_workers of each pool run_mc makes from now on; no thread is started."""
    sizes = []
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                        lambda max_workers: _RecordingExecutor(sizes, max_workers))
    return sizes


class TestChunks:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chunks_do_not_depend_on_workers(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        counts = _count_blocks(monkeypatch)
        base = run_mc(THRESHOLD_CONFIG)
        base_counts = sorted(counts)
        counts.clear()
        est = run_mc(dataclasses.replace(THRESHOLD_CONFIG, workers=workers))
        assert sorted(counts) == base_counts
        assert len(base_counts) > 4
        assert sum(c for _, c in base_counts) == THRESHOLD_CONFIG.trials
        assert est == base

    def test_fewer_trials_than_workers(self, monkeypatch, pool_sizes):
        cfg = McConfig(ModelParams(12, 0.3), num_graphs=2, trials=3, master_seed=4)
        base = run_mc(cfg)
        counts = _count_blocks(monkeypatch)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        assert run_mc(dataclasses.replace(cfg, workers=4)) == base
        assert [c for _, c in counts] == [3]
        assert pool_sizes == []  # a pool of one thread is the serial loop

    def test_pair_cap_caps_the_chunk(self, monkeypatch):
        pairs = THRESHOLD_CONFIG.params.num_pairs
        monkeypatch.setattr(montecarlo, "_CHUNK_PAIRS", 5 * pairs)
        counts = _count_blocks(monkeypatch)
        run_mc(THRESHOLD_CONFIG)
        assert max(c for _, c in counts) == 5
        assert sum(c for _, c in counts) == THRESHOLD_CONFIG.trials

    @pytest.mark.parametrize("cpus", [1, 3, 1000])
    def test_pool_is_capped_at_usable_cpus_and_chunks(self, monkeypatch, pool_sizes, cpus):
        # n=6, p_hat = 1/2: f = (31/32)**6 of the unions may be solved in
        # full, so chunks of 2**16 / (36 f) = 2202 trials, and 46 chunks
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        counts = _count_blocks(monkeypatch)
        cfg = McConfig(ModelParams(6, 0.5), 1, trials=100_000, master_seed=7,
                       workers=100_000)
        run_mc(cfg)
        chunks = len(counts)
        assert chunks == 46
        size = min(cfg.workers, chunks, cpus)
        # the calling thread is one of the size workers
        assert pool_sizes == ([] if size == 1 else [size - 1])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_calling_thread_runs_chunks_beside_helpers(self, monkeypatch, workers):
        # W workers are the calling thread and W - 1 started threads
        pairs = THRESHOLD_CONFIG.params.num_pairs
        monkeypatch.setattr(montecarlo, "_CHUNK_PAIRS", 7 * pairs)  # 43 chunks of <= 7
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)
        base = run_mc(THRESHOLD_CONFIG)
        started, on_main = [], []
        start, trial_seeds_np = threading.Thread.start, rng.trial_seeds_np

        def counting_start(thread):
            started.append(thread)
            start(thread)

        def recording(master_seed, first, count):
            on_main.append(threading.current_thread() is threading.main_thread())
            return trial_seeds_np(master_seed, first, count)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(rng, "trial_seeds_np", recording)
        assert run_mc(dataclasses.replace(THRESHOLD_CONFIG, workers=workers)) == base
        assert len(on_main) == 43
        assert len(started) == workers - 1
        assert any(on_main)

    def test_each_chunk_runs_once_under_thread_switching(self, monkeypatch):
        # six workers on two cores switching every microsecond share the one
        # iterator of chunk starts: none is skipped or taken twice
        pairs = THRESHOLD_CONFIG.params.num_pairs
        monkeypatch.setattr(montecarlo, "_CHUNK_PAIRS", 7 * pairs)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 6)
        base = run_mc(THRESHOLD_CONFIG)
        counts = _count_blocks(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = run_mc(dataclasses.replace(THRESHOLD_CONFIG, workers=6))
        finally:
            sys.setswitchinterval(interval)
        trials = THRESHOLD_CONFIG.trials
        assert sorted(counts) == [(start, min(7, trials - start))
                                  for start in range(0, trials, 7)]
        assert est == base

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        assert montecarlo._usable_cpus() >= 1
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert montecarlo._usable_cpus() == 3
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity")  # no affinity mask
        assert montecarlo._usable_cpus() == 8
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo._usable_cpus() == 1

    @pytest.mark.parametrize("shape, trials, chunk", [
        ((50, 0.1, 50), 136, 136),  # certified regime: bounded by the pairs alone
        ((50, 0.1, 50), 10_000, 2**18 // 1225),
        ((200, 0.007, 4), 104, 2**18 // 19900),  # the pair cap, below the 16-trial floor
        ((50, 0.5, 1), 200, 26),
        ((40, 0.05, 2), THRESHOLD_CONFIG.trials, 40),
        ((30, 0.5, 4), 2000, 2**18 // 435),
    ])
    def test_chunk_rule(self, shape, trials, chunk):
        n, p, num_graphs = shape
        p_hat, _ = ModelParams(n, p).effective_probabilities(num_graphs)
        assert montecarlo._chunk_trials(n, p_hat, trials) == chunk

    @pytest.mark.parametrize("shape", [
        (50, 0.5, 52),  # p_hat = 1 - 2**-52: f underflows to 0
        (2, 0.5, 52),
        (2, 4e-320, 1),
        (50, 4e-320, 1),
    ])
    def test_chunk_rule_at_extreme_probabilities(self, shape):
        n, p, num_graphs = shape
        p_hat, _ = ModelParams(n, p).effective_probabilities(num_graphs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chunk = montecarlo._chunk_trials(n, p_hat, 10**9)
            est = run_mc(McConfig(ModelParams(n, p), num_graphs, trials=20, master_seed=1))
        assert est.trials == 20
        assert isinstance(chunk, int) and chunk >= 16
        assert chunk <= montecarlo._CHUNK_PAIRS // (n * (n - 1) // 2)

    def test_pair_cap_holds_at_every_size(self):
        # a chunk of two or more unions holds at most _CHUNK_PAIRS pairs, also
        # where 16 unions would exceed them (n >= 182)
        for n in range(2, 2001):
            pairs = n * (n - 1) // 2
            for p_hat in (1e-300, 1e-3, 0.0277, 0.5, 0.9, 1 - 2**-52):
                for trials in (1, 104, 10**9):
                    chunk = montecarlo._chunk_trials(n, p_hat, trials)
                    assert chunk == 1 or chunk * pairs <= montecarlo._CHUNK_PAIRS

    def test_large_union_peak_memory(self):
        # n = 400: chunks of 3 unions of 79,800 pairs each, not 16
        cfg = McConfig(ModelParams(400, 0.5), 1, trials=32, master_seed=1)
        tracemalloc.start()
        try:
            est = run_mc(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.trials == 32
        assert peak <= 10 * 2**20


class TestFullSolveSlices:
    # p_hat = 0.875: about half the unions are solved in full
    MIXED_CONFIG = McConfig(ModelParams(30, 0.5), num_graphs=3, trials=300, master_seed=6)

    @staticmethod
    def _record_full_solves(monkeypatch, n) -> list[int]:
        """Number of n x n matrices in each eigvalsh call from now on."""
        stacks = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a):
            if a.shape[-1] == n:
                stacks.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        return stacks

    # DENSE_CONFIG solves no union in full: its slices must leave the complement solves alone
    @pytest.mark.parametrize("cfg", [THRESHOLD_CONFIG, DENSE_CONFIG, MIXED_CONFIG])
    def test_slices_of_three_match(self, monkeypatch, cfg):
        base = run_mc(cfg)
        stacks = self._record_full_solves(monkeypatch, cfg.params.n)
        monkeypatch.setattr(montecarlo, "_slice_matrices", lambda n: 3)
        assert run_mc(cfg) == base
        assert all(rows <= 3 for rows in stacks)

    def test_stack_never_exceeds_a_slice(self, monkeypatch):
        # 200 unions at p = 1/2, every one solved in full, in one batch
        n = 30
        seeds = rng.trial_seeds_np(3, 0, 200)
        masks = edge_masks(seeds, n * (n - 1) // 2, 0.5)
        degrees = _degrees(masks, n)
        assert ((degrees > 0) & (degrees < n - 1)).all()
        stacks = self._record_full_solves(monkeypatch, n)
        got = _lambda2s(masks, degrees)
        step = montecarlo._slice_matrices(n)
        assert step == 2**16 // (n * n) < 200
        assert stacks == [step, step, 200 - 2 * step]
        monkeypatch.undo()
        assert np.array_equal(got, np.linalg.eigvalsh(_reference_laplacians(masks, n))[:, 1])


class TestOneBlasThreadInPool:
    # below DSYEVR_MIN_N rows no solve sets the BLAS thread count, with or
    # without a pool; TestAboveTheCutoff covers the one-thread hold
    @staticmethod
    def _record_solves(monkeypatch, get, fail=False):
        """(in main thread, BLAS thread count) at each eigvalsh call from now on."""
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a):
            seen.append((threading.current_thread() is threading.main_thread(), get()))
            if fail:
                raise RuntimeError("solver failed")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        return seen

    @staticmethod
    def _assert_pool_keeps_the_thread_count(monkeypatch, get, fail, config):
        seen = TestOneBlasThreadInPool._record_solves(monkeypatch, get, fail)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        cfg = dataclasses.replace(config, workers=2)
        if fail:
            with pytest.raises(RuntimeError):
                run_mc(cfg)
        else:
            run_mc(cfg)
        # no solve reaches DSYEVR_MIN_N rows, so every one, the calling
        # thread's too, reads the caller's count, as in the serial path
        assert seen and all(count == 2 for _, count in seen)
        assert get() == 2

    @pytest.mark.parametrize("fail", [False, True])
    def test_pool_keeps_the_thread_count(self, monkeypatch, blas_get_at_two_threads, fail):
        self._assert_pool_keeps_the_thread_count(monkeypatch, blas_get_at_two_threads, fail,
                                                 THRESHOLD_CONFIG)

    @pytest.mark.parametrize("fail", [False, True])
    def test_pool_complement_solves_keep_the_thread_count(self, monkeypatch,
                                                          blas_get_at_two_threads, fail):
        # DENSE_CONFIG is one chunk at the default pair budget; make it three
        monkeypatch.setattr(montecarlo, "_CHUNK_PAIRS", 100 * DENSE_CONFIG.params.num_pairs)
        self._assert_pool_keeps_the_thread_count(monkeypatch, blas_get_at_two_threads, fail,
                                                 DENSE_CONFIG)

    def test_serial_path_keeps_the_thread_count(self, monkeypatch, blas_get_at_two_threads):
        seen = self._record_solves(monkeypatch, blas_get_at_two_threads)
        run_mc(THRESHOLD_CONFIG)
        assert seen and seen == [(True, 2)] * len(seen)

    def test_serial_complement_solves_keep_the_thread_count(self, monkeypatch,
                                                            blas_get_at_two_threads):
        seen = self._record_solves(monkeypatch, blas_get_at_two_threads)
        run_mc(DENSE_CONFIG)
        assert seen and seen == [(True, 2)] * len(seen)


def _record_seam(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """(stack shape, k) of each eigenvalue_at call of montecarlo from now on."""
    calls = []
    seam = montecarlo.eigenvalue_at

    def recording(stack, k):
        calls.append((stack.shape, k))
        return seam(stack, k)

    monkeypatch.setattr(montecarlo, "eigenvalue_at", recording)
    return calls


class TestAboveTheCutoff:
    @pytest.mark.parametrize("cfg", ABOVE_CUTOFF_CONFIGS)
    def test_worker_count_does_not_change_results(self, monkeypatch, blas_get_at_two_threads,
                                                  cfg):
        # every run starts at two BLAS threads; eigenvalue_at holds one for
        # each solve of DSYEVR_MIN_N rows or more
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        base, *others = [run_mc(dataclasses.replace(cfg, workers=workers))
                         for workers in (1, 2, 3)]
        assert others == [base, base]

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_solves_run_on_one_blas_thread_and_restore(self, monkeypatch, record_dsyevr,
                                                       blas_get_at_two_threads, workers, fail):
        get = blas_get_at_two_threads
        seen = record_dsyevr(get, fail)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        cfg = dataclasses.replace(ABOVE_CUTOFF_CONFIGS[1], workers=workers)
        if fail:
            with pytest.raises(RuntimeError):
                run_mc(cfg)
        else:
            run_mc(cfg)
        assert seen and all(count == 1 for _, count in seen)
        if workers == 1:
            assert all(main for main, _ in seen)
        assert get() == 2

    def test_slice_rule(self):
        # about 512 KB of n x n entries, or one matrix where that is larger
        for n in (182, 200, 400):
            assert montecarlo._slice_matrices(n) == 1
        assert montecarlo._slice_matrices(181) == 2
        assert montecarlo._slice_matrices(100) == 2**16 // 100**2 == 6
        assert montecarlo._slice_matrices(DSYEVR_MIN_N) == 2**16 // DSYEVR_MIN_N**2 == 20
        # below the cutoff, for batched eigvalsh: at least 21 matrices
        assert montecarlo._slice_matrices(DSYEVR_MIN_N - 1) == 2**16 // (DSYEVR_MIN_N - 1)**2 == 21
        assert montecarlo._slice_matrices(10) == 655
        assert montecarlo._slice_matrices(2) == 16384

    @pytest.mark.parametrize("cfg", ABOVE_CUTOFF_CONFIGS[:2])
    def test_slices_of_one_match(self, monkeypatch, cfg):
        # one union per slice at n = 200; slices of one and of three give the
        # default's bits
        n = cfg.params.n
        calls = _record_seam(monkeypatch)
        base = run_mc(cfg)
        stacks = [shape[0] for shape, k in calls if shape[-1] == n]
        assert max(stacks) == montecarlo._slice_matrices(n) == (1 if n == 200 else 6)
        for size in (1, 3):
            calls.clear()
            monkeypatch.setattr(montecarlo, "_slice_matrices", lambda n, size=size: size)
            assert run_mc(cfg) == base
            stacks = [shape[0] for shape, k in calls if shape[-1] == n]
            assert max(stacks) == size

    def test_full_solve_is_the_reference_laplacian_bit_for_bit(self):
        cfg = ABOVE_CUTOFF_CONFIGS[1]
        n = cfg.params.n
        p_hat, _ = cfg.params.effective_probabilities(cfg.num_graphs)
        masks = edge_masks(rng.trial_seeds_np(cfg.master_seed, 0, cfg.trials),
                               cfg.params.num_pairs, p_hat)
        degrees = _degrees(masks, n)
        full = ((degrees >= 1) & (degrees <= n - 2)).all(axis=1)
        assert full.sum() > montecarlo._slice_matrices(n)
        got = _lambda2s(masks, degrees)
        assert (got[full] == eigenvalue_at(_reference_laplacians(masks[full], n), 2)).all()


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
        # a disconnected union solved in full gets 0.0 too, not the solver's noise
        expected[expected <= EPS_ZERO] = 0.0

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


def _complete_minus(n, removed):
    """Edge mask over the lexicographic pairs of K_n without the removed edges."""
    adj = np.ones((n, n), dtype=np.uint8)
    for i, j in removed:
        adj[i, j] = adj[j, i] = 0
    return adj[pair_arrays(n)]


def _adjacency(masks, n):
    """Adjacency matrices of a batch of edge masks over the lexicographic pairs."""
    adj = np.zeros((len(masks), n, n), dtype=np.int64)
    i, j = pair_arrays(n)
    adj[:, i, j] = adj[:, j, i] = masks
    return adj


def _degrees(masks, n):
    """Node degrees of each union in a batch of edge masks over the lexicographic pairs."""
    return _adjacency(masks, n).sum(axis=2)


def _reference_laplacians(masks, n):
    """-A with -0.0 for an absent pair and the degrees on the diagonal."""
    adj = _adjacency(masks, n)
    lap = np.where(adj == 1, -1.0, -0.0)
    nodes = np.arange(n)
    lap[:, nodes, nodes] = adj.sum(axis=2)
    return lap


def _lambda2s(masks, degrees, present=True):
    """lambda2s_from_pairs of a batch of edge masks, from its pairs in the given state."""
    trial, pair = np.nonzero(masks if present else 1 - masks)
    return lambda2s_from_pairs(trial, pair, present, *degrees.shape)


def _solve_atol(mask, n):
    """Tolerance on the lambda_2 of a union solved from its missing pairs:
    16 eps ||M|| for the matrix M it is solved on, where ||M|| <= 2 rows. M is
    the complement's Laplacian on S when some node has degree n - 1, taken
    here on every node the complement touches, which bounds it whichever
    isolated edges S leaves out, else the n x n Laplacian; LAPACK's eigenvalue
    error is a small multiple of eps ||M|| (4.5e-13 for the 200-node star,
    solved on 199 rows)."""
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[pair_arrays(n)] = mask
    degrees = (adj + adj.T).sum(axis=1)
    rows = np.count_nonzero(degrees < n - 1) if (degrees == n - 1).any() else n
    return 16 * np.finfo(float).eps * 2 * max(rows, 1)


def _reduced_s(comp):
    """S of a complement solve, from the complement's Laplacian: the nodes the
    complement touches, less those of its isolated edges; when the complement
    is a matching, the edge at its lowest node stays."""
    degree = np.diag(comp)
    s = np.flatnonzero(degree > 0).tolist()
    partner = {x: int(np.flatnonzero(comp[x] < 0)[0]) for x in s if degree[x] == 1}
    isolated = {x for x, y in partner.items() if degree[y] == 1}
    if s and degree.max() == 1:
        isolated -= {s[0], partner[s[0]]}
    return [x for x in s if x not in isolated]


CLOSED_FORM_NS = [3, 4, 5, 12, 50, 51, 200]


def _closed_forms(family, n):
    """(edge mask, lambda_2) of K_n minus each member of a subgraph family."""
    if family == "one edge":
        return [(_complete_minus(n, [(0, n - 1)]), n - 2.0)]
    if family == "star":  # K_{1,s}: lambda_max of the complement is s + 1
        return [(_complete_minus(n, [(0, v) for v in range(1, 1 + s)]), n - s - 1.0)
                for s in sorted({1, 2, n // 2, n - 2}) if 1 <= s <= n - 2]
    if family == "path":  # P_k: lambda_max of the complement is 2 + 2cos(pi/k)
        return [(_complete_minus(n, [(v, v + 1) for v in range(k - 1)]),
                 n - 2 - 2 * math.cos(math.pi / k))
                for k in sorted({2, 3, n // 2, n - 1, n} - {1})]
    if family == "perfect matching":  # at odd n the last node stays unmatched
        return [(_complete_minus(n, [(2 * v, 2 * v + 1) for v in range(n // 2)]), n - 2.0)]
    raise ValueError(family)


def _full_solves(masks, n):
    """lambda_2 of each union solved in full from its reference Laplacian,
    or 0.0 for a union with a node of degree 0."""
    solved = (_degrees(masks, n) > 0).all(axis=1)
    values = np.zeros(len(masks))
    values[solved] = eigenvalue_at(_reference_laplacians(masks[solved], n), 2)
    return values


def _assert_closed_forms(masks, expected, n):
    """lambda_2 of a batch of edge masks from their missing pairs, which solve
    a union with a node of degree n - 1 through its complement, each within
    its solve's tolerance of the closed form; from their present pairs every
    union is the full solve, bit for bit. Returns the former."""
    stacked = np.stack(masks)
    degrees = _degrees(stacked, n)
    got = _lambda2s(stacked, degrees, present=False)
    for mask, want, value in zip(masks, expected, got):
        assert value == pytest.approx(want, abs=_solve_atol(mask, n))
    assert np.array_equal(_lambda2s(stacked, degrees), _full_solves(stacked, n))
    return got


class TestComplementReduction:
    @pytest.mark.parametrize("n", [2] + CLOSED_FORM_NS)
    def test_complete_graph_gives_n(self, monkeypatch, n):
        # K_n misses no pair, so it gets n with no solve; from its present
        # pairs it is solved in full
        mask = _complete_minus(n, [])[None, :]
        degrees = _degrees(mask, n)
        calls = _record_seam(monkeypatch)
        assert _lambda2s(mask, degrees, present=False).tolist() == [float(n)]
        assert calls == []
        assert np.array_equal(_lambda2s(mask, degrees), _full_solves(mask, n))

    @pytest.mark.parametrize("family", ["one edge", "star", "path", "perfect matching"])
    @pytest.mark.parametrize("n", CLOSED_FORM_NS)
    def test_complete_graph_minus_subgraph(self, family, n):
        masks, expected = zip(*_closed_forms(family, n))
        _assert_closed_forms(masks, expected, n)

    @pytest.mark.parametrize("n", CLOSED_FORM_NS)
    def test_mixed_batch(self, n):
        # dense unions beside sparse ones and one with an isolated node; each
        # value equals that of the union solved alone, bit for bit
        cases = [(_complete_minus(n, []), float(n))]
        for family in ("one edge", "star", "path", "perfect matching"):
            cases += _closed_forms(family, n)
        path = [(v, v + 1) for v in range(n - 1)]
        cases += [
            (1 - _complete_minus(n, path), line_graph_lambda_min(n)),
            (1 - _complete_minus(n, path + [(0, n - 1)]), 2 - 2 * math.cos(2 * math.pi / n)),
            (1 - _complete_minus(n, [(0, v) for v in range(1, n)]), 1.0),  # the star
            (1 - _complete_minus(n, path[1:]), 0.0),  # node 0 isolated
        ]
        masks, expected = zip(*cases)
        got = _assert_closed_forms(masks, expected, n)
        assert got[-1] == 0.0
        stacked = np.stack(masks)
        degrees = _degrees(stacked, n)
        for present in (False, True):
            alone = np.concatenate([_lambda2s(m[None, :], _degrees(m[None, :], n), present)
                                    for m in masks])
            assert np.array_equal(_lambda2s(stacked, degrees, present), alone)

    @pytest.mark.parametrize("family, rows", [("matching", 2), ("path", 3), ("star", 4)])
    @pytest.mark.parametrize("n", [12, 50, 51, 200])
    def test_isolated_complement_edges_are_left_out(self, monkeypatch, family, rows, n):
        # K_n minus a subgraph whose isolated edges cannot hold lambda_max:
        # a matching, which keeps one edge, P_3 beside disjoint edges, and
        # K_{1,3} beside two; the last node keeps degree n - 1
        if family == "matching":
            removed = [(2 * v, 2 * v + 1) for v in range((n - 1) // 2)]
            want = n - 2.0
        elif family == "path":
            removed = [(0, 1), (1, 2)] + [(2 * v + 3, 2 * v + 4) for v in range((n - 4) // 2)]
            want = n - 3.0
        else:
            removed = [(0, 1), (0, 2), (0, 3), (4, 5), (6, 7)]
            want = n - 4.0
        mask = _complete_minus(n, removed)
        calls = _record_seam(monkeypatch)
        got = _assert_closed_forms([mask], [want], n)
        # from the missing pairs, one solve on the component that holds
        # lambda_max alone; from the present ones, one full solve
        assert calls == [((1, rows, rows), rows), ((1, n, n), 2)]
        assert got.tolist() == [want]

    def test_rows_per_solve_at_the_certified_regime(self, monkeypatch):
        # p_hat = 0.995: a union misses about 6 pairs, most of them isolated
        # edges of its complement; solved on every node the complement
        # touches, a union would take about 11 rows, and it takes about 4
        cfg = McConfig(ModelParams(50, 0.1), num_graphs=50, trials=136, master_seed=1)
        calls = _record_seam(monkeypatch)
        run_mc(cfg)
        solves = [shape for shape, k in calls if shape[-1] < cfg.params.n]
        unions = sum(shape[0] for shape in solves)
        assert unions >= cfg.trials * 0.9
        assert sum(shape[0] * shape[-1] for shape in solves) / unions <= 5


class TestComplementShortcut:
    @pytest.mark.parametrize("cfg", [
        # p_hat = 0.875: some unions have a node of degree n - 1, some do not
        McConfig(ModelParams(30, 0.5), num_graphs=3, trials=300, master_seed=6),
        DENSE_CONFIG,
    ])
    def test_no_full_solve_for_unions_with_a_universal_node(self, monkeypatch, cfg):
        params = cfg.params
        n = params.n
        graphs = [sample_union(params, cfg.num_graphs, trial_seed(cfg.master_seed, t))
                  for t in range(cfg.trials)]
        degrees = [np.diag(laplacian(g)) for g in graphs]
        universal = sum(bool((d == n - 1).any()) for d in degrees)
        solved_in_full = sum(bool((d > 0).all() and (d < n - 1).all()) for d in degrees)
        assert universal >= cfg.trials / 4
        expected = np.array([lambda2(laplacian(g)) for g in graphs])

        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a):
            sizes.extend([a.shape[-1]] * (a.shape[0] if a.ndim == 3 else 1))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        est = run_mc(cfg)
        assert sizes.count(n) == solved_in_full
        # every union with a node of degree n - 1 has one solve on fewer
        # than n rows, except the complete graph, which has none
        complete = sum(bool((d == n - 1).all()) for d in degrees)
        assert len(sizes) - solved_in_full == universal - complete

        mean = float(np.sum(expected)) / cfg.trials
        var = float(np.sum((expected - mean) ** 2)) / (cfg.trials - 1)
        assert est.mean_lambda2 == pytest.approx(mean, rel=1e-12)
        assert est.var_lambda2 == pytest.approx(var, rel=1e-12)
        assert est.prob_connected == sum(map(is_connected_bfs, graphs)) / cfg.trials


# p_hat <= 1/2: the sampled pairs are the present ones, and a union with a
# node of degree n - 1 is rare (about 1.5 % and 1e-4 of them)
PRESENT_UNIVERSAL_SHAPES = [(6, 0.3, 1, 10_000), (8, 0.2, 1, 1_000_000)]


@functools.lru_cache(maxsize=None)
def _universal_masks(n, p, num_graphs, trials):
    """Edge masks of the unions with a node of degree n - 1 among trials
    0..trials-1 of seed 6; trial t is sample_union(params, N, trial_seed(6, t))."""
    params = ModelParams(n, p)
    p_hat, _ = params.effective_probabilities(num_graphs)
    kept = []
    for start in range(0, trials, 20_000):
        seeds = rng.trial_seeds_np(6, start, min(20_000, trials - start))
        masks = edge_masks(seeds, params.num_pairs, p_hat)
        kept.append(masks[(_degrees(masks, n) == n - 1).any(axis=1)])
    masks = np.concatenate(kept)
    masks.flags.writeable = False
    return masks


class TestDegreeFirstSolve:
    @pytest.mark.parametrize("cfg", [
        DENSE_CONFIG,
        McConfig(ModelParams(30, 0.5), num_graphs=3, trials=300, master_seed=6),
        THRESHOLD_CONFIG,
    ])
    def test_n_node_laplacians_only_for_unions_solved_in_full(self, monkeypatch, cfg):
        n = cfg.params.n
        p_hat, _ = cfg.params.effective_probabilities(cfg.num_graphs)
        seeds = rng.trial_seeds_np(cfg.master_seed, 0, cfg.trials)
        masks = edge_masks(seeds, cfg.params.num_pairs, p_hat)
        degrees = _degrees(masks, n)
        solved_in_full = int(((degrees >= 1) & (degrees <= n - 2)).all(axis=1).sum())
        assert solved_in_full < cfg.trials

        calls = []
        builder = montecarlo.laplacians_from_pairs

        def recording(batch, a, b, present, rows, size):
            calls.append((rows, size))
            return builder(batch, a, b, present, rows, size)

        monkeypatch.setattr(montecarlo, "laplacians_from_pairs", recording)
        _lambda2s(masks, degrees, present=not rng.missing_is_rare(p_hat))
        assert sum(rows for rows, size in calls if size == n) == solved_in_full

    @pytest.mark.parametrize("shape", [(30, 0.5, 3, 1000), (10, 0.6, 1, 1000)]
                             + PRESENT_UNIVERSAL_SHAPES)
    def test_complement_solve_is_the_submatrix_formula_bit_for_bit(self, shape):
        n = shape[0]
        p_hat, _ = ModelParams(n, shape[1]).effective_probabilities(shape[2])
        masks = _universal_masks(*shape)
        degrees = _degrees(masks, n)
        got = _lambda2s(masks, degrees, present=False)
        # from their present pairs the same unions are solved in full
        assert np.array_equal(_lambda2s(masks, degrees), _full_solves(masks, n))

        reduced = 0
        for mask, lap, value in zip(masks, _reference_laplacians(masks, n), got):
            comp = n * np.eye(n) - np.ones((n, n)) - lap
            s = _reduced_s(comp)
            want = n - np.linalg.eigvalsh(comp[s][:, s])[-1] if s else float(n)
            assert value == want
            # the S of every node the complement touches gives the same value
            # within the solver's tolerance
            s_full = np.flatnonzero(np.diag(comp) > 0)
            reduced += len(s) < len(s_full)
            if s_full.size:
                old = n - np.linalg.eigvalsh(comp[s_full][:, s_full])[-1]
                assert value == pytest.approx(old, abs=_solve_atol(mask, n))
        assert len(masks) >= 50
        if p_hat > 0.8:  # 20 of the 447 unions at p_hat = 0.875 leave out an edge
            assert reduced > 0

    @pytest.mark.parametrize("shape", PRESENT_UNIVERSAL_SHAPES)
    def test_present_state_solves_universal_unions_in_full(self, monkeypatch, shape):
        n = shape[0]
        masks = _universal_masks(*shape)
        calls = _record_seam(monkeypatch)
        got = _lambda2s(masks, _degrees(masks, n))
        assert np.array_equal(got, np.linalg.eigvalsh(_reference_laplacians(masks, n))[:, 1])
        assert calls and all(stack[-1] == n for stack, k in calls)

    @pytest.mark.parametrize("present", [True, False])
    def test_unions_that_list_no_pair(self, present):
        # the last unions list no pair: from their missing pairs they are
        # complete graphs, from their present ones empty graphs, so the
        # union count cannot come from the listed pairs
        n = 6
        masks = edge_masks(rng.trial_seeds_np(3, 0, 40), n * (n - 1) // 2, 0.5)
        tail = np.full((3, masks.shape[1]), 0 if present else 1, dtype=masks.dtype)
        batch = np.concatenate([masks, tail])
        got = _lambda2s(batch, _degrees(batch, n), present)
        assert np.array_equal(got[:len(masks)], _lambda2s(masks, _degrees(masks, n), present))
        assert got[len(masks):].tolist() == [0.0 if present else float(n)] * 3
        none = np.array([], dtype=np.int64)
        got = lambda2s_from_pairs(none, none, present, 3, n)
        assert got.tolist() == [0.0 if present else float(n)] * 3

    def test_complement_solve_peak_memory(self):
        # one chunk of (30, 0.5, 4): p_hat = 0.9375, and almost every union
        # is solved on its complement, of up to 29 nodes
        n = 30
        p_hat, _ = ModelParams(n, 0.5).effective_probabilities(4)
        chunk = montecarlo._chunk_trials(n, p_hat, 2000)
        assert chunk == 602
        masks = edge_masks(rng.trial_seeds_np(1, 0, chunk), n * (n - 1) // 2, p_hat)
        degrees = _degrees(masks, n)
        universal = (degrees == n - 1).any(axis=1)
        size_max = (degrees[universal] < n - 1).sum(axis=1).max()
        # the padded stack of complement Laplacians, |S| x |S| float64 entries
        # for the largest |S|
        stack = int(universal.sum()) * size_max**2 * 8
        trial, pair = np.nonzero(1 - masks)
        want = lambda2s_from_pairs(trial, pair, False, len(masks), n)
        tracemalloc.start()
        try:
            got = lambda2s_from_pairs(trial, pair, False, len(masks), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 2 * stack

    def test_full_solve_peak_memory(self):
        # one chunk of the benchmark's threshold shape (200, 0.007, 4), about
        # half of whose unions are solved in full, one n x n Laplacian at a time
        n = 200
        p_hat, _ = ModelParams(n, 0.007).effective_probabilities(4)
        chunk = montecarlo._chunk_trials(n, p_hat, 104)
        masks = edge_masks(rng.trial_seeds_np(1, 0, chunk), n * (n - 1) // 2, p_hat)
        degrees = _degrees(masks, n)
        assert ((degrees > 0) & (degrees < n - 1)).all(axis=1).sum() >= 5
        trial, pair = np.nonzero(masks)
        # also makes this thread's dsyevr workspace, which outlives the call
        want = lambda2s_from_pairs(trial, pair, True, len(masks), n)
        tracemalloc.start()
        try:
            got = lambda2s_from_pairs(trial, pair, True, len(masks), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 1.5 * n * n * 8

    @pytest.mark.parametrize("cfg", [
        THRESHOLD_CONFIG,
        # p_hat = 0.875: the missing pairs are sampled, and about half the
        # unions are still solved in full
        McConfig(ModelParams(30, 0.5), num_graphs=3, trials=300, master_seed=6),
    ])
    def test_full_solve_is_the_reference_laplacian_bit_for_bit(self, cfg):
        n = cfg.params.n
        p_hat, _ = cfg.params.effective_probabilities(cfg.num_graphs)
        seeds = rng.trial_seeds_np(cfg.master_seed, 0, cfg.trials)
        masks = edge_masks(seeds, cfg.params.num_pairs, p_hat)
        degrees = _degrees(masks, n)
        full = ((degrees >= 1) & (degrees <= n - 2)).all(axis=1)
        assert full.sum() >= cfg.trials / 4
        got = _lambda2s(masks, degrees, present=not rng.missing_is_rare(p_hat))
        want = np.linalg.eigvalsh(_reference_laplacians(masks[full], n))[:, 1]
        # with the solver's noise on a disconnected union taken as 0.0
        want[want <= EPS_ZERO] = 0.0
        assert (got[full] == want).all()


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
        # Table-1 cell n=100, p=1e-5, N_min=110539: one G(n, p_hat) sample
        # keeps a trial within 4950 pairs however many graphs the union holds
        params = ModelParams(100, 1e-5)
        est = run_mc(McConfig(params, 110539, trials=64, master_seed=110539))
        rep = bound_report(params, 110539)
        assert rep.e_lambda2_lower <= est.mean_lambda2 <= rep.e_lambda2_upper

    def test_reference_probability_row_validated(self):
        # 50-fold union at (n=50, p=0.1): certified lower bound is 0.810
        est = run_mc(McConfig(ModelParams(50, 0.1), 50, trials=100_000, master_seed=1))
        assert est.prob_ge_lambda_min >= 0.810


def _gilbert_prob_connected(n, p_hat):
    """Exact P[G(n, p_hat) is connected] by Gilbert's (1959) recurrence
    P_m = 1 - sum_{k<m} C(m-1, k-1) q^(k(m-k)) P_k, P_1 = 1, in 60 digits."""
    with mp.workdps(60):
        q = 1 - mp.mpf(p_hat)
        conn = [None, mp.mpf(1)]
        for m in range(2, n + 1):
            conn.append(1 - mp.fsum(mp.binomial(m - 1, k - 1) * q ** (k * (m - k)) * conn[k]
                                    for k in range(1, m)))
        return float(conn[n])


# (n, p, N, trials): threshold unions (p_hat near log(n)/n) at n = 10, 30 and
# 60, a sparser one at n = 60 and two with p_hat > 1/2, sampled as missing pairs
GILBERT_SHAPES = [(10, 0.1, 3, 20_000), (10, 0.6, 1, 20_000), (10, 0.3, 3, 20_000),
                  (30, 0.06, 2, 6_000), (60, 0.035, 2, 3_000), (60, 0.05, 1, 3_000)]
# two-sided Bonferroni z: family-wise level 1e-3 over the shapes
GILBERT_Z = NormalDist().inv_cdf(1 - 1e-3 / (2 * len(GILBERT_SHAPES)))


class TestAgainstGilbertRecurrence:
    @pytest.mark.parametrize("n, p, num_graphs, trials", GILBERT_SHAPES)
    def test_prob_connected_matches_exact_value(self, n, p, num_graphs, trials):
        params = ModelParams(n, p)
        p_hat, _ = params.effective_probabilities(num_graphs)
        exact = _gilbert_prob_connected(n, p_hat)
        est = run_mc(McConfig(params, num_graphs, trials, master_seed=1959))
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(est.prob_connected - exact) <= GILBERT_Z * se

    def test_recurrence_matches_enumeration(self):
        for n, p in ((4, 0.3), (6, 0.1), (6, 0.7)):
            exact = enumerate_exact(ModelParams(n, p)).prob_connected
            assert _gilbert_prob_connected(n, p) == pytest.approx(exact, abs=1e-14)


class TestCoverage:
    def test_mean_and_variance_inside_analytic_bounds(self):
        params = ModelParams(10, 0.6)
        est = run_mc(McConfig(params, 1, trials=100_000, master_seed=21))
        rep = bound_report(params, 1)
        assert rep.e_lambda2_lower <= est.mean_lambda2 <= rep.e_lambda2_upper
        assert rep.var_lambda2_lower <= est.var_lambda2 <= rep.var_lambda2_upper

    def test_variance_bounds_at_dense_effective_probability(self):
        params = ModelParams(10, 0.9)
        est = run_mc(McConfig(params, 1, trials=100_000, master_seed=22))
        rep = bound_report(params, 1)
        assert est.var_lambda2 <= rep.var_lambda2_upper
        assert est.var_lambda2 >= rep.var_lambda2_lower


def _bound_within_three_se(config):
    """Run the configuration; return its certified bound after checking that
    the bound exceeds the empirical frequency by at most three binomial
    standard errors."""
    est = run_mc(config)
    bound = bound_report(config.params, config.num_graphs).prob_lower
    emp = est.prob_ge_lambda_min
    se = math.sqrt(max(emp * (1 - emp), 1e-12) / est.trials)
    assert bound <= emp + 3 * se
    return bound


class TestSweep:
    def test_reference_probability_table_sweep(self):
        # five (n=50, N=50) rows: analytic bound never exceeds the empirical
        # frequency by more than three binomial standard errors
        for p in (0.05, 0.10, 0.15, 0.20, 0.25):
            _bound_within_three_se(McConfig(ModelParams(50, p), 50, trials=5000,
                                            master_seed=9))

    def test_deeper_union_sweep_bound_nondecreasing(self):
        bounds = [_bound_within_three_se(McConfig(ModelParams(50, 0.1), num,
                                                  trials=2000, master_seed=10))
                  for num in (25, 50, 75, 100, 125)]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))
