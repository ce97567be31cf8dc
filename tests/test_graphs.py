"""Sampling, unions, Laplacians, connectivity, and serialisation."""
import dataclasses
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erunion import ModelParams, ValidationError, bound_report, rng
from erunion.graphs import laplacians_from_pairs, pair_arrays
from erunion.spectral import EPS_ZERO
from reference import (all_pairs, edge_masks, from_edges, is_connected_bfs, lambda2,
                       laplacian, num_edges, read_edgelist, sample_graph, sample_union,
                       trial_seed, union_graphs, v3_rare_pairs, write_edgelist)


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return from_edges(n, list(all_pairs(n)))


def v3_edges(n, p, seed):
    """Edges of the stream v3 G(n, p) sample with this seed."""
    pairs = all_pairs(n)
    rare = set(v3_rare_pairs(seed, len(pairs), p))
    return [pairs[e] for e in range(len(pairs)) if (e in rare) != (p > 0.5)]


class TestModelParams:
    def test_valid(self):
        mp = ModelParams(10, 0.5)
        assert mp.q == 0.5
        assert mp.num_pairs == 45

    @pytest.mark.parametrize("n,p", [(1, 0.5), (0, 0.5), (2, 0.0), (2, 1.0), (2, -0.1), (2, 1.5),
                                     (2**53 + 1, 0.5)])
    def test_invalid(self, n, p):
        with pytest.raises(ValidationError):
            ModelParams(n, p)

    @pytest.mark.parametrize("p", ["0.5", b"0.5", 0.5 + 0j, np.complex128(0.5), None],
                             ids=["str", "bytes", "complex", "numpy-complex", "None"])
    def test_p_must_be_real(self, p):
        # unchecked, a str p would fail only in bound_report, with a TypeError
        with pytest.raises(ValidationError, match="p must be a real"):
            ModelParams(5, p)

    @pytest.mark.parametrize("p", [0.5, np.float32(0.5), np.float64(0.5)])
    def test_real_p_is_accepted(self, p):
        assert bound_report(ModelParams(5, p), 2) == bound_report(ModelParams(5, 0.5), 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("num_graphs", [1, 3])
    def test_numpy_p_is_kept_as_a_python_float(self, dtype, num_graphs):
        # a float32 p once carried its dtype into bound_report at N = 1:
        # var_lambda2_upper read 13.200001 and the report did not serialise
        p = dtype(0.3)
        params = ModelParams(10, p)
        assert type(params.p) is float
        rep = dataclasses.asdict(bound_report(params, num_graphs))
        want = dataclasses.asdict(bound_report(ModelParams(10, float(p)), num_graphs))
        for name, value in rep.items():
            if isinstance(value, (float, np.floating)):
                assert type(value) is float, name
        assert rep == want
        assert json.loads(json.dumps(rep)) == want

    @pytest.mark.parametrize("num_graphs", [True, False, 0, 2.0])
    def test_union_size_must_be_a_positive_integer(self, num_graphs):
        with pytest.raises(ValidationError):
            ModelParams(5, 0.5).effective_probabilities(num_graphs)

    def test_union_size_beyond_float_range_degenerates(self):
        # N log(1 - p) overflows a float; the message leaves out N's 401 digits
        with pytest.raises(ValidationError, match="degenerates in double precision") as exc:
            ModelParams(5, 0.5).effective_probabilities(10**400)
        assert len(str(exc.value)) <= 120


class TestPairArrays:
    @pytest.mark.parametrize("n", [2, 5, 200])
    def test_int32_in_lexicographic_order(self, n):
        i, j = pair_arrays(n)
        assert i.dtype == j.dtype == np.int32
        want_i, want_j = np.triu_indices(n, 1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)

    def test_cached_arrays_are_read_only(self):
        # every caller shares the cached arrays: a write would move every
        # later caller's pairs
        for index in pair_arrays(5):
            with pytest.raises(ValueError):
                index[0] = 3
        i, j = pair_arrays(5)
        want_i, want_j = np.triu_indices(5, 1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)

    def test_cache_retains_bounded_memory(self):
        # a sweep over 40 n near 400 keeps a few entries of 4 n (n - 1) bytes,
        # not all 40 (28 MB)
        tracemalloc.start()
        try:
            for n in range(400, 440):
                pair_arrays(n)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 8 * 4 * 439 * 438


class TestSampling:
    def test_p_near_one_gives_complete_graph(self):
        g = sample_graph(ModelParams(5, 1.0 - 1e-12), seed=1)
        assert num_edges(g) == 10

    def test_p_near_zero_gives_empty_graph(self):
        g = sample_graph(ModelParams(5, 1e-12), seed=1)
        assert num_edges(g) == 0

    def test_deterministic_for_fixed_seed(self):
        params = ModelParams(12, 0.4)
        assert sample_graph(params, 99) == sample_graph(params, 99)
        assert sample_graph(params, 99) != sample_graph(params, 100)

    def test_union_of_one_is_plain_sample(self):
        params = ModelParams(9, 0.35)
        assert sample_union(params, 1, 4242) == sample_graph(params, 4242)

    def test_union_sampler_matches_scalar_v3_reference(self):
        # p_hat = 0.3, 0.76 and 0.88: the present-pair and missing-pair states
        params = ModelParams(7, 0.3)
        for num in (1, 4, 6):
            p_hat, _ = params.effective_probabilities(num)
            for seed in (777, 0, rng.MASK):
                expected = from_edges(params.n, v3_edges(params.n, p_hat, seed))
                assert sample_union(params, num, seed) == expected

    @pytest.mark.parametrize("p", [1e-300, 5e-324])
    def test_scalar_v3_reference_at_vanishing_p(self, p):
        params = ModelParams(7, p)
        for seed in (777, 1):
            assert v3_edges(params.n, p, seed) == []
            assert num_edges(sample_graph(params, seed)) == 0

    def test_per_edge_frequency_within_binomial_band(self):
        # invariant: frequency inside the exact 5-sigma band around p
        params = ModelParams(10, 0.5)
        trials = 1_000_000
        counts = np.zeros(params.num_pairs, dtype=np.int64)
        step = 100_000
        for start in range(0, trials, step):
            seeds = rng.trial_seeds_np(20240817, start, step)
            masks = edge_masks(seeds, params.num_pairs, params.p)
            counts += masks.sum(axis=0, dtype=np.int64)
        freq = counts / trials
        sigma = math.sqrt(params.p * params.q / trials)
        assert np.all(np.abs(freq - params.p) <= 5 * sigma)
        assert np.all(np.abs(freq - params.p) <= 0.002)

    def test_union_edge_frequency_matches_effective_probability(self):
        # per-edge frequency of a literal 50-fold union ~ 1 - 0.9**50; the
        # constituents are single-graph masks from disjoint seed ranges
        params = ModelParams(10, 0.1)
        trials, num = 20_000, 50
        p_hat = -math.expm1(num * math.log1p(-params.p))
        assert p_hat == pytest.approx(0.99484625, abs=1e-6)
        masks = np.zeros((trials, params.num_pairs), dtype=np.uint8)
        for k in range(num):
            seeds = rng.trial_seeds_np(5150, k * trials, trials)
            masks |= edge_masks(seeds, params.num_pairs, params.p)
        freq = masks.mean(axis=0)
        sigma = math.sqrt(p_hat * (1 - p_hat) / trials)
        assert np.all(np.abs(freq - p_hat) <= 5 * sigma)


class TestUnion:
    def test_idempotent(self):
        g = sample_graph(ModelParams(8, 0.3), 5)
        assert union_graphs([g, g]) == g

    def test_disjoint_paths_make_p3(self):
        a = from_edges(3, [(0, 1)])
        b = from_edges(3, [(1, 2)])
        u = union_graphs([a, b])
        assert u.edges == frozenset({(0, 1), (1, 2)})
        assert is_connected_bfs(u)

    def test_mismatched_n_raises(self):
        with pytest.raises(ValidationError):
            union_graphs([from_edges(3, []), from_edges(4, [])])

    def test_empty_list_raises(self):
        with pytest.raises(ValidationError):
            union_graphs([])

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_commutative_associative_idempotent(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = list(all_pairs(n))
        graphs = [
            from_edges(n, data.draw(st.sets(st.sampled_from(pairs))))
            for _ in range(3)
        ]
        a, b, c = graphs
        assert union_graphs([a, b]) == union_graphs([b, a])
        assert union_graphs([union_graphs([a, b]), c]) == union_graphs([a, union_graphs([b, c])])
        assert union_graphs([a, a, b, b, c]) == union_graphs([a, b, c])


class TestLaplacian:
    def test_empty_graph_zero_matrix(self):
        lap = laplacian(from_edges(3, []))
        assert np.array_equal(lap, np.zeros((3, 3)))

    def test_k3(self):
        lap = laplacian(complete_graph(3))
        expected = np.array([[2., -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert np.array_equal(lap, expected)

    def test_p4_degrees(self):
        lap = laplacian(path_graph(4))
        assert np.array_equal(np.diag(lap), [1, 2, 2, 1])
        assert lap[0, 1] == lap[1, 2] == lap[2, 3] == -1.0
        assert lap[0, 2] == lap[0, 3] == lap[1, 3] == 0.0

    def test_row_sums_exactly_zero(self):
        for seed in range(20):
            g = sample_graph(ModelParams(15, 0.4), seed)
            lap = laplacian(g)
            assert np.array_equal(lap.sum(axis=1), np.zeros(15))
            assert np.array_equal(lap, lap.T)

    def test_offdiagonal_entries(self):
        g = sample_graph(ModelParams(10, 0.5), 3)
        lap = laplacian(g)
        off = lap[~np.eye(10, dtype=bool)]
        assert set(np.unique(off)) <= {-1.0, 0.0}


class TestLaplacianBuilder:
    @staticmethod
    def _adjacencies(n):
        """The empty and complete graphs and six random ones, as 0/1 matrices."""
        gen = np.random.default_rng(n)
        upper = np.stack([np.zeros((n, n)), np.ones((n, n))]
                         + [gen.random((n, n)) < p for p in (0.1, 0.3, 0.5, 0.5, 0.7, 0.9)])
        upper = np.triu(upper, 1).astype(np.int64)
        return upper + upper.transpose(0, 2, 1)

    @staticmethod
    def _reference(adj):
        """-A with -0.0 for an absent pair and the degrees on the diagonal, entry by entry."""
        rows, n, _ = adj.shape
        lap = np.empty(adj.shape)
        for r in range(rows):
            for v in range(n):
                for w in range(n):
                    lap[r, v, w] = float(sum(adj[r, v])) if v == w else (
                        -1.0 if adj[r, v, w] else -0.0)
        return lap

    @pytest.mark.parametrize("present", [True, False])
    @pytest.mark.parametrize("n", [2, 6, 30])
    def test_entries_and_zero_signs(self, n, present):
        adj = self._adjacencies(n)
        want = self._reference(adj)
        # each pair in the given state once, in shuffled order and either orientation
        listed = np.triu(adj == (1 if present else 0), 1)
        batch, a, b = np.nonzero(listed)
        gen = np.random.default_rng(7)
        order = gen.permutation(len(batch))
        flip = gen.random(len(batch)) < 0.5
        batch, a, b = batch[order], a[order], b[order]
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        got = laplacians_from_pairs(batch, a, b, present, len(adj), n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected_bfs(path_graph(4))

    def test_two_disjoint_edges_disconnected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected_bfs(g)

    def test_single_node(self):
        assert is_connected_bfs(from_edges(1, []))

    def test_agrees_with_lambda2_sign(self):
        # full 1e4-sample version runs in the acceptance suite
        params = ModelParams(12, 0.15)
        for seed in range(500):
            g = sample_graph(params, trial_seed(31337, seed))
            assert is_connected_bfs(g) == (lambda2(laplacian(g)) > EPS_ZERO)


class TestSerialisation:
    def test_round_trip(self):
        g = sample_graph(ModelParams(9, 0.4), 11)
        buf = io.StringIO()
        write_edgelist(g, buf)
        buf.seek(0)
        assert read_edgelist(buf) == g

    def test_format(self):
        g = from_edges(3, [(2, 0)])
        buf = io.StringIO()
        write_edgelist(g, buf)
        assert buf.getvalue() == "n=3\n0 2\n"

    def test_bad_header(self):
        for header in ("nodes=3", "n=+3", "n=1_0"):
            with pytest.raises(ValidationError):
                read_edgelist(io.StringIO(f"{header}\n0 1\n"))

    def test_bad_edge_line(self):
        # (lines before, offending line): one ASCII-digit pair i < j per line, each once
        cases = [("", "0 1 2"), ("", "0 x"), ("", "1.5 2"), ("", "1_0 2"), ("", "+1 2"),
                 ("", "\u0661 2"), ("", "1 0"), ("", "1 1"), ("0 1\n", "0 1")]
        for before, line in cases:
            with pytest.raises(ValidationError, match=re.escape(repr(line))):
                read_edgelist(io.StringIO(f"n=12\n{before}{line}\n"))


class TestGraphSampleValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            from_edges(3, [(0, 3)])

    def test_unordered_pairs_normalised(self):
        g = from_edges(4, [(3, 1), (1, 3)])
        assert g.edges == frozenset({(1, 3)})
