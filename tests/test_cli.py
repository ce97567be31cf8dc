"""Command-line surface: formats, exit codes, fixtures, determinism."""
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import erunion
from erunion import ModelParams, bound_report, cli, montecarlo, rng
from erunion.cli import build_parser, main
from reference import (lambda2, laplacian, read_edgelist, sample_union, trial_seed,
                       write_edgelist)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNmin:
    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "nmin", "--n", "10", "--p", "0.1")
        assert code == 0
        assert "N_min (rounded up): 12" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "nmin", "--n", "100000", "--p", "0.00001", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rounded_up"] == 109862
        assert payload["asymptotic"] == pytest.approx(109860.6796, abs=1e-3)
        assert payload["exact_real"] == pytest.approx(109861.346, abs=1e-2)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "nmin", "--n", "10", "--p", "0.1", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,p,exact_real,rounded_up,asymptotic"
        assert lines[1].split(",")[3] == "12"

    @pytest.mark.parametrize("p", ["0.1", "1e-10", "1e-20", "1e-300"])
    def test_huge_union_size_printed_as_float(self, capsys, p):
        # rounded_up is an exact integer; beyond 2**53 JSON readers round it
        code, out, _ = run_cli(capsys, "nmin", "--n", "3", "--p", p, "--json")
        assert code == 0
        rounded_up = json.loads(out)["rounded_up"]
        assert isinstance(rounded_up, float) or rounded_up <= 2 ** 53
        for fmt in ([], ["--csv"]):
            code, out, _ = run_cli(capsys, "nmin", "--n", "3", "--p", p, *fmt)
            assert code == 0
            assert max(len(line) for line in out.splitlines()) <= 100
        code, out, err = run_cli(capsys, "probbound", "--n", "3", "--p", p,
                                 "--N", "1", "--json")
        n_min = json.loads(out)["n_min"]
        assert isinstance(n_min, float) or n_min <= 2 ** 53
        assert len(err) <= 100
        code, out, _ = run_cli(capsys, "mc", "--n", "3", "--p", p, "--N", "1",
                               "--trials", "2", "--seed", "0")
        assert code == 0
        mc_n_min = json.loads(out)["bounds"]["n_min"]
        assert (mc_n_min, type(mc_n_min)) == (n_min, type(n_min))

    def test_n2_infeasibility_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, "nmin", "--n", "2", "--p", "0.5")
        assert code == 2
        assert "error" in err

    def test_invalid_p_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "nmin", "--n", "10", "--p", "1.5")
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("argv", [
    ["nmin", "--n", "10", "--p", "1e-320"],
    ["probbound", "--n", "10", "--p", "1e-320", "--N", "4"],
    ["mc", "--n", "10", "--p", "1e-320", "--N", "4", "--trials", "5", "--seed", "0"],
    ["oracle", "--n", "4", "--p", "1e-320"],
])
def test_subnormal_p_is_a_domain_error(capsys, argv):
    # N_min = log(.) / log1p(-p) overflows to inf for subnormal p
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "too small" in err


@pytest.mark.parametrize("argv", [
    ["nmin", "--n", str(10**400), "--p", "0.1"],
    ["probbound", "--n", str(10**160), "--p", "0.1", "--N", "4"],
    ["mc", "--n", str(10**400), "--p", "0.1", "--N", "4", "--trials", "5", "--seed", "0"],
])
def test_n_beyond_float64_is_a_domain_error(capsys, argv):
    # the closed forms take n as a float64: 6 n^2 overflows from n ~ 1e154
    # and float(n) itself from n ~ 1e309
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "2**53" in err
    assert len(err) <= 100


@pytest.mark.parametrize("argv", [
    ["probbound", "--n", "10", "--p", "0.1", "--N", str(10**400)],
    ["mc", "--n", "10", "--p", "0.1", "--N", str(10**400), "--trials", "5", "--seed", "0"],
    ["oracle", "--n", "4", "--p", "0.1", "--N", str(10**400)],
])
def test_union_size_beyond_float_range_is_a_domain_error(capsys, argv):
    # N log(1 - p) overflows a float, as p_hat rounds to 1 from N ~ 1e5 here
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: effective probability degenerates")
    assert err.count("\n") == 1
    assert len(err) <= 120


@pytest.mark.parametrize("argv", [
    ["tables", "2", "--precision", "-1"],
    ["probbound", "--n", "50", "--p", "0.05", "--N", "50", "--precision", "-2"],
    # a float64 has at most 1074 decimals, so more would print only zeros
    ["tables", "2", "--precision", "3000000000"],
    ["probbound", "--n", "50", "--p", "0.05", "--N", "50", "--precision", "1075"],
    ["tables", "2", "--precision", "abc"],
])
def test_negative_precision_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


def test_largest_precision_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "tables", "2", "--precision", "1074")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert len(line.split(",")[1].split(".")[1]) == 1074


class TestProbbound:
    def test_reference_cell(self, capsys):
        code, out, _ = run_cli(capsys, "probbound", "--n", "50", "--p", "0.05", "--N", "50")
        assert code == 0
        assert out.strip() == "0.359"

    def test_shallow_union_cell(self, capsys):
        code, out, _ = run_cli(capsys, "probbound", "--n", "50", "--p", "0.1", "--N", "25")
        assert code == 0
        assert out.strip() == "0.377"

    def test_below_n_min(self, capsys):
        code, out, err = run_cli(capsys, "probbound", "--n", "50", "--p", "0.1", "--N", "5")
        assert code == 2
        assert "below N_min" in err
        # N <= 0 is no union size at all, rather than one below N_min
        for num in ("0", "-3"):
            code, out, err = run_cli(capsys, "probbound", "--n", "50", "--p", "0.1", "--N", num)
            assert code == 2
            assert out == ""
            assert err == f"error: num_graphs must be a positive integer, got {num}\n"

    def test_precision_override(self, capsys):
        code, out, _ = run_cli(capsys, "probbound", "--n", "50", "--p", "0.05",
                               "--N", "50", "--precision", "5")
        assert code == 0
        assert out.strip() == f"{0.3586689:.5f}"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "probbound", "--n", "50", "--p", "0.1",
                               "--N", "125", "--json")
        payload = json.loads(out)
        assert payload["status"] == "certified"
        assert payload["value"] == pytest.approx(0.996, abs=5e-4)
        assert payload["n_min"] == 11


class TestTables:
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_matches_committed_fixture(self, capsys, which):
        code, out, _ = run_cli(capsys, "tables", str(which))
        assert code == 0
        assert out == (DATA / f"table{which}.csv").read_text()

    @pytest.mark.parametrize("which,keys,row_keys", [
        (1, {"ns"}, {"p", "n_min"}),
        (2, {"n", "N"}, {"p", "prob_lower_bound"}),
        (3, {"n", "p"}, {"N", "prob_lower_bound"}),
    ], ids=["1", "2", "3"])
    def test_json_structure(self, capsys, which, keys, row_keys):
        code, out, _ = run_cli(capsys, "tables", str(which), "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"table", "rows"} | keys
        assert payload["table"] == which
        assert len(payload["rows"]) == 5
        assert all(set(row) == row_keys for row in payload["rows"])
        if which == 2:
            assert payload["rows"][0]["prob_lower_bound"] == pytest.approx(0.3587, abs=1e-3)


class TestMc:
    def test_json_schema_and_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--n", "10", "--p", "0.6", "--N", "1",
                               "--trials", "5000", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "estimate", "bounds"}
        assert "workers" not in payload["config"]
        est = payload["estimate"]
        b = payload["bounds"]
        assert b["e_lambda2_lower"] <= est["mean_lambda2"] <= b["e_lambda2_upper"]
        assert set(est["ci_halfwidths"]) == {"mean_lambda2", "var_lambda2",
                                             "prob_connected", "prob_ge_lambda_min"}

    def test_keys_are_the_documented_schema(self, capsys):
        # README's "The `mc` JSON schema is stable" sentence lists these keys
        code, out, _ = run_cli(capsys, "mc", "--n", "6", "--p", "0.3", "--N", "1",
                               "--trials", "20", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["config"]) == {"n", "p", "num_graphs", "trials", "master_seed"}
        assert set(payload["estimate"]) == {"mean_lambda2", "var_lambda2", "prob_connected",
                                            "prob_ge_lambda_min", "ci_halfwidths", "trials"}
        assert set(payload["bounds"]) == {
            "e_lambda2_lower", "e_lambda2_upper", "var_lambda2_lower", "var_lambda2_upper",
            "lambda_min", "theta", "prob_lower", "prob_status", "n_min"}

    def test_identical_json_across_worker_counts(self, capsys):
        args = ["mc", "--n", "12", "--p", "0.3", "--N", "2",
                "--trials", "2000", "--seed", "42"]
        _, out1, _ = run_cli(capsys, *args, "--workers", "1")
        _, out4, _ = run_cli(capsys, *args, "--workers", "4")
        assert out1 == out4

    def test_identical_json_across_worker_counts_near_complete(self, capsys, monkeypatch):
        # the certified regime, p_hat = 0.995: three chunks of up to 213
        # trials on two threads, almost every union solved through its complement
        p_hat, _ = ModelParams(50, 0.1).effective_probabilities(50)
        assert montecarlo._chunk_trials(50, p_hat, 500) == 213
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        args = ["mc", "--n", "50", "--p", "0.1", "--N", "50",
                "--trials", "500", "--seed", "42"]
        _, out1, _ = run_cli(capsys, *args, "--workers", "1")
        _, out2, _ = run_cli(capsys, *args, "--workers", "2")
        assert out1 == out2

    @pytest.mark.parametrize("n,p,num,status,n_min", [
        (2, 0.5, 3, "infeasible", None),
        (50, 0.1, 5, "below_n_min", 11),
        (50, 0.1, 50, "certified", 11),
    ])
    def test_bounds_carry_prob_status_and_n_min(self, capsys, n, p, num, status, n_min):
        code, out, _ = run_cli(capsys, "mc", "--n", str(n), "--p", str(p), "--N", str(num),
                               "--trials", "5", "--seed", "1")
        assert code == 0
        payload = json.loads(out)["bounds"]
        assert (payload["prob_status"], payload["n_min"]) == (status, n_min)
        assert payload == dataclasses.asdict(bound_report(ModelParams(n, p), num))
        assert (payload["prob_lower"] is None) == (status != "certified")

    def test_single_trial_report(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--n", "6", "--p", "0.5", "--N", "1",
                               "--trials", "1", "--seed", "0")
        assert code == 0
        est = json.loads(out)["estimate"]
        assert est["ci_halfwidths"]["mean_lambda2"] is None
        assert est["ci_halfwidths"]["var_lambda2"] is None
        assert est["var_lambda2"] == 0.0
        assert "ci_reliable" not in est

    def test_disconnected_union_solved_in_full_has_lambda2_zero(self, capsys):
        # the one union is two disjoint triangles: no node of degree 0, so it
        # is solved, and the solver's -1.1e-16 is printed as 0.0
        code, out, _ = run_cli(capsys, "mc", "--n", "6", "--p", "0.4", "--N", "1",
                               "--trials", "1", "--seed", "2843")
        assert code == 0
        assert json.loads(out)["estimate"]["mean_lambda2"] == 0.0
        assert '"mean_lambda2": 0.0,' in out

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_is_a_domain_error(self, capsys, seed):
        code, out, err = run_cli(capsys, "mc", "--n", "6", "--p", "0.3", "--N", "1",
                                 "--trials", "5", "--seed", seed)
        assert code == 2
        assert out == ""
        assert "master_seed" in err

    def test_capability_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--n", "2100", "--p", "0.5", "--N", "1",
                               "--trials", "10", "--seed", "0")
        assert code == 3
        assert "error" in err

    def test_trials_beyond_memory_is_a_capability_error(self, capsys):
        code, out, err = run_cli(capsys, "mc", "--n", "3", "--p", "0.5", "--N", "1",
                                 "--trials", str(10**17), "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: trials=100000000000000000 needs 8e+17 bytes")

    def test_out_of_memory_is_a_capability_error(self, capsys, monkeypatch):
        # taking the estimate allocates after every trial has run, past the
        # up-front check on the per-trial array
        def run_mc(config):
            raise MemoryError

        monkeypatch.setattr(cli, "run_mc", run_mc)
        code, out, err = run_cli(capsys, "mc", "--n", "3", "--p", "0.5", "--N", "1",
                                 "--trials", "10", "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("n, p, num, missing", [
        (8, 0.4, 2, True),     # p_hat = 0.64: the missing pairs are drawn
        (20, 0.05, 2, False),  # p_hat = 0.0975: the present pairs are drawn
    ], ids=["missing-pairs", "present-pairs"])
    def test_dump_graphs_round_trip(self, capsys, tmp_path, n, p, num, missing):
        params = ModelParams(n, p)
        assert rng.missing_is_rare(params.effective_probabilities(num)[0]) == missing
        outdir = tmp_path / "graphs"
        code, out, _ = run_cli(capsys, "mc", "--n", str(n), "--p", str(p), "--N", str(num),
                               "--trials", "5", "--seed", "11",
                               "--dump-graphs", str(outdir))
        assert code == 0
        files = sorted(outdir.iterdir())
        assert [f.name for f in files] == [f"trial_{t:06d}.edges" for t in range(5)]
        payload = json.loads(out)
        lam2s = []
        for t, f in enumerate(files):
            want = io.StringIO()
            write_edgelist(sample_union(params, num, trial_seed(11, t)), want)
            assert f.read_bytes() == want.getvalue().encode()
            with open(f) as fp:
                g = read_edgelist(fp)
            assert g.n == n
            lam2s.append(lambda2(laplacian(g)))
        mean = sum(lam2s) / len(lam2s)
        assert mean == pytest.approx(payload["estimate"]["mean_lambda2"], abs=1e-12)

    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_dump_graphs_path_that_cannot_be_a_directory(self, capsys, monkeypatch,
                                                          tmp_path, target):
        # an existing file, and a parent that cannot be made: both fail before
        # the run, with no traceback and nothing on stdout
        (tmp_path / "file").write_text("")

        def no_run(config):
            raise AssertionError("run_mc ran")

        monkeypatch.setattr(cli, "run_mc", no_run)
        code, out, err = run_cli(capsys, "mc", "--n", "8", "--p", "0.4", "--N", "2",
                                 "--trials", "5", "--seed", "11",
                                 "--dump-graphs", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --dump-graphs: ") and "Traceback" not in err

    @pytest.mark.parametrize("n, trials", [("2001", "2"), ("10", "99999999999999999")],
                             ids=["n-above-ceiling", "trials-beyond-memory"])
    def test_refused_run_leaves_no_dump_directory(self, capsys, tmp_path, n, trials):
        outdir = tmp_path / "graphs"
        code, out, err = run_cli(capsys, "mc", "--n", n, "--p", "0.5", "--N", "1",
                                 "--trials", trials, "--seed", "1",
                                 "--dump-graphs", str(outdir))
        assert code == 3
        assert out == "" and err.startswith("error: ")
        assert not outdir.exists()

    def test_dump_graphs_unwritable_file_is_a_domain_error(self, capsys, tmp_path):
        (tmp_path / "trial_000003.edges").mkdir()
        code, out, err = run_cli(capsys, "mc", "--n", "8", "--p", "0.4", "--N", "2",
                                 "--trials", "5", "--seed", "11",
                                 "--dump-graphs", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --dump-graphs: ") and "trial_000003.edges" in err


class TestOracle:
    def test_moment_agreement_payload(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "4", "--p", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_rel_moment_error"] <= 1e-10
        assert payload["exact"]["eigenvalue_moments"]["2"] == pytest.approx(6.0)

    def test_three_node_probability(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--p", "0.5")
        payload = json.loads(out)
        assert payload["exact"]["prob_connected"] == pytest.approx(0.5, abs=1e-12)

    def test_union_report(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--p", "0.5", "--N", "2")
        payload = json.loads(out)
        assert payload["effective_p"] == pytest.approx(0.75)

    def test_bounds_match_bound_report(self, capsys):
        # both use the union's own q_hat, not 1 - p_hat
        code, out, _ = run_cli(capsys, "oracle", "--n", "6", "--p", "0.83", "--N", "20")
        assert code == 0
        rep = bound_report(ModelParams(6, 0.83), 20)
        payload = json.loads(out)
        assert payload["expected_lambda2_bounds"] == {
            "lower": rep.e_lambda2_lower, "upper": rep.e_lambda2_upper}
        assert payload["var_lambda2_bounds"] == {
            "lower": rep.var_lambda2_lower, "upper": rep.var_lambda2_upper}

    @pytest.mark.parametrize("n,p,num", [(2, 0.3, 1), (3, 0.5, 2), (6, 0.83, 20)])
    def test_exact_variance_within_bounds(self, capsys, n, p, num):
        code, out, _ = run_cli(capsys, "oracle", "--n", str(n), "--p", str(p), "--N", str(num))
        payload = json.loads(out)
        exact = payload["exact"]
        var = exact["expected_lambda2_sq"] - exact["expected_lambda2"] ** 2
        bounds = payload["var_lambda2_bounds"]
        assert bounds["lower"] - 1e-12 <= var <= bounds["upper"] + 1e-12

    def test_capability_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "7", "--p", "0.5")
        assert code == 3
        assert "error" in err


GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(capsys, case):
    # probbound, oracle and nmin print byte for byte what the fixture holds,
    # on both streams, and exit with its code
    assert run_cli(capsys, *case["argv"]) == (case["exit_code"], case["stdout"], case["stderr"])


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_failed_parse_leaves_later_calls_unchanged(self, capsys):
        # each call's output as the first call of a fresh process, then after
        # a parse that fails on a non-integer --n
        calls = [("tables", "2"),
                 ("mc", "--n", "10", "--p", "0.6", "--N", "1", "--trials", "50", "--seed", "3")]
        first = []
        for argv in calls:
            build_parser.cache_clear()
            first.append(run_cli(capsys, *argv))
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--n", "x"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err
        assert [run_cli(capsys, *argv) for argv in calls] == first
        assert all(code == 0 and out for code, out, _ in first)


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader of stdout leaves before the command writes
    argv = [sys.executable, "-m", "erunion.cli", "mc", "--n", "50", "--p", "0.1",
            "--N", "50", "--trials", "300", "--seed", "1"]
    # the child imports the package under test, wherever this process found it
    src = str(Path(erunion.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


def test_closed_stdout_leaves_no_descriptor_open(monkeypatch):
    # in process: each call into a pipe whose reader left points stdout at
    # the null device, and keeps no descriptor of its own open
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count open descriptors")
    before = len(list(fds.iterdir()))
    for _ in range(5):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert main(["tables", "1"]) == 1
    assert len(list(fds.iterdir())) == before
