"""Command-line surface: formats, exit codes, fixtures, determinism."""
import json
from pathlib import Path

import pytest

from erunion import (ModelParams, bound_report, lambda2, laplacian,
                     read_edgelist)
from erunion.cli import main

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
])
def test_subnormal_p_is_a_domain_error(capsys, argv):
    # N_min = log(.) / log1p(-p) overflows to inf for subnormal p
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "too small" in err


@pytest.mark.parametrize("argv", [
    ["tables", "2", "--precision", "-1"],
    ["probbound", "--n", "50", "--p", "0.05", "--N", "50", "--precision", "-2"],
])
def test_negative_precision_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


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

    def test_identical_json_across_worker_counts(self, capsys):
        args = ["mc", "--n", "12", "--p", "0.3", "--N", "2",
                "--trials", "2000", "--seed", "42"]
        _, out1, _ = run_cli(capsys, *args, "--workers", "1")
        _, out4, _ = run_cli(capsys, *args, "--workers", "4")
        assert out1 == out4

    def test_single_trial_report(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--n", "6", "--p", "0.5", "--N", "1",
                               "--trials", "1", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"]["ci_reliable"] is False
        assert payload["estimate"]["ci_halfwidths"]["mean_lambda2"] is None

    def test_capability_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--n", "2100", "--p", "0.5", "--N", "1",
                               "--trials", "10", "--seed", "0")
        assert code == 3
        assert "error" in err

    def test_dump_graphs_round_trip(self, capsys, tmp_path):
        outdir = tmp_path / "graphs"
        code, out, _ = run_cli(capsys, "mc", "--n", "8", "--p", "0.4", "--N", "2",
                               "--trials", "5", "--seed", "11",
                               "--dump-graphs", str(outdir))
        assert code == 0
        files = sorted(outdir.iterdir())
        assert [f.name for f in files] == [f"trial_{t:06d}.edges" for t in range(5)]
        payload = json.loads(out)
        lam2s = []
        for f in files:
            with open(f) as fp:
                g = read_edgelist(fp)
            assert g.n == 8
            lam2s.append(lambda2(laplacian(g)))
        mean = sum(lam2s) / len(lam2s)
        assert mean == pytest.approx(payload["estimate"]["mean_lambda2"], abs=1e-12)


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
        assert json.loads(out)["expected_lambda2_bounds"] == {
            "lower": rep.e_lambda2_lower, "upper": rep.e_lambda2_upper}

    def test_capability_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--n", "7", "--p", "0.5")
        assert code == 3
        assert "error" in err
