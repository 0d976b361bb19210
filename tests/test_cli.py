import hashlib
import json
from pathlib import Path

import pytest

from bruhatmc.cli import (
    CHAINSTAT_SCHEMA,
    EXIT_CONFIG,
    EXIT_LOWCOUNT,
    EXIT_OK,
    MC_SCHEMA,
    main,
    rerun_manifest,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_strong_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--pi", "2 1 3", "--tau", "1 3 2")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["leq"] is False
        assert payload["witness"] == [1, 1]

    def test_weak(self, capsys):
        code, out, _ = run(capsys, "check", "--pi", "2 1 3", "--tau", "2 3 1", "--order", "weak")
        assert code == EXIT_OK
        assert json.loads(out)["leq"] is True

    def test_bad_token_is_config_error(self, capsys):
        code, _, err = run(capsys, "check", "--pi", "2 x 3", "--tau", "1 2 3")
        assert code == EXIT_CONFIG
        assert "token 'x' at position 2" in err


class TestExact:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, "exact", "--n", "3")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["comparable_pairs"] == 19
        assert payload["probability"] == "19/36"

    def test_cap_is_config_error(self, capsys):
        code, _, err = run(capsys, "exact", "--n", "7")
        assert code == EXIT_CONFIG


class TestZmin:
    def test_comparable_pair(self, capsys):
        code, out, _ = run(capsys, "zmin", "--pi", "1 2 3", "--tau", "3 2 1")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["min"] == 0 and payload["leq"] is True

    def test_incomparable_pair(self, capsys):
        code, out, _ = run(capsys, "zmin", "--pi", "2 1 3", "--tau", "1 3 2")
        payload = json.loads(out)
        assert payload["min"] < 0 and payload["leq"] is False


class TestHyper:
    def test_pmf(self, capsys):
        code, out, _ = run(capsys, "hyper", "--N", "4", "--B", "2", "--A", "2", "--k", "1")
        payload = json.loads(out)
        assert payload["pmf"] == "2/3"

    def test_moments(self, capsys):
        code, out, _ = run(capsys, "hyper", "--N", "10", "--B", "4", "--A", "5", "--moments")
        payload = json.loads(out)
        assert payload["mean"] == "2" and payload["variance"] == "2/3"

    def test_sample(self, capsys):
        code, out, _ = run(
            capsys, "hyper", "--N", "10", "--B", "4", "--A", "5", "--sample", "200", "--seed", "3"
        )
        payload = json.loads(out)
        assert sum(payload["histogram"].values()) == 200

    def test_requires_an_action(self, capsys):
        code, _, err = run(capsys, "hyper", "--N", "10", "--B", "4", "--A", "5")
        assert code == EXIT_CONFIG


class TestBernratio:
    def test_small_case(self, capsys):
        code, out, _ = run(capsys, "bernratio", "--n", "10000", "--k", "0")
        payload = json.loads(out)
        assert payload["submatrix_side"] == 215
        assert 0.9 < payload["ratio"] < 0.91


class TestMc:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "mc", "--n", "3,4", "--trials", "2000", "--seed", "5")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0].startswith(f"# schema={MC_SCHEMA}")
        assert lines[1] == "n,trials,successes,p_hat,ci_low,ci_high,seed"
        assert len(lines) == 4

    def test_refuses_large_n(self, capsys):
        code, _, err = run(capsys, "mc", "--n", "128", "--trials", "10", "--seed", "1")
        assert code == EXIT_LOWCOUNT
        assert "--force" in err

    def test_force_overrides(self, capsys):
        code, out, _ = run(capsys, "mc", "--n", "128", "--trials", "10", "--seed", "1", "--force")
        assert code == EXIT_OK

    def test_writes_file_and_manifest(self, capsys, tmp_path):
        out_file = tmp_path / "results.csv"
        code, _, _ = run(
            capsys, "mc", "--n", "4", "--trials", "1000", "--seed", "2", "--out", str(out_file)
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "results.csv.manifest.json").read_text())
        assert str(out_file) in manifest["outputs"]

    def test_manifest_rerun_reproduces_bytes(self, capsys, tmp_path):
        out_file = tmp_path / "results.csv"
        run(capsys, "mc", "--n", "4,6", "--trials", "3000", "--seed", "9", "--out", str(out_file))
        first = out_file.read_bytes()
        assert rerun_manifest(tmp_path / "results.csv.manifest.json") == EXIT_OK
        assert out_file.read_bytes() == first


class TestFit:
    def _make_results(self, capsys, tmp_path, grid="4,6,8,12", trials="20000"):
        out_file = tmp_path / "results.csv"
        run(capsys, "mc", "--n", grid, "--trials", trials, "--seed", "3", "--out", str(out_file))
        return out_file

    def test_fit_from_csv(self, capsys, tmp_path):
        src = self._make_results(capsys, tmp_path)
        fit_file = tmp_path / "fit.json"
        code, _, _ = run(capsys, "fit", "--input", str(src), "--out", str(fit_file))
        payload = json.loads(fit_file.read_text())
        assert code == EXIT_OK
        assert payload["status"] == "OK"
        assert payload["n_points"] == 4

    def test_underdetermined(self, capsys, tmp_path):
        src = self._make_results(capsys, tmp_path, grid="4,6,8")
        code, out, err = run(capsys, "fit", "--input", str(src))
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "UNDERDETERMINED"
        assert "UNDERDETERMINED" in err

    def test_schema_mismatch_is_hard_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# schema=mc-v999\nn,trials\n")
        code, _, err = run(capsys, "fit", "--input", str(bad))
        assert code == EXIT_CONFIG
        assert "schema" in err

    def test_schema_line_only_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text(f"# schema={MC_SCHEMA} software=bruhatmc-0.1.0 seed=1\n")
        code, _, err = run(capsys, "fit", "--input", str(bad))
        assert code == EXIT_CONFIG
        assert len(err.splitlines()) == 1 and "column header" in err

    def test_reads_mc_v1(self, capsys, tmp_path):
        src = self._make_results(capsys, tmp_path)
        text = src.read_text()
        assert text.startswith(f"# schema={MC_SCHEMA} ")
        old = tmp_path / "old.csv"
        old.write_text(text.replace(f"# schema={MC_SCHEMA} ", "# schema=mc-v1 ", 1))
        code, out_new, _ = run(capsys, "fit", "--input", str(src))
        assert code == EXIT_OK
        code, out_old, _ = run(capsys, "fit", "--input", str(old))
        assert code == EXIT_OK
        assert out_old == out_new


class TestGauss:
    def test_stdout_csv(self, capsys):
        code, out, err = run(
            capsys,
            "gauss", "--grid", "4,8,16", "--threshold", "1", "--trials", "2000",
            "--seed", "7",
        )
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0].startswith("# schema=gauss-v1")
        assert len(lines) == 5
        assert "psi_hat" in err

    def test_zeta_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "gauss", "--grid", "8", "--threshold", "1", "--trials", "500",
            "--seed", "7", "--mode", "zeta", "--p", "0.5",
        )
        assert code == EXIT_OK
        assert "mode=zeta" in out.splitlines()[0]


class TestChainstat:
    def test_paired_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "chainstat", "--n", "64", "--x", "8,16", "--y", "8,8", "--trials", "50",
            "--seed", "4",
        )
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0].startswith(f"# schema={CHAINSTAT_SCHEMA}")
        assert len(lines) == 4

    def test_mismatched_grid_is_config_error(self, capsys):
        code, _, err = run(
            capsys,
            "chainstat", "--n", "64", "--x", "8,16", "--y", "8", "--trials", "50",
            "--seed", "4",
        )
        assert code == EXIT_CONFIG

    def test_writes_file_and_manifest(self, capsys, tmp_path):
        out_file = tmp_path / "chain.csv"
        code, _, _ = run(
            capsys,
            "chainstat", "--n", "64", "--x", "8,16", "--y", "8,8", "--trials", "50",
            "--seed", "4", "--out", str(out_file),
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "chain.csv.manifest.json").read_text())
        assert manifest["params"] == {
            "command": "chainstat", "n": 64, "x": [8, 16], "y": [8, 8], "stat": "rect",
            "trials": 50, "seed": 4,
        }
        first = out_file.read_bytes()
        assert manifest["outputs"][str(out_file)] == hashlib.sha256(first).hexdigest()
        assert rerun_manifest(tmp_path / "chain.csv.manifest.json") == EXIT_OK
        assert out_file.read_bytes() == first


class TestLishao:
    def test_rho_400(self, capsys):
        code, out, _ = run(capsys, "lishao", "--rho", "400")
        payload = json.loads(out)
        assert payload["closed_form"] == "441/361"
        assert payload["bound_satisfied"] is True
        assert payload["truncation_error"] < 1e-10


class TestFkg:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "fkg", "--n", "3", "--pairs", "25", "--seed", "11")
        assert code == EXIT_OK
        assert "violations: 0/25" in out

    @pytest.mark.parametrize("pairs", ["0", "-4"])
    def test_nonpositive_pairs_is_config_error(self, capsys, pairs):
        code, out, err = run(capsys, "fkg", "--n", "3", "--pairs", pairs, "--seed", "11")
        assert code == EXIT_CONFIG
        assert out == "" and "--pairs" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--n", "4", "--trials", "100", "--seed", "1"],
        ["gauss", "--grid", "8", "--threshold", "1", "--trials", "100", "--seed", "1"],
        ["chainstat", "--n", "64", "--x", "8", "--y", "8", "--trials", "10", "--seed", "1"],
    ],
    ids=["mc", "gauss", "chainstat"],
)
def test_nonpositive_workers_is_config_error(capsys, argv, workers):
    code, out, err = run(capsys, *argv, "--workers", workers)
    assert code == EXIT_CONFIG
    assert out == "" and "workers must be >= 1" in err


class TestPipelineScaling:
    def test_config_file_run(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out_dir = tmp_path / "run"
        cfg.write_text(
            "# sweep configuration\n"
            "n_grid = 4,6,8,12\n"
            "trials = 5000\n"
            "seed = 12\n"
            f"out_dir = {out_dir}\n"
        )
        code, _, err = run(capsys, "pipeline-scaling", "--config", str(cfg))
        assert code == EXIT_OK
        assert (out_dir / "results.csv").exists()
        assert json.loads((out_dir / "fit.json").read_text())["status"] == "OK"
        assert "alpha=" in err

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out_dir = tmp_path / "run"
        cfg.write_text(f"n_grid = 4,6,8\ntrials = 1000\nseed = 1\nout_dir = {out_dir}\n")
        code, _, _ = run(capsys, "pipeline-scaling", "--config", str(cfg), "--n-grid", "4,6")
        assert code == EXIT_OK
        rows = (out_dir / "results.csv").read_text().splitlines()
        assert len(rows) == 4  # schema + header + two rows

    def test_non_increasing_grid_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "pipeline-scaling", "--n-grid", "8,4", "--trials", "100",
            "--seed", "1", "--out-dir", str(tmp_path / "x"),
        )
        assert code == EXIT_CONFIG
        assert "strictly increasing" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_grd = 4,6\n")
        code, _, err = run(capsys, "pipeline-scaling", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "unknown key" in err

    def test_large_grid_requires_force(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "pipeline-scaling", "--n-grid", "4,128", "--trials", "10",
            "--seed", "1", "--out-dir", str(tmp_path / "y"),
        )
        assert code == EXIT_LOWCOUNT

    def test_identical_bytes_on_rerun(self, capsys, tmp_path):
        args = [
            "pipeline-scaling", "--n-grid", "4,6,8,12", "--trials", "4000",
            "--seed", "31", "--out-dir",
        ]
        code, _, _ = run(capsys, *args, str(tmp_path / "a"))
        assert code == EXIT_OK
        code, _, _ = run(capsys, *args, str(tmp_path / "b"))
        assert code == EXIT_OK
        assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()
        assert (tmp_path / "a/fit.json").read_bytes() == (tmp_path / "b/fit.json").read_bytes()


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
