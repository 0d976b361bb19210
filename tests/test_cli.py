import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bruhatmc
from bruhatmc.cli import (
    CHAINSTAT_SCHEMA,
    EXIT_CONFIG,
    EXIT_INTERRUPTED,
    EXIT_INVARIANT,
    EXIT_LOWCOUNT,
    EXIT_OK,
    MC_COLUMNS,
    MC_SCHEMA,
    main,
    rerun_manifest,
)
from bruhatmc.estimators import wilson_interval
from bruhatmc.fkg import CorrelationReport
from bruhatmc.order import EXACT_COUNT_CAP
from bruhatmc.perms import MAX_TABLE_SIZE


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

    def test_n7_needs_no_flag(self, capsys):
        code, out, _ = run(capsys, "exact", "--n", "7")
        assert code == EXIT_OK
        assert json.loads(out)["probability"] == "3550919/25401600"

    def test_cap_is_config_error(self, capsys):
        code, out, err = run(capsys, "exact", "--n", str(EXACT_COUNT_CAP + 1))
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and "above the exact-count cap" in err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_n_is_config_error(self, capsys, n):
        code, out, err = run(capsys, "exact", "--n", n)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and "must be >= 1" in err


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

    def test_above_table_cap_is_config_error(self, capsys):
        # z_table's ValueError once ended this in a traceback and exit code 1
        words = " ".join(map(str, range(1, MAX_TABLE_SIZE + 2)))
        code, out, err = run(capsys, "zmin", "--pi", words, "--tau", words)
        assert code == EXIT_CONFIG and out == ""
        cap = MAX_TABLE_SIZE
        assert err == f"config error: --pi and --tau: size {cap + 1} above the table cap {cap}\n"


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

    @pytest.mark.parametrize(
        "actions",
        [["--k", "2", "--moments"], ["--k", "2", "--sample", "5"], ["--moments", "--sample", "5"],
         ["--k", "2", "--moments", "--sample", "5"]],
        ids=lambda actions: " ".join(actions),
    )
    def test_more_than_one_action_is_config_error(self, capsys, actions):
        # --k with --moments once exited 0 and dropped --moments
        code, out, err = run(capsys, "hyper", "--N", "10", "--B", "4", "--A", "5", *actions)
        assert code == EXIT_CONFIG and out == ""
        assert err == "config error: hyper: pass exactly one of --k, --moments, --sample\n"

    def test_sample_too_large_for_memory_is_config_error(self, capsys):
        # 10^14 draws need far more memory than any address space holds
        code, out, err = run(capsys, "hyper", "--N", "10", "--B", "3", "--A", "2", "--sample", str(10**14))
        assert code == EXIT_CONFIG
        assert out == "" and err == f"config error: --sample {10**14}: too many draws to hold in memory\n"

    def test_negative_sample_is_config_error(self, capsys):
        code, out, err = run(capsys, "hyper", "--N", "10", "--B", "4", "--A", "5", "--sample", "-1")
        assert code == EXIT_CONFIG
        assert out == "" and "--sample must be >= 0" in err


class TestBernratio:
    def test_small_case(self, capsys):
        code, out, _ = run(capsys, "bernratio", "--n", "10000", "--k", "0")
        payload = json.loads(out)
        assert payload["submatrix_side"] == 215
        assert 0.9 < payload["ratio"] < 0.91

    @pytest.mark.parametrize("digits, ratio", [(60, 0.999999999999999), (400, 1.0)])
    def test_huge_n_is_finite(self, capsys, digits, ratio):
        # the integer root of n^7 and a working precision that grows with
        # the digits of n keep the ratio finite and near 1
        code, out, _ = run(capsys, "bernratio", "--n", str(10**digits), "--k", "0")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["submatrix_side"] ** 12 <= 10 ** (7 * digits) < (payload["submatrix_side"] + 1) ** 12
        assert payload["ratio"] == pytest.approx(ratio, abs=1e-15)


class TestMc:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "mc", "--n", "3,4", "--trials", "2000", "--seed", "5")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0].startswith(f"# schema={MC_SCHEMA}")
        assert lines[1] == "n,trials,successes,p_hat,ci_low,ci_high,seed"
        assert len(lines) == 4

    def test_workers_do_not_change_bytes(self, tmp_path):
        # 20000 trials are two blocks, so the two workers split them
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            argv = ["mc", "--n", "12,40", "--trials", "20000", "--seed", "12", "--workers", workers,
                    "--out", str(out)]
            assert main(argv) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0].startswith(b"# schema=mc-v5 ")
        assert outputs[0] == outputs[1]

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
    def _make_results(self, capsys, tmp_path, grid="4,6,8,12", trials="20000", *extra):
        out_file = tmp_path / "results.csv"
        run(capsys, "mc", "--n", grid, "--trials", trials, "--seed", "3", "--out", str(out_file), *extra)
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

    def test_repeated_sizes_count_once(self, capsys, tmp_path):
        for grid, status, points in [("4,6,8", "UNDERDETERMINED", None), ("4,6,8,12", "OK", 8)]:
            src = self._make_results(capsys, tmp_path, grid)
            lines = src.read_text().splitlines()
            src.write_text("\n".join(lines + lines[2:]) + "\n")  # every row twice
            code, out, _ = run(capsys, "fit", "--input", str(src))
            payload = json.loads(out)
            assert code == EXIT_OK and payload["status"] == status
            if points is None:
                assert payload["reason"] == "need >= 4 distinct usable sizes, have 3"
            else:
                assert payload["n_points"] == points

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

    def test_missing_input_is_config_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "fit", "--input", str(tmp_path / "absent.csv"))
        assert code == EXIT_CONFIG
        assert out == "" and err.count("\n") == 1 and "absent.csv: cannot read" in err

    @pytest.mark.parametrize(
        "row",
        [
            "4,100,5",
            "4,100,x,0.05,0.0,0.1,3",
            "4,100,101,1.0,0.9,1.0,3",
            "0,100,5,0.05,0.0,0.1,3",
            "-3,100,5,0.05,0.0,0.1,3",
            "4,1000,370,abc,zz,,3",
            "4,1000,370,0.5,0.3,0.6,3",
            "4,1000,370,0.37,0.38,0.4,3",
            "4,1000,370,0.37,0.3,1.5,3",
            "4,1000,370,0.37,nan,0.4,3",
            "4,1000,370,0.37,0.3,inf,3",
        ],
    )
    def test_malformed_row_is_config_error(self, capsys, tmp_path, row):
        bad = tmp_path / "bad.csv"
        header = f"# schema={MC_SCHEMA} software=bruhatmc-0.1.0 seed=3\n{','.join(MC_COLUMNS)}\n"
        # enough valid rows after the bad one for a fit to go through
        valid = "".join(
            f"{n},1000,{s},{s / 1000!r},{wilson_interval(s, 1000)[0]!r},{wilson_interval(s, 1000)[1]!r},3\n"
            for n, s in [(4, 370), (6, 190), (8, 100), (12, 40)]
        )
        good = tmp_path / "good.csv"
        good.write_text(header + valid)
        assert run(capsys, "fit", "--input", str(good))[0] == EXIT_OK
        bad.write_text(header + row + "\n" + valid)
        code, out, err = run(capsys, "fit", "--input", str(bad))
        assert code == EXIT_CONFIG
        assert out == "" and err.count("\n") == 1 and "bad.csv:3" in err

    def test_four_sizes_write_strict_json(self, capsys, tmp_path):
        # the full model's AICc needs five points: with four it is undefined
        src = self._make_results(capsys, tmp_path)
        fit_file = tmp_path / "fit.json"
        code, _, err = run(capsys, "fit", "--input", str(src), "--out", str(fit_file))
        assert code == EXIT_OK

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(fit_file.read_text(), parse_constant=reject)
        assert payload["n_points"] == 4
        assert payload["aicc_full"] is None and payload["comparison_score"] is None
        assert isinstance(payload["aicc_submodel"], float)
        assert payload["preferred"] == "undetermined"
        assert "score undefined" in err
        manifest = tmp_path / "fit.json.manifest.json"
        json.loads(manifest.read_text(), parse_constant=reject)

    @pytest.mark.parametrize("command", ["fit", "pipeline-scaling"])
    def test_exclusions_are_one_line_messages(self, capsys, tmp_path, command):
        # n = 1024 (P about 1.4e-12) has no successes at this budget under
        # any stream layout, and is excluded from the fit
        if command == "fit":
            src = self._make_results(capsys, tmp_path, "4,6,8,12,1024", "2000", "--force")
            argv = ["fit", "--input", str(src)]
        else:
            argv = ["pipeline-scaling", "--n-grid", "4,6,8,12,1024", "--trials", "2000", "--seed", "3", "--force",
                    "--out-dir", str(tmp_path / "run")]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK
        excluded = [line for line in err.splitlines() if "excluding" in line]
        assert excluded == [
            f"{'fit' if command == 'fit' else 'scaling fit'}: excluding n=1024: p_hat=0.0 has no usable log variance"
        ]
        assert "UserWarning" not in err and ".py" not in err and "warnings.warn" not in err

    def test_binary_input_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "fit", "--input", str(bad))
        assert code == EXIT_CONFIG
        assert out == "" and err.count("\n") == 1 and "not a text file" in err

    def test_reads_mc_v1(self, capsys, tmp_path):
        # and mc-v2 to mc-v4: all have the current columns, only their streams differ
        src = self._make_results(capsys, tmp_path)
        text = src.read_text()
        assert text.startswith(f"# schema={MC_SCHEMA} ")
        code, out_new, _ = run(capsys, "fit", "--input", str(src))
        assert code == EXIT_OK
        for version in ("mc-v1", "mc-v2", "mc-v3", "mc-v4"):
            old = tmp_path / f"{version}.csv"
            old.write_text(text.replace(f"# schema={MC_SCHEMA} ", f"# schema={version} ", 1))
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
        assert lines[0].startswith("# schema=gauss-v3")
        assert len(lines) == 5
        assert "psi_hat" in err

    def test_square_scan_is_worker_invariant(self, tmp_path):
        # gauss-v3: each block draws its squares' borders only for its trials
        # still alive, so its draws must not depend on the worker count
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            argv = ["gauss", "--grid", "16,64,300", "--threshold", "15", "--trials", "20000",
                    "--seed", "12", "--workers", workers, "--out", str(out)]
            assert main(argv) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0].startswith(b"# schema=gauss-v3 ")
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_threshold_is_config_error(self, capsys, threshold):
        code, out, err = run(
            capsys,
            "gauss", "--grid", "8", f"--threshold={threshold}", "--trials", "100", "--seed", "7",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and "--threshold must be finite and >= 0" in err

    @pytest.mark.parametrize(
        "mode, p, message",
        [
            ("zeta", "0.9", "--p must be in (0, 1/2]"),
            ("zeta", "nan", "--p must be in (0, 1/2]"),
            ("gaussian", "0.1", "--p applies to --mode zeta only"),
        ],
    )
    def test_bad_p_is_config_error(self, capsys, mode, p, message):
        code, out, err = run(
            capsys,
            "gauss", "--grid", "8", "--threshold", "1", "--trials", "10", "--seed", "1",
            "--mode", mode, "--p", p,
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and message in err

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

    def test_strip_workers_do_not_change_bytes(self, tmp_path):
        argv = ["chainstat", "--n", "256", "--x", "16,64,200", "--y", "64,16,100", "--trials", "600",
                "--seed", "8", "--stat", "strip"]
        outputs = []
        for workers in ("1", "2"):
            out_file = tmp_path / f"strip-w{workers}.csv"
            assert main(argv + ["--workers", workers, "--out", str(out_file)]) == EXIT_OK
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"# schema=chainstat-v4 ")

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

    def test_huge_index_range_is_finite(self, capsys):
        # the row sum stops at its first term that is exactly 0.0
        code, out, _ = run(capsys, "lishao", "--rho", "400", "--index-range", str(10**11))
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["closed_form"] == "441/361"
        assert payload["truncation_error"] < 1e-10

    def test_huge_rho_is_finite(self, capsys):
        # rho^-1/2 comes from ln(rho), which takes ints of any size
        code, out, _ = run(capsys, "lishao", "--rho", str(10**400))
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["closed_form_float"] == payload["supremum_over_ij"] == 1.0
        assert payload["bound_satisfied"] is True


class TestFkg:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "fkg", "--n", "3", "--pairs", "25", "--seed", "11")
        assert code == EXIT_OK
        assert "violations: 0/25" in out

    def test_violation_prints_table_then_one_line(self, capsys, monkeypatch):
        def violated(a, b):
            return CorrelationReport(Fraction(0), Fraction(1, 4), False)

        monkeypatch.setattr("bruhatmc.cli.fkg_check", violated)
        code, out, err = run(capsys, "fkg", "--n", "3", "--pairs", "5", "--seed", "11")
        assert code == EXIT_INVARIANT
        lines = out.splitlines()
        assert lines[0] == "pair,p_a,p_b,p_both,product,holds" and len(lines) == 8
        assert all(line.endswith(",0,1/4,False") for line in lines[1:6])
        assert lines[6] == "# extremal pair 0: lhs-rhs = -1/4 (lhs=0 rhs=1/4)"
        assert lines[7] == "# violations: 5/5"
        assert err.count("\n") == 1 and err.startswith("invariant violation: 5 FKG violations at n=3: ")

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


@pytest.mark.parametrize(
    "sizes, expected",
    [("4", "expected 1 value, got 2"), ("4,5,6", "expected 1 or 3 values, got 2")],
    ids=["one-size", "three-sizes"],
)
def test_trials_count_mismatch_is_config_error(capsys, sizes, expected):
    # one --n size once read "expected 1 or 1 values"
    code, out, err = run(capsys, "mc", "--n", sizes, "--trials", "10,20", "--seed", "1")
    assert code == EXIT_CONFIG and out == ""
    assert err.count("\n") == 1 and f"--trials: {expected}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--n", ",", "--trials", "10", "--seed", "1"],
        ["gauss", "--grid", ",", "--threshold", "1", "--trials", "10", "--seed", "1"],
        ["chainstat", "--n", "64", "--x", ",", "--y", ",", "--trials", "10", "--seed", "1"],
    ],
    ids=["mc", "gauss", "chainstat"],
)
def test_empty_integer_list_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == "" and "expected at least one integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--n", "0", "--trials", "100", "--seed", "1"],
        ["mc", "--n", "4", "--trials", "0", "--seed", "1"],
        ["mc", "--n", "4", "--trials", "-3", "--seed", "1"],
        ["gauss", "--grid", "0", "--threshold", "1", "--trials", "100", "--seed", "1"],
        ["gauss", "--grid", "8", "--threshold", "1", "--trials", "0", "--seed", "1"],
        ["gauss", "--grid", "1", "--threshold", "1", "--trials", "100", "--seed", "1", "--mode", "zeta"],
        ["chainstat", "--n", "64", "--x", "0", "--y", "8", "--trials", "10", "--seed", "1"],
        ["chainstat", "--n", "64", "--x", "8", "--y", "65", "--trials", "10", "--seed", "1"],
        ["chainstat", "--n", "0", "--x", "8", "--y", "8", "--trials", "10", "--seed", "1"],
        ["chainstat", "--n", "64", "--x", "8", "--y", "8", "--trials", "0", "--seed", "1"],
        # above int32 draws: it once asked for 8 GiB of pools and ended in a traceback
        ["chainstat", "--n", "2147483700", "--x", "1", "--y", "1", "--trials", "1", "--seed", "1"],
        # numpy's hypergeometric takes populations below 10^9
        ["chainstat", "--n", "1000000000", "--x", "1", "--y", "1", "--trials", "1", "--seed", "1", "--stat", "strip"],
        ["lishao", "--rho", "1"],
        ["lishao", "--rho", "4", "--index-range", "0"],
        ["hyper", "--N", "5", "--A", "7", "--B", "7", "--k", "1"],
        ["hyper", "--N", "-1", "--A", "0", "--B", "0", "--moments"],
        ["hyper", "--N", "1", "--A", "1", "--B", "1", "--moments"],
        ["bernratio", "--n", "1", "--k", "0"],
        ["bernratio", "--n", "8", "--k", "-1"],
        ["bernratio", "--n", "8", "--k", "99"],
        ["fkg", "--n", "9", "--seed", "1"],
        ["fkg", "--n", "0", "--seed", "1"],
        ["zmin", "--pi", "1", "--tau", "1 2"],
        ["check", "--pi", "2 1", "--tau", "1 2 3"],
        ["check", "--pi", "2 1", "--tau", "1 2 3", "--order", "weak"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_misuse_is_one_line_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == "" and err.count("\n") == 1 and err.startswith("config error: ")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--n", "4", "--trials", "100"],
        ["gauss", "--grid", "8", "--threshold", "1", "--trials", "100"],
        ["chainstat", "--n", "64", "--x", "8", "--y", "8", "--trials", "10"],
        ["hyper", "--N", "5", "--A", "2", "--B", "2", "--sample", "10"],
        ["fkg", "--n", "3"],
        ["pipeline-scaling", "--n-grid", "4,6,8,12", "--trials", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_outside_64_bits_is_config_error(capsys, tmp_path, argv, seed):
    # -1 and 2^64 once drew seed 0's stream and exited 0
    out_dir = tmp_path / "run"
    extra = ["--out-dir", str(out_dir)] if argv[0] == "pipeline-scaling" else []
    code, out, err = run(capsys, *argv, f"--seed={seed}", *extra)
    assert code == EXIT_CONFIG
    assert out == "" and err.count("\n") == 1 and err.startswith("config error: ")
    assert err.endswith(f"seed must lie in [0, 2^64), got {seed}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mc", "--n", "4,4", "--trials", "100,200", "--seed", "1"], "size 4 appears more than once"),
        (["gauss", "--grid", "8,16,8", "--threshold", "1", "--trials", "100", "--seed", "1"],
         "size 8 appears more than once"),
        (["pipeline-scaling", "--n-grid", "4,4", "--trials", "100", "--seed", "1"], "strictly increasing"),
    ],
    ids=["mc", "gauss", "pipeline-scaling"],
)
def test_repeated_size_is_config_error(capsys, tmp_path, argv, message):
    # a repeated size re-runs the same trial streams, so it is no second point
    out_dir = tmp_path / "run"
    extra = ["--out-dir", str(out_dir)] if argv[0] == "pipeline-scaling" else []
    code, out, err = run(capsys, *argv, *extra)
    assert code == EXIT_CONFIG
    assert out == "" and err.count("\n") == 1 and message in err
    assert not out_dir.exists()


MC_ARGV = ["mc", "--n", "4", "--trials", "100", "--seed", "1", "--out"]
GAUSS_ARGV = ["gauss", "--grid", "8", "--threshold", "1", "--trials", "10", "--seed", "1", "--out"]
CHAINSTAT_ARGV = ["chainstat", "--n", "64", "--x", "8", "--y", "8", "--trials", "10", "--seed", "1", "--out"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (MC_ARGV + ["{dir}"], "Is a directory"),
        (GAUSS_ARGV + ["{file}/x.csv"], "File exists"),
        (["pipeline-scaling", "--n-grid", "4,6,8,12", "--trials", "100", "--seed", "1", "--out-dir", "{file}"],
         "File exists"),
        (MC_ARGV + ["{file}/x.csv"], "File exists"),
        (GAUSS_ARGV + ["{dir}"], "Is a directory"),
        (CHAINSTAT_ARGV + ["{dir}"], "Is a directory"),
        (CHAINSTAT_ARGV + ["{file}/x.csv"], "File exists"),
    ],
    ids=[
        "mc-out-directory", "gauss-out-under-file", "pipeline-out-dir-file", "mc-out-under-file",
        "gauss-out-directory", "chainstat-out-directory", "chainstat-out-under-file",
    ],
)
def test_unwritable_output_is_one_line_config_error(capsys, tmp_path, monkeypatch, argv, reason):
    # each of these once ended in an OSError traceback and exit code 1, and
    # all but pipeline-scaling once ran the whole estimate before failing:
    # no estimator may be reached now
    def unreachable(*args, **kwargs):
        raise AssertionError("an estimate ran before the output path was checked")

    for estimator in ("estimate_comparability", "sheet_persistence", "sheet_persistence_grid", "max_rect_stat"):
        monkeypatch.setattr(f"bruhatmc.cli.{estimator}", unreachable)
    paths = {"dir": tmp_path / "existing", "file": tmp_path / "existing.txt"}
    paths["dir"].mkdir()
    paths["file"].write_text("keep\n")
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == "" and "Traceback" not in err and err.count("config error") == 1
    assert err.splitlines()[-1] == f"config error: cannot write {argv[-1]}: {reason}"
    assert paths["file"].read_text() == "keep\n" and list(paths["dir"].iterdir()) == []


def test_writable_output_check_leaves_no_file(capsys, tmp_path, monkeypatch):
    def refused(*args, **kwargs):
        raise ValueError("stop after the check")

    monkeypatch.setattr("bruhatmc.cli.estimate_comparability", refused)
    out = tmp_path / "new" / "mc.csv"
    with pytest.raises(ValueError, match="stop after the check"):
        main(["mc", "--n", "4", "--trials", "100", "--seed", "1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command, argv", [("_cmd_gauss", GAUSS_ARGV), ("_cmd_mc", MC_ARGV)])
def test_interrupt_is_one_line_exit_130(capsys, tmp_path, monkeypatch, command, argv):
    # a Ctrl-C once ended in a 40-50 line KeyboardInterrupt traceback and
    # exit code -2; now it writes one line, no output file and no manifest
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(f"bruhatmc.cli.{command}", interrupted)
    code, out, err = run(capsys, *argv, str(tmp_path / "out.csv"))
    assert code == EXIT_INTERRUPTED == 130
    assert out == "" and err == "interrupted\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "error, code, last",
    [
        (OSError(errno.ENOSPC, "No space left on device"), EXIT_CONFIG, "config error: cannot write "),
        (KeyboardInterrupt(), EXIT_INTERRUPTED, "interrupted"),
    ],
    ids=["oserror", "interrupt"],
)
@pytest.mark.parametrize(
    "argv",
    [MC_ARGV + ["{dir}/out.csv"], ["pipeline-scaling", "--n-grid", "4,6,8,12", "--trials", "100", "--seed", "1",
                                  "--out-dir", "{dir}/run"]],
    ids=["mc", "pipeline-scaling"],
)
def test_failed_manifest_write_leaves_no_file(capsys, tmp_path, monkeypatch, argv, error, code, last):
    # main once wrote each data file in place and then its manifest, so a
    # failure at the manifest left the data files without one
    write_bytes = Path.write_bytes

    def failing(path, data):
        if ".manifest.json" in path.name:
            raise error
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", failing)
    got, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert got == code and err.splitlines()[-1].startswith(last)
    assert [path for path in tmp_path.rglob("*") if not path.is_dir()] == []


def _data_digest(text: str) -> str:
    # sha256 of a CSV's data rows: the schema line (it names the software
    # version) and the column header are left out
    return hashlib.sha256("".join(text.splitlines(keepends=True)[2:]).encode()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ["gauss", "--grid", "8,32", "--threshold", "1", "--trials", "20000", "--seed", "5"],
            "1a06d84c149cee1a2ec09c50a70a51cf450cba815c7b93c736a5100bc6aac0c2", id="gauss-v3",
        ),
        pytest.param(
            ["mc", "--n", "3,12,40,100", "--trials", "20000", "--seed", "11", "--force"],
            "1a45ddee929116332c415dd025c5af92a849bc731b4bdf07ab678cbc0f769c41", id="mc-v5",
        ),
        pytest.param(
            ["pipeline-scaling", "--n-grid", "4,6,8,16,32,64", "--trials", "8192,8192,8192,32768,65536,131072",
             "--seed", "20261017"],
            "076d58d51f5c1b3df18456f155f229e1ca0af04a9ac91cd0493477ea5ced6f17", id="mc-grid",
        ),
        pytest.param(
            ["chainstat", "--n", "256", "--x", "16,64", "--y", "64,16", "--stat", "rect", "--trials", "1000",
             "--seed", "8"],
            "dbc56510d8be9ad035c8fe7362f32ec534f9263ec21117714d16888dfeaf7fdb", id="chainstat-v4-rect",
        ),
        pytest.param(
            ["chainstat", "--n", "256", "--x", "16,64", "--y", "64,16", "--stat", "strip", "--trials", "1000",
             "--seed", "8"],
            "03c3edd96860600135b4b9be806f429f65effb2960e638119521f83de4b5aa52", id="chainstat-v4-strip",
        ),
    ],
)
def test_output_digest_pinned(capsys, tmp_path, argv, digest, workers):
    # pinned counts miss a change in float summation order; these digests
    # see every byte of the p_hat and interval columns too
    if argv[0] == "pipeline-scaling":
        argv = argv + ["--out-dir", str(tmp_path)]
    code, out, _ = run(capsys, *argv, "--workers", workers)
    assert code == EXIT_OK
    text = (tmp_path / "results.csv").read_text() if argv[0] == "pipeline-scaling" else out
    assert _data_digest(text) == digest


@pytest.mark.parametrize(
    "argv, params",
    [
        pytest.param(
            ["mc", "--n", "4,6", "--trials", "3000", "--seed", "9", "--out", "{dir}/mc.csv"],
            {"n": [4, 6], "trials": [3000, 3000], "seed": 9},
            id="mc",
        ),
        pytest.param(
            ["gauss", "--grid", "4,8", "--threshold", "0.5", "--trials", "2000", "--seed", "5", "--mode", "zeta",
             "--out", "{dir}/gauss.csv"],
            {"grid": [4, 8], "trials": [2000, 2000], "threshold": 0.5, "mode": "zeta", "p": "default-1/m^2",
             "seed": 5},
            id="gauss",
        ),
        pytest.param(
            ["chainstat", "--n", "64", "--x", "8,16", "--y", "16,8", "--trials", "40", "--seed", "4",
             "--stat", "strip", "--out", "{dir}/chain.csv"],
            {"n": 64, "x": [8, 16], "y": [16, 8], "stat": "strip", "trials": 40, "seed": 4},
            id="chainstat",
        ),
        pytest.param(
            ["fit", "--input", "{dir}/in.csv", "--out", "{dir}/fit.json"], {"input": "{dir}/in.csv"}, id="fit",
        ),
        pytest.param(
            ["pipeline-scaling", "--n-grid", "4,6,8", "--trials", "2000", "--seed", "3", "--out-dir", "{dir}/run"],
            {"n_grid": "4,6,8", "trials": "2000", "seed": "3", "workers": "1", "out_dir": "{dir}/run",
             "force": "false"},
            id="pipeline-scaling",
        ),
    ],
)
def test_manifest_records_params_digests_and_reruns(capsys, tmp_path, argv, params):
    # gauss once recorded only grid and seed; every run's params now start
    # with its command
    argv = [arg.format(dir=tmp_path) for arg in argv]
    params = {k: v.format(dir=tmp_path) if isinstance(v, str) else v for k, v in params.items()}
    if argv[0] == "fit":
        mc = ["mc", "--n", "4,6,8", "--trials", "4000", "--seed", "2", "--out", str(tmp_path / "in.csv")]
        assert main(mc) == EXIT_OK
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out == ""
    if argv[0] == "pipeline-scaling":
        outputs = [tmp_path / "run/results.csv", tmp_path / "run/fit.json"]
    else:
        outputs = [Path(argv[argv.index("--out") + 1])]
    manifest_path = outputs[0].with_name(outputs[0].name + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["argv"] == argv
    assert manifest["params"] == {"command": argv[0], **params}
    first = [path.read_bytes() for path in outputs]
    digests = {str(path): hashlib.sha256(data).hexdigest() for path, data in zip(outputs, first)}
    assert manifest["outputs"] == digests
    for path in outputs:
        path.unlink()
    assert rerun_manifest(manifest_path) == EXIT_OK
    assert [path.read_bytes() for path in outputs] == first


def test_value_error_inside_a_command_propagates(monkeypatch):
    # an internal fault must not be reported as a user's config error
    def broken(n):
        raise ValueError("internal fault")

    monkeypatch.setattr("bruhatmc.cli.exact_comparability_count", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["exact", "--n", "3"])


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

    def test_config_seed_outside_64_bits_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out_dir = tmp_path / "run"
        cfg.write_text(f"n_grid = 4,6,8,12\ntrials = 100\nseed = -1\nout_dir = {out_dir}\n")
        code, out, err = run(capsys, "pipeline-scaling", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert out == "" and err == "config error: seed must lie in [0, 2^64), got -1\n"
        assert not out_dir.exists()

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_grd = 4,6\n")
        code, _, err = run(capsys, "pipeline-scaling", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "unknown key" in err

    @pytest.mark.parametrize("line", ["seed = one", "workers = 2.5"])
    def test_non_integer_value_is_config_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"n_grid = 4,6\ntrials = 10\n{line}\nout_dir = {tmp_path / 'run'}\n")
        code, out, err = run(capsys, "pipeline-scaling", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert out == "" and err.count("\n") == 1 and "expected an integer" in err

    @pytest.mark.parametrize(
        "value, code",
        [
            ("flase", EXIT_CONFIG), ("2", EXIT_CONFIG), ("on", EXIT_CONFIG), ("", EXIT_CONFIG),
            ("YES", EXIT_OK), ("True", EXIT_OK), ("1", EXIT_OK), ("No", EXIT_LOWCOUNT), ("0", EXIT_LOWCOUNT),
        ],
    )
    def test_force_must_be_boolean(self, capsys, tmp_path, value, code):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"n_grid = 4,128\ntrials = 10\nforce = {value}\nout_dir = {tmp_path / 'run'}\n")
        got, out, err = run(capsys, "pipeline-scaling", "--config", str(cfg))
        assert got == code
        if code == EXIT_CONFIG:
            assert out == "" and err.count("\n") == 1 and "force: expected true/false" in err

    def test_missing_config_is_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "pipeline-scaling", "--config", str(tmp_path / "absent.cfg"))
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "absent.cfg: cannot read" in err

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


@pytest.mark.parametrize(
    "argv, key",
    [
        (["mc", "--n", "4,64", "--trials", "2000", "--seed", "1"], "n"),
        (["pipeline-scaling", "--n-grid", "4,64", "--trials", "2000", "--seed", "1"], "n"),
        (["gauss", "--grid", "4,64", "--threshold", "1", "--trials", "2000", "--seed", "1"], "m"),
    ],
)
def test_low_count_is_logged_once_per_unresolved_size(capsys, tmp_path, argv, key):
    if argv[0] == "pipeline-scaling":
        argv = argv + ["--out-dir", str(tmp_path / "run")]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK
    low = [line for line in err.splitlines() if line.startswith("LOW-COUNT:")]
    # size 4 resolves (hundreds of successes), size 64 does not
    assert len(low) == 1 and low[0].startswith(f"LOW-COUNT: {key}=64 produced only ")


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


LAZY_IMPORT_SCRIPT = """
import sys
import bruhatmc.cli
print(sorted(m for m in ("mpmath", "concurrent.futures", "multiprocessing", "numpy.random") if m in sys.modules))
"""


def test_cli_import_leaves_lazy_modules_unloaded():
    # the code that needs mpmath, numpy.random or the helpers' pipes
    # (multiprocessing) imports it, and no path needs concurrent.futures,
    # so start-up (check, --version) pays for none of them
    src = str(Path(bruhatmc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_SCRIPT], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fit_manifest_records_include_low_count(capsys, tmp_path):
    # the flag changes fit.json, so the params must say it was set
    mc = ["mc", "--n", "4,6,8,12,24", "--trials", "400", "--seed", "2", "--out", str(tmp_path / "in.csv")]
    assert main(mc) == EXIT_OK
    plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
    assert main(["fit", "--input", str(tmp_path / "in.csv"), "--out", str(plain)]) == EXIT_OK
    argv = ["fit", "--input", str(tmp_path / "in.csv"), "--out", str(flagged), "--include-low-count"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out == ""
    first = flagged.read_bytes()
    assert first != plain.read_bytes()
    manifest_path = tmp_path / "flagged.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["params"] == {"command": "fit", "input": str(tmp_path / "in.csv"), "include_low_count": True}
    flagged.unlink()
    assert rerun_manifest(manifest_path) == EXIT_OK
    assert flagged.read_bytes() == first


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mc", "--n", "4", "--trials", "10"], "the following arguments are required: --seed"),
        (["mc", "--n", "4", "--trials", "10", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["missing-flag", "bad-int", "unknown-subcommand"],
)
def test_argparse_misuse_is_one_line_config_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}") and captured.err.count("\n") == 1
