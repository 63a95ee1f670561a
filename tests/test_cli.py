"""Command line behavior: formats, exit codes, determinism, degenerate inputs."""
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import qtradeoff
from qtradeoff.cli import main

from conftest import shift_closed_form

PI8 = math.pi / 8


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env() -> dict:
    """The environment with this package's src/ first on PYTHONPATH, for child interpreters."""
    src = str(pathlib.Path(qtradeoff.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestCurve:
    def test_csv_structure_and_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, ["curve", "--fsq", "0.5", "--points", "5"])
        assert code == 0
        assert out.endswith("\n")
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,t,P,D,beta_t,info,dist,identity_residual"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert (first[2], first[3]) == (0.5, 0.0)
        assert last[2] == pytest.approx(0.8535533905932737, abs=1e-9)
        assert last[3] == pytest.approx(0.0669872981077807, abs=1e-9)

    def test_degenerate_fsq_zero_blanks_normalized_columns(self, capsys):
        code, out, err = run_cli(capsys, ["curve", "--fsq", "0", "--points", "3"])
        assert code == 0
        assert "normalization is undefined" in err
        row = out.strip().split("\n")[1].split(",")
        assert row[5] == row[6] == row[7] == ""

    def test_degenerate_fsq_one_blanks_normalized_columns(self, capsys):
        code, out, err = run_cli(capsys, ["curve", "--fsq", "1", "--points", "3"])
        assert code == 0
        assert "normalization is undefined" in err
        last = out.strip().split("\n")[-1].split(",")
        assert float(last[2]) == pytest.approx(0.5, abs=1e-12)
        assert last[5] == ""

    def test_tiny_alpha(self, capsys):
        code, _, _ = run_cli(capsys, ["curve", "--alpha", "1e-8", "--points", "3"])
        assert code == 0

    def test_near_degenerate_alpha_ends_at_full_disturbance(self, capsys):
        code, out, _ = run_cli(capsys, ["curve", "--alpha", "0.78539815", "--points", "3",
                                        "--format", "json"])
        assert code == 0
        assert abs(json.loads(out)["points"][-1]["dist"] - 1.0) <= 1e-12

    def test_near_degenerate_alpha_info_is_t(self, capsys):
        # (P - 1/2)/(P_opt - 1/2) cancels as alpha -> pi/4; on the curve info = t
        code, out, _ = run_cli(capsys, ["curve", "--alpha", "0.78539815", "--points", "11"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[5] for r in rows] == [r[1] for r in rows]

    def test_json_key_order(self, capsys):
        _, out, _ = run_cli(capsys, ["curve", "--fsq", "0.5", "--points", "2", "--format", "json"])
        payload = json.loads(out)
        assert list(payload) == ["library", "version", "rng", "alpha", "points"]
        assert list(payload["points"][0]) == ["alpha", "t", "P", "D", "beta_t", "info", "dist",
                                              "identity_residual"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["curve", "--fsq", "0.25", "--points", "3",
                                        "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["library"] == "qtradeoff"
        assert len(payload["points"]) == 3
        assert payload["points"][0]["P"] == 0.5

    def test_degrees_flag(self, capsys):
        # 22.5 degrees and f^2 = 1/2 name the same pair (up to 1 ulp in alpha)
        _, out_deg, _ = run_cli(capsys, ["curve", "--alpha", "22.5", "--degrees",
                                         "--points", "3"])
        _, out_fsq, _ = run_cli(capsys, ["curve", "--fsq", "0.5", "--points", "3"])
        for line_a, line_b in zip(out_deg.strip().split("\n")[1:],
                                  out_fsq.strip().split("\n")[1:]):
            for a, b in zip(line_a.split(","), line_b.split(",")):
                assert float(a) == pytest.approx(float(b), abs=1e-12)

    def test_alpha_folding_warns(self, capsys):
        code, out, err = run_cli(capsys, ["curve", "--alpha", "1.2", "--points", "3"])
        assert code == 0
        assert "folded" in err
        assert float(out.strip().split("\n")[1].split(",")[0]) == pytest.approx(
            math.pi / 2 - 1.2, abs=1e-9)

    # --out takes exactly the bytes stdout would get, for every command
    @pytest.mark.parametrize("argv", [
        ["curve", "--fsq", "0.5", "--points", "3"],
        ["point", "--fsq", "0.5", "--t", "0.5"],
        ["verify", "--fsq", "0.5", "--points", "2"],
        ["simulate", "--fsq", "0.5", "--t", "0.7", "--shots", "1000", "--seed", "5"],
    ], ids=lambda argv: argv[0])
    def test_out_file(self, argv, capsys, tmp_path):
        _, expected, _ = run_cli(capsys, argv)
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, argv + ["--out", str(target)])
        assert code == 0
        assert out == ""
        assert expected and target.read_text() == expected


class TestPoint:
    def test_full_strength_point(self, capsys):
        code, out, _ = run_cli(capsys, ["point", "--fsq", "0.5", "--t", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["beta_t"] == pytest.approx(0.4776583090622546, abs=1e-9)
        e1 = payload["kraus"][0]
        # rank-1 Kraus: second column vanishes
        assert abs(e1[0][1][0]) < 1e-12 and abs(e1[1][1][0]) < 1e-12

    def test_key_order(self, capsys):
        _, out, _ = run_cli(capsys, ["point", "--fsq", "0.5", "--t", "0.5"])
        assert list(json.loads(out)) == ["library", "version", "rng", "alpha", "t", "P", "D",
                                         "beta_t", "gamma", "info", "dist", "identity_residual",
                                         "kraus", "povm"]

    def test_half_strength_povm(self, capsys):
        code, out, _ = run_cli(capsys, ["point", "--fsq", "0.5", "--t", "0.5"])
        payload = json.loads(out)
        povm0 = payload["povm"][0]
        assert povm0[0][0][0] == pytest.approx(0.75, abs=1e-12)
        assert povm0[1][1][0] == pytest.approx(0.25, abs=1e-12)

    def test_no_measurement_kraus(self, capsys):
        _, out, _ = run_cli(capsys, ["point", "--fsq", "0.5", "--t", "0"])
        payload = json.loads(out)
        for e in payload["kraus"]:
            assert e[0][0][0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert abs(e[0][1][0]) < 1e-12

    def test_degenerate_alpha_keeps_point_but_nulls_normalization(self, capsys):
        code, out, _ = run_cli(capsys, ["point", "--fsq", "1", "--t", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["info"] is None and payload["dist"] is None


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--fsq", "0.5", "--points", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["max_gap"] <= 1e-4
        assert payload["no_superoptimality"] is True

    def test_reproducible_bytes_and_keys(self, capsys):
        argv = ["verify", "--fsq", "0.5", "--points", "5"]
        code_a, out_a, _ = run_cli(capsys, argv)
        code_b, out_b, _ = run_cli(capsys, argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert list(payload) == ["library", "version", "rng", "alpha", "tolerance", "points",
                                 "max_gap", "all_passed", "superoptimality_margin",
                                 "no_superoptimality"]
        assert list(payload["points"][0]) == ["t", "oracle_D", "closed_D", "gap", "max_residual",
                                              "lower_bound_D", "certified_gap", "passed"]

    def test_unreachable_tolerance_exits_one(self, capsys, monkeypatch):
        # a closed form off by 1e-3 must fail the default tolerance of 1e-4
        shift_closed_form(monkeypatch, 1e-3)
        code, out, _ = run_cli(capsys, ["verify", "--fsq", "0.5", "--points", "3"])
        assert code == 1
        assert json.loads(out)["all_passed"] is False

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_invalid_tolerance_is_usage_error(self, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fsq", "0.5", "--points", "2", "--tol", tol])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--restarts", "2"], ["--restrict-real"]])
    def test_removed_solver_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fsq", "0.5", "--points", "2"] + flag)
        assert exc.value.code == 2

    def test_degenerate_alpha_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fsq", "1", "--points", "2"])
        assert exc.value.code == 2


class TestSimulate:
    def test_reproducible_bytes(self, capsys):
        argv = ["simulate", "--fsq", "0.5", "--t", "0.7", "--shots", "20000", "--seed", "42"]
        _, out_a, _ = run_cli(capsys, argv)
        _, out_b, _ = run_cli(capsys, argv)
        assert out_a == out_b

    def test_key_order(self, capsys):
        _, out, _ = run_cli(capsys, ["simulate", "--fsq", "0.5", "--t", "0.7", "--shots", "1000"])
        assert list(json.loads(out)) == ["library", "version", "rng", "alpha", "t", "shots", "seed",
                                         "closed_P", "closed_D", "empirical_P", "empirical_D",
                                         "stderr_P", "stderr_D", "z_P", "z_D"]

    def test_no_measurement_has_zero_disturbance(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "--fsq", "0.5", "--t", "0",
                                        "--shots", "5000", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["empirical_D"] == 0.0
        assert payload["z_D"] == 0.0

    def test_z_scores_reported(self, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "--fsq", "0.5", "--t", "1",
                                        "--shots", "100000", "--seed", "42"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["z_P"]) <= 4
        assert abs(payload["z_D"]) <= 4
        assert payload["rng"].startswith("numpy.random.Generator(PCG64)")

    def test_small_t_disturbance_is_resolved(self, capsys):
        # D ~ 1.6e-14 here, below the round-off of 1 - fidelity
        code, out, _ = run_cli(capsys, ["simulate", "--fsq", "0.5", "--t", "0.001",
                                        "--shots", "1000000", "--seed", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["z_D"] is not None and abs(payload["z_D"]) <= 4

    # Below t ~ 1e-4 the rounding of the Kraus entries, up to 2 eps (sqrt(D) + eps),
    # exceeds the statistical stderr of D (1e-36 at t = 1e-8), and z_D counts both.
    @pytest.mark.parametrize("t", ["1e-8", "1e-6"])
    def test_tiny_t_z_score_counts_rounding(self, t, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "--fsq", "0.5", "--t", t,
                                        "--shots", "1000000", "--seed", "3"])
        assert code == 0
        assert abs(json.loads(out)["z_D"]) <= 4

    # Away from small t the rounding term vanishes beside the stderr, and z_D
    # is the plain ratio, bit for bit.
    @pytest.mark.parametrize("t", ["0.5", "1"])
    def test_z_d_is_the_stderr_ratio_away_from_small_t(self, t, capsys):
        _, out, _ = run_cli(capsys, ["simulate", "--fsq", "0.5", "--t", t, "--seed", "2024"])
        payload = json.loads(out)
        assert payload["z_D"] == (payload["empirical_D"] - payload["closed_D"]) / payload["stderr_D"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["curve", "--fsq", "0.5", "--alpha", "0.3"],
        ["curve"],
        ["curve", "--fsq", "1.5"],
        ["curve", "--fsq", "0.5", "--points", "1"],
        ["curve", "--alpha", "2.0"],
        ["point", "--fsq", "0.5", "--t", "1.5"],
        ["simulate", "--fsq", "0.5", "--t", "0.5", "--shots", "0"],
        ["curve", "--fsq", "1", "--by-probability"],
        ["simulate", "--fsq", "0.5", "--t", "1", "--seed", "-1"],
        ["simulate", "--fsq", "0.5", "--t", "1", "--seed", str(2**64)],
        ["simulate", "--fsq", "0.5", "--t", "1", "--shots", str(10**20)],
        ["curve", "--fsq", "0.5", "--points", str(10**20)],
        ["verify", "--fsq", "0.5", "--points", str(10**20)],
        ["verify", "--fsq", "0.5", "--points", "0"],
        ["verify", "--fsq", "0.5", "--points", "-3"],
        ["point", "--fsq", "0.5", "--degrees", "--t", "0.5"],
    ])
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_degrees_with_fsq_names_both_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["point", "--fsq", "0.5", "--degrees", "--t", "0.5"])
        message = capsys.readouterr().err.splitlines()[-1]
        assert "--degrees" in message and "--fsq" in message

    def test_usage_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fsq", "0.5", "--t", "1", "--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: qtradeoff simulate")

    # The library's own checks (here tradeoff_point's range of t, and numpy's
    # array size limit) are usage errors of the subcommand, and nothing is written.
    @pytest.mark.parametrize("argv", [
        ["point", "--fsq", "0.5", "--t", "1.5"],
        ["curve", "--fsq", "0.5", "--points", str(10**20)],
    ], ids=lambda argv: argv[0])
    def test_library_errors_are_usage_errors(self, argv, capsys, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: qtradeoff {argv[0]}")
        assert f"qtradeoff {argv[0]}: error: " in captured.err
        assert not target.exists()

    # np.linspace is the CLI's own call, so only the CLI can name the flag.
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_verify_grid_size_names_the_flag(self, points, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fsq", "0.5", "--points", points])
        assert exc.value.code == 2
        assert "qtradeoff verify: error: --points must be >= 1" in capsys.readouterr().err

    # A library message that begins with an option's dest names the flag, in
    # argparse's own "argument --flag:" form.
    @pytest.mark.parametrize("argv, flag", [
        (["point", "--fsq", "0.5", "--t", "1.5"], "--t"),
        (["simulate", "--fsq", "0.5", "--t", "2"], "--t"),
        (["verify", "--fsq", "0.5", "--tol", "0"], "--tol"),
        (["simulate", "--fsq", "0.5", "--t", "0.5", "--shots", "0"], "--shots"),
        (["simulate", "--fsq", "0.5", "--t", "0.5", "--seed", "-1"], "--seed"),
    ], ids=["point-t", "simulate-t", "verify-tol", "simulate-shots", "simulate-seed"])
    def test_library_errors_name_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"qtradeoff {argv[0]}: error: argument {flag}: {flag[2:]} " in capsys.readouterr().err

    @pytest.mark.parametrize("inputs", [["--alpha", "0"], ["--fsq", "0"]], ids=["alpha", "fsq"])
    def test_other_library_errors_keep_their_message(self, inputs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *inputs, "--points", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "qtradeoff verify: error: oracle requires alpha strictly inside (0, pi/4)" in err
        assert "argument --" not in err

    def test_simulate_help_states_the_caps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "[1, 2^63 - 1]" in text
        assert "[0, 2^64)" in text

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtradeoff.cli", "point", "--fsq", "0.5", "--t", "0.5"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["P"] == pytest.approx(0.6767766952966369, abs=1e-12)


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qtradeoff; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
