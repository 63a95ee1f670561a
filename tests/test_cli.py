"""Command line behavior: formats, exit codes, determinism, degenerate inputs."""
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import qtradeoff
from qtradeoff import cli
from qtradeoff import oracle as oracle_module
from qtradeoff.cli import CURVE_COLUMNS, MAX_CURVE_POINTS, MAX_VERIFY_POINTS, main
from qtradeoff.tradeoff import _curve_rows, tradeoff_identity_residual, tradeoff_point

from conftest import curve_disturbance_reference, shift_closed_form

PI8 = math.pi / 8
EPS = sys.float_info.epsilon


def assert_dist_matches_reference(dist, alpha, t):
    """dist within 1e-14 relative of D_t / D_opt at 60 digits, the bound of test_properties."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        reference = (curve_disturbance_reference(mpmath, alpha, t)
                     / curve_disturbance_reference(mpmath, alpha, 1.0))
        if reference == 0:
            assert dist == 0.0, t
        else:
            assert abs((mpmath.mpf(dist) - reference) / reference) <= 1e-14, t


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env() -> dict:
    """The environment with this package's src/ first on PYTHONPATH, for child interpreters."""
    src = str(pathlib.Path(qtradeoff.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def whole_curve():
    """alpha, n and the curve's CSV and JSON texts at n = 20001 points, built whole.

    The rows are the library's (test_rows_are_the_library_values checks their
    values); this pins how they are streamed and formatted.
    """
    alpha, n = 0.3, 20001
    rows = list(_curve_rows(alpha, [1.0 if i == n - 1 else i * (1.0 / (n - 1)) for i in range(n)]))
    payload = {"library": "qtradeoff", "version": qtradeoff.__version__, "alpha": alpha,
               "points": [dict(zip(CURVE_COLUMNS, row)) for row in rows]}
    csv = [",".join(CURVE_COLUMNS)] + [",".join(cli._fmt(v) for v in row) for row in rows]
    return alpha, n, {"json": json.dumps(payload, indent=2) + "\n", "csv": "\n".join(csv) + "\n"}


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
        # Below alpha of about 1e-162 D_opt underflows to 0; dist does not divide by it.
        for argv in (["curve", "--alpha", "1e-8", "--points", "3"],
                     ["curve", "--alpha", "1e-170", "--points", "3"],
                     ["point", "--fsq", "5e-324", "--t", "0.3"]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 0, argv
            if argv[0] == "curve":
                dists = [float(row.split(",")[6]) for row in out.strip().split("\n")[1:]]
            else:
                dists = [json.loads(out)["dist"]]
            assert all(math.isfinite(d) for d in dists), (argv, dists)

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
        assert list(payload) == ["library", "version", "alpha", "points"]
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
        # 22.5 degrees and f^2 = 1/2 name the same pair, both as the double nearest pi/8
        _, out_deg, _ = run_cli(capsys, ["curve", "--alpha", "22.5", "--degrees",
                                         "--points", "3", "--format", "json"])
        _, out_fsq, _ = run_cli(capsys, ["curve", "--fsq", "0.5", "--points", "3",
                                         "--format", "json"])
        assert out_deg == out_fsq
        assert json.loads(out_fsq)["alpha"] == PI8

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

    # The curve's JSON rows are written from a template, not by json; every
    # kind of value it can meet is spelled as json.dumps spells it.
    def test_json_rows_match_json_dumps(self):
        values = [None, 0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308,
                  2.225073858507201e-308, 1e-310, -4.9e-322, 0.30000000000000004,
                  0.39269908169872414, 1.2345678901234567e-100, 9007199254740993.0, 1e16,
                  1e22, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
        rows = [tuple(values[(i + k) % len(values)] for k in range(len(CURVE_COLUMNS)))
                for i in range(len(values))]
        for alpha in (0.39269908169872414, 5e-324, -0.0, math.nan):
            text = "".join(cli._curve_text(alpha, iter(rows), "json"))
            payload = {"library": "qtradeoff", "version": qtradeoff.__version__, "alpha": alpha,
                       "points": [dict(zip(CURVE_COLUMNS, row)) for row in rows]}
            assert text == json.dumps(payload, indent=2) + "\n"

    # The curve is written in blocks of rows as it is computed; the text is
    # the one built whole by json.dumps and by joining _fmt's fields.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_streamed_curve_is_the_whole_text(self, fmt, to_file, whole_curve, capsys, tmp_path):
        alpha, n, expected = whole_curve
        argv = ["curve", "--alpha", repr(alpha), "--points", str(n), "--format", fmt]
        target = tmp_path / "curve.txt"
        code, out, err = run_cli(capsys, argv + ["--out", str(target)] if to_file else argv)
        assert code == 0 and err == ""
        assert (target.read_text() if to_file else out) == expected[fmt]

    # JSON floats round-trip exactly, so each row is the library's own values;
    # dist is held to the 60-digit reference.
    @pytest.mark.parametrize("inputs", [["--alpha", "1e-170"], ["--alpha", "1e-8"],
                                        ["--alpha", "0.39"], ["--alpha", repr(math.pi / 4 - 1e-12)],
                                        ["--fsq", "0.5"]])
    def test_rows_are_the_library_values(self, inputs, capsys):
        code, out, _ = run_cli(capsys, ["curve", *inputs, "--points", "257", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        alpha, rows = payload["alpha"], payload["points"]
        assert (rows[0]["t"], rows[-1]["t"]) == (0.0, 1.0)
        for row in rows:
            pt = tradeoff_point(alpha, row["t"])
            assert_dist_matches_reference(row["dist"], alpha, pt.t)
            expected = dict(zip(CURVE_COLUMNS, (*pt[:5], pt.t, row["dist"],
                                                tradeoff_identity_residual(alpha, pt.t, row["dist"]))))
            assert row == expected, row["t"]

    @pytest.mark.parametrize("points", ["1", str(MAX_CURVE_POINTS + 1)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_points_outside_the_range_write_nothing(self, points, fmt, capsys, tmp_path):
        target = tmp_path / "curve.txt"
        for extra in ([], ["--out", str(target)]):
            with pytest.raises(SystemExit) as exc:
                main(["curve", "--fsq", "0.5", "--points", points, "--format", fmt, *extra])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        assert not target.exists()


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
        assert list(json.loads(out)) == ["library", "version", "alpha", "t", "P", "D", "beta_t",
                                         "gamma", "info", "dist", "identity_residual", "kraus",
                                         "povm"]

    def test_half_strength_povm(self, capsys):
        code, out, _ = run_cli(capsys, ["point", "--fsq", "0.5", "--t", "0.5"])
        payload = json.loads(out)
        povm0 = payload["povm"][0]
        assert povm0[0][0][0] == pytest.approx(0.75, abs=1e-12)
        assert povm0[1][1][0] == pytest.approx(0.25, abs=1e-12)

    # The feedback rotation cancels in E^T E, so the POVM is diag((1+t)/2, (1-t)/2)
    # and its mirror at every alpha, each entry correctly rounded.
    @pytest.mark.parametrize("alpha", ["1e-8", "0.1", "0.3926990816987", "0.7", "0.7853981"])
    def test_povm_is_exact(self, alpha, capsys):
        for t in (0.0, 1e-8, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0):
            _, out, _ = run_cli(capsys, ["point", "--alpha", alpha, "--t", repr(t)])
            hi, lo = float((1 + Fraction(t)) / 2), float((1 - Fraction(t)) / 2)
            assert json.loads(out)["povm"] == [[[[hi, 0.0], [0.0, 0.0]], [[0.0, 0.0], [lo, 0.0]]],
                                               [[[lo, 0.0], [0.0, 0.0]], [[0.0, 0.0], [hi, 0.0]]]], t

    def test_no_measurement_kraus(self, capsys):
        _, out, _ = run_cli(capsys, ["point", "--fsq", "0.5", "--t", "0"])
        payload = json.loads(out)
        for e in payload["kraus"]:
            assert e[0][0][0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            assert abs(e[0][1][0]) < 1e-12

    # alpha = atan2(sqrt(fsq), sqrt(1 - fsq))/2 keeps every digit near fsq = 1,
    # where asin(sqrt(fsq)) lost half of them (1.1e-4 relative in D at 1 - 1e-12).
    # What is left is the float grid of alpha: D ~ (pi/4 - a)^2 there, so an
    # error of eps in alpha is 2 eps/(pi/4 - a) relative in D.
    @pytest.mark.parametrize("fsq", ["0.1", "0.5", "0.9", "0.99", "0.999999", "0.99999999",
                                     "0.9999999999", "0.999999999999", "0.9999999999999999"])
    @pytest.mark.parametrize("t", ["0.5", "1"])
    def test_fsq_against_mpmath(self, fsq, t, capsys):
        mpmath = pytest.importorskip("mpmath")
        _, out, _ = run_cli(capsys, ["point", "--fsq", fsq, "--t", t])
        payload = json.loads(out)
        with mpmath.workdps(60):
            alpha = mpmath.asin(mpmath.sqrt(mpmath.mpf(float(fsq)))) / 2
            reference = curve_disturbance_reference(mpmath, alpha, float(t))
            assert abs(payload["alpha"] - alpha) <= EPS * alpha
            bound = 1e-14 + 2 * EPS / float(mpmath.pi / 4 - alpha)
            assert abs(payload["D"] - reference) <= bound * reference

    @pytest.mark.parametrize("inputs", [["--alpha", "1e-170"], ["--alpha", "1e-8"],
                                        ["--alpha", "0.39"], ["--alpha", repr(math.pi / 4 - 1e-12)],
                                        ["--fsq", "0.5"]])
    def test_values_are_the_library_values(self, inputs, capsys):
        for t in (0.0, 1e-8, 0.5, 1.0 - 1e-13, 1.0):
            _, out, _ = run_cli(capsys, ["point", *inputs, "--t", repr(t)])
            payload = json.loads(out)
            pt = tradeoff_point(payload["alpha"], t)
            assert [payload[k] for k in ("t", "P", "D", "beta_t", "gamma")] == list(pt[1:]), t
            assert_dist_matches_reference(payload["dist"], pt.alpha, t)
            assert payload["identity_residual"] == tradeoff_identity_residual(
                pt.alpha, t, payload["dist"]), t

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
        assert list(payload) == ["library", "version", "alpha", "tolerance", "points", "max_gap",
                                 "all_passed", "superoptimality_margin", "no_superoptimality"]
        assert list(payload["points"][0]) == ["t", "oracle_D", "closed_D", "gap", "max_residual",
                                              "lower_bound_D", "certified_gap", "passed"]

    def test_unreachable_tolerance_exits_one(self, capsys, monkeypatch):
        # a closed form off by 1e-3 must fail the default tolerance of 1e-4
        shift_closed_form(monkeypatch, 1e-3)
        code, out, _ = run_cli(capsys, ["verify", "--fsq", "0.5", "--points", "3"])
        assert code == 1
        assert json.loads(out)["all_passed"] is False

    # verify solves on the plain entries symmetric_pair is built from, not on an
    # Ensemble; the report is the library's, value for value, on both edges.
    @pytest.mark.parametrize("alpha", ["1e-300", "1e-8", "0.39", "0.7853981"])
    def test_report_matches_verify_closed_form(self, capsys, alpha):
        from qtradeoff import symmetric_pair, verify_closed_form

        code, out, _ = run_cli(capsys, ["verify", "--alpha", alpha, "--points", "41"])
        report = verify_closed_form(symmetric_pair(float(alpha)), list(cli._t_grid(41)))
        payload = json.loads(out)
        del payload["library"], payload["version"]
        assert payload == json.loads(json.dumps(report.as_dict()))
        assert code == (0 if report.all_passed else 1)

    def test_infeasible_oracle_point_exits_one(self, capsys, monkeypatch):
        # a point passes only if its residuals, too, are within FEASIBILITY_ATOL (1e-6)
        exact = oracle_module._solve
        monkeypatch.setattr(oracle_module, "_solve", lambda states, t: exact(states, t)._replace(
            constraint_residuals=(0.0, 2e-6, 0.0, 0.0)))
        code, out, _ = run_cli(capsys, ["verify", "--fsq", "0.5", "--points", "3"])
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False and payload["max_gap"] <= payload["tolerance"]
        assert [(p["max_residual"], p["passed"]) for p in payload["points"]] == [(2e-6, False)] * 3

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

    # The library's own checks (here tradeoff_point's range of t) and the CLI's
    # --points cap are usage errors of the subcommand, and nothing is written.
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

    # The t grid is the CLI's own, so only the CLI can name the flag.
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_verify_grid_size_names_the_flag(self, points, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fsq", "0.5", "--points", points])
        assert exc.value.code == 2
        assert "qtradeoff verify: error: --points must be >= 1" in capsys.readouterr().err

    # The caps keep the worst accepted call near 30 s and under 1 GiB; cap + 1
    # is refused before any work, and --help states the cap.
    @pytest.mark.parametrize("command, cap", [("curve", MAX_CURVE_POINTS),
                                              ("verify", MAX_VERIFY_POINTS)])
    def test_points_above_the_cap(self, command, cap, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--fsq", "0.5", "--points", str(cap + 1)])
        assert exc.value.code == 2
        assert f"qtradeoff {command}: error: --points must be <= {cap}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert f"to {cap} (default" in " ".join(capsys.readouterr().out.split())

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


# curve and point need only the closed forms: they load neither numpy nor
# importlib.metadata, nor dataclasses and the inspect module it imports, and
# their JSON names no RNG, since none runs. curve, in either format, does not
# load json either; this script imports it only after the curve commands ran.
_NUMPY_FREE_SCRIPT = """
import contextlib, io, sys
import qtradeoff
from qtradeoff.cli import main
HEAVY = ("numpy", "importlib.metadata", "dataclasses", "inspect")
loaded, outputs = {"import": [m for m in HEAVY if m in sys.modules]}, []
for argv in (["curve", "--fsq", "0.5", "--points", "5"],
             ["curve", "--fsq", "0.5", "--points", "5", "--format", "json"],
             ["point", "--fsq", "0.5", "--t", "0.5"]):
    if argv[0] == "point":
        loaded["json after curve"] = "json" in sys.modules
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    loaded[" ".join(argv)] = [m for m in HEAVY if m in sys.modules]
    outputs.append(out.getvalue())
import json
rng_keys = ["rng" in json.loads(text) for text in outputs if text.startswith("{")]
print(json.dumps({"loaded": loaded, "rng_keys": rng_keys}))
"""


def test_closed_form_commands_do_not_load_numpy():
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_SCRIPT],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["loaded"]) == 5, report["loaded"]
    assert not any(report["loaded"].values()), report["loaded"]
    assert report["rng_keys"] == [False, False]


# verify runs the oracle on the pair's plain entries, with an exact integer
# certificate: at 1 point (the face), 5 and 401 it loads neither numpy nor
# importlib.metadata. It does load dataclasses, for its report.
_NUMPY_FREE_VERIFY_SCRIPT = """
import contextlib, io, json, sys
from qtradeoff.cli import main
loaded = {}
for points in ("1", "5", "401"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--fsq", "0.5", "--points", points]) == 0
    loaded[points] = [m for m in ("numpy", "importlib.metadata") if m in sys.modules]
print(json.dumps(loaded))
"""


def test_verify_does_not_load_numpy():
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_VERIFY_SCRIPT],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"1": [], "5": [], "401": []}


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qtradeoff; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
