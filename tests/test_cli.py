"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import io
import math
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import densecoding
from densecoding import (
    BellLabel,
    DephasingTimes,
    EncodingScheme,
    JointSpectrum,
    bell_state,
    closed_form_mi4,
    concurrence,
    conditional_probabilities,
    decoherence_function,
    density_matrix_from_text,
    density_matrix_to_text,
    effective_visibility,
    evolve_pre_encoding,
    expected_tomography_counts,
    mutual_information,
    parse_config,
    reconstruct_linear_inversion,
    run_sweep,
    simulate_protocol,
    sweep_rows_to_csv,
    tomography_counts,
)
from densecoding import cli, experiment, states
from densecoding.cli import _build_parser, main
from densecoding.config import CONFIG_DEFAULTS




def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_SWEEP = "t_list = 0.0, 0.9, 1.905\nn_per_input = 2000\ntrials = 40\n"

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
# The two sweeps of the dense benchmark workload: 1001 rows at two trials.
DENSE_SWEEP = ("scheme = FOUR_STATE\nk = -0.5\nn_per_input = 10000\ntrials = 2\n"
               "t_start = 0\nt_stop = 2\nt_step = 0.002\nseed = 1234\n")


class TestSweep:
    def test_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP)
        out = tmp_path / "sweep.csv"
        code, stdout, stderr = run_cli(
            ["sweep", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0 and stderr == "" and stdout == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "t_a,kappa_abs,concurrence,mi_theory,mi_mc_mean,mi_mc_std,scheme"
        assert len(lines) == 4

    def test_flat_theory_column_for_fitted_three_state_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP + "s = 0.0749\nk = -1\n")
        code, stdout, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 0
        theory = {line.split(",")[3] for line in stdout.splitlines()[1:]}
        assert len(theory) == 1
        assert float(theory.pop()) == pytest.approx(math.log2(3.0) - 0.0749, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP + "seed = 7\n")
        _, first, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        _, second, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert first == second

    @pytest.mark.parametrize("text", [
        pytest.param(DENSE_SWEEP + "c_bb = 2\nnoise_order = NOISE_BEFORE_ENCODING\n",
                     id="dense_c_bb=2"),
        pytest.param(DENSE_SWEEP + "noise_order = NOISE_AFTER_ENCODING\n",
                     id="dense_after_encoding"),
        pytest.param((DEMO_CONFIGS / "three_state.cfg").read_text(), id="three_state.cfg"),
        pytest.param("", id="default"),
    ])
    def test_bytes_equal_csv_of_run_sweep_rows(self, text, tmp_path, capsys):
        # The command writes the CSV from stacked columns, not from SweepRows.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, stdout, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 0
        c = parse_config(text)
        rows = run_sweep(c.spectrum, c.time_grid, c.scheme, c.n_per_input, c.trials,
                         c.seed, c.s, c.noise_order)
        assert stdout == sweep_rows_to_csv(rows)

    @pytest.mark.parametrize("text", [
        pytest.param("", id="default"),
        pytest.param((DEMO_CONFIGS / "three_state.cfg").read_text(), id="three_state.cfg"),
        pytest.param(DENSE_SWEEP + "c_bb = 2\nnoise_order = NOISE_AFTER_ENCODING\n",
                     id="dense_c_bb=2_after_encoding"),
    ])
    def test_concurrence_field_is_the_kappa_abs_field(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, stdout, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 0
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        assert len(rows) == len(parse_config(text).time_grid)
        assert [row[2] for row in rows] == [row[1] for row in rows]

    def test_override_flags_mirror_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP)
        _, base, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        _, overridden, _ = run_cli(
            ["sweep", "--config", str(cfg), "--k", "0"], capsys)
        assert base != overridden


class TestShow:
    def test_endpoints_match_sweep_rows(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_SWEEP + "s = 0.0749\nk = -0.5\nscheme = FOUR_STATE\n"
                       "noise_order = NOISE_AFTER_ENCODING\n")
        _, shown, _ = run_cli(["show", "--config", str(cfg)], capsys)
        values = dict(line.split(" = ", 1) for line in shown.splitlines())
        _, sweep_csv, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        rows = [line.split(",") for line in sweep_csv.splitlines()[1:]]
        assert values["kappa_abs_first"] == rows[0][1]
        assert values["kappa_abs_last"] == rows[-1][1]
        assert values["mi_theory_first"] == rows[0][3]
        assert values["mi_theory_last"] == rows[-1][3]

    def test_echoes_resolved_configuration(self, capsys):
        code, stdout, _ = run_cli(["show"], capsys)
        assert code == 0
        assert "scheme = THREE_STATE" in stdout
        assert "k = -1" in stdout
        assert "n_per_input = 10000" in stdout

    @pytest.mark.parametrize("command", ["show", "sweep"])
    @pytest.mark.parametrize("c", [0.7, 1.0, 1.3])
    def test_overflowing_time_reads_its_limit(self, command, c, capsys):
        # At t = 1e300 the terms of the dephasing exponent overflow.  With
        # k = -1 and equal variances the exponent is exactly 0 on the
        # encoded sector, so the MI is log2 3, with no warning (which
        # pytest would raise as an error).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run_cli(
                [command, "--t-list", "0, 1e300", "--k=-1", f"--c-aa={c}", f"--c-bb={c}",
                 "--trials", "2", "--n-per-input", "10"], capsys)
        assert (code, stderr) == (0, "")
        if command == "show":
            values = dict(line.split(" = ", 1) for line in stdout.splitlines())
            kappa, mi = values["kappa_abs_last"], values["mi_theory_last"]
        else:
            _, kappa, _, mi, *_ = stdout.splitlines()[-1].split(",")
        assert (float(kappa), float(mi)) == (0.0, math.log2(3))


    @pytest.mark.parametrize("k", ["-0.5", "-1"])
    def test_overflowing_scale_reads_its_limit(self, k, capsys):
        # At delta_n = 1e10 the product delta_n * t itself overflows; the
        # values read the same limit as at delta_n = 1, with no warning.
        shown = []
        for delta_n in ("1", "1e10"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, stdout, stderr = run_cli(["show", "--t-list", "0, 1e300",
                                                "--delta-n", delta_n, f"--k={k}"], capsys)
            assert (code, stderr) == (0, "")
            values = dict(line.split(" = ", 1) for line in stdout.splitlines())
            shown.append((values["kappa_abs_last"], values["mi_theory_last"]))
        assert shown[1] == shown[0]

    @pytest.mark.parametrize("command", ["sweep", "show", "mc"])
    @pytest.mark.parametrize("flags, c_aa, t", [
        (["--omega0=-1.5e308", "--c-aa=7.3", "--t-list=8.86"], 7.3, 8.86),
        (["--c-aa=1.9e-310", "--omega0=1e10", "--t-list=1.7e308"], 1.9e-310, 1.7e308),
    ], ids=["finite", "underflow"])
    def test_overflowing_phase_reads_the_modulus(self, command, flags, c_aa, t, capsys):
        # The mean phase (u + v) omega0 / 2 overflows, but |kappa| does not depend on it.
        kappa = abs(decoherence_function(JointSpectrum(omega0=0.0, c_aa=c_aa), t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run_cli(
                [command, *flags, "--trials", "2", "--n-per-input", "10"], capsys)
        assert (code, stderr) == (0, "")
        rows = stdout.splitlines()
        if command == "show":
            values = dict(line.split(" = ", 1) for line in rows)
            fields = [values["kappa_abs_first"], values["kappa_abs_last"]]
        else:  # sweep: t_a, kappa_abs, concurrence, ...; mc: kappa_abs, ...
            fields = rows[1].split(",")[1:3] if command == "sweep" else rows[1].split(",")[:1]
        assert fields == [f"{kappa:.17g}"] * len(fields)


class TestMc:
    def test_single_point_output(self, capsys):
        code, stdout, stderr = run_cli(
            ["mc", "--kappa-abs", "0.5", "--k", "0", "--n-per-input", "2000",
             "--trials", "50"], capsys)
        assert code == 0 and stderr == ""
        lines = stdout.splitlines()
        assert lines[0] == "kappa_abs,mi_theory,mi_mc_mean,mi_mc_std"
        kappa, theory, mean, std = (float(v) for v in lines[1].split(","))
        assert kappa == 0.5
        assert std > 0.0
        assert abs(mean - theory) < 0.05

    def test_noiseless_default_has_exact_mean_and_zero_std(self, capsys):
        code, stdout, _ = run_cli(["mc"], capsys)
        assert code == 0
        assert stdout.splitlines()[1] == (
            "0.1353352832366127,1.5849625007211561,1.5849625007211561,0")

    def test_defaults_to_last_grid_point(self, capsys):
        code, stdout, _ = run_cli(
            ["mc", "--t-list", "0.0,1.0", "--n-per-input", "500", "--trials", "20"],
            capsys)
        assert code == 0
        kappa = float(stdout.splitlines()[1].split(",")[0])
        assert kappa == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_deterministic(self, capsys):
        args = ["mc", "--kappa-abs", "0.4", "--k", "-0.5", "--trials", "30",
                "--n-per-input", "1000"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    @pytest.mark.parametrize("flags, expected", [
        (["--scheme", "FOUR_STATE", "--k", "-0.5", "--c-bb", "2",
          "--noise-order", "NOISE_AFTER_ENCODING"],
         "0.72614903707369083,1.1616577650169959,1.1613464925695023,0.015982774927347811"),
        (["--k", "-0.3", "--priors", "0.5,0.25,0.25"],
         "0.72614903707369083,1.0255961588866471,1.0198322824870369,0.019201221539572013"),
    ])
    def test_bytes_are_pinned(self, flags, expected, capsys):
        # Output of the release before a sweep drew all its rows from one
        # generator: mc keeps its bootstrap stream.
        code, stdout, _ = run_cli(["mc", "--t-a", "0.8", "--n-per-input", "500",
                                   "--trials", "20", "--seed", "7", *flags], capsys)
        assert code == 0
        assert stdout == "kappa_abs,mi_theory,mi_mc_mean,mi_mc_std\n" + expected + "\n"

    def test_rejects_an_infinite_stage_time(self, capsys):
        code, stdout, stderr = run_cli(["mc", "--t-a=inf"], capsys)
        assert code == 1 and stdout == ""
        assert stderr == "error: t_a must be finite and non-negative, got inf\n"

    def test_rejects_out_of_range_kappa(self, capsys):
        code, stdout, stderr = run_cli(["mc", "--kappa-abs", "1.5"], capsys)
        assert code == 1
        assert stdout == ""
        assert "error:" in stderr

    @pytest.mark.parametrize("flags", [
        pytest.param(["--kappa-abs", "0"], id="zero"),
        pytest.param(["--kappa-abs", "-0.5"], id="negative"),
        pytest.param(["--kappa-abs", "nan"], id="nan"),
        pytest.param(["--kappa-abs", "0.5", "--delta-n", "0"], id="delta_n=0"),
        pytest.param(["--kappa-abs", "0.5", "--delta-n", "1e-310"], id="t_overflows_in_delta_n"),
        pytest.param(["--kappa-abs", "0.5", "--c-aa", "5e-324"], id="t_overflows_in_c_aa"),
    ])
    def test_rejects_unreachable_kappa(self, flags, capsys):
        code, stdout, stderr = run_cli(["mc", *flags], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: kappa_abs must lie in (0, 1]")

    def test_overflowing_stage_time_names_its_inputs(self, capsys):
        code, stdout, stderr = run_cli(["mc", "--kappa-abs", "0.5", "--delta-n", "1e-310"],
                                       capsys)
        assert code == 1 and stdout == ""
        assert stderr == ("error: kappa_abs must lie in (0, 1], and be 1 when delta_n = 0, so "
                          "that the stage time sqrt(-2 ln kappa_abs / c_aa) / |delta_n| is "
                          "finite; got 0.5 with delta_n = 1e-310 and c_aa = 1\n")

    @pytest.mark.parametrize("delta_n", ["1", "0"])
    def test_kappa_one_is_the_noiseless_channel(self, delta_n, capsys):
        code, stdout, stderr = run_cli(
            ["mc", "--kappa-abs", "1", "--k", "0.3", "--delta-n", delta_n, "--trials", "20",
             "--n-per-input", "500"], capsys)
        assert code == 0 and stderr == ""
        assert stdout.splitlines()[1] == "1,1.5849625007211561,1.5849625007211561,0"

    @pytest.mark.parametrize("flags", [
        pytest.param(["--c-bb", "2"], id="c_bb=2"),
        pytest.param(["--scheme", "FOUR_STATE", "--noise-order", "NOISE_AFTER_ENCODING"],
                     id="four_state_after_encoding"),
        pytest.param(["--c-aa", "0.5", "--c-bb", "1.7", "--omega0", "-1", "--delta-n", "-1.3",
                      "--scheme", "FOUR_STATE", "--noise-order", "NOISE_AFTER_ENCODING",
                      "--priors", "0.4,0.3,0.2,0.1"], id="all"),
    ])
    def test_theory_matches_show(self, flags, capsys):
        common = ["--k", "-0.5", "--s", "0.01", "--t-list", "0.0,1.3", *flags]
        bootstrap = ["--trials", "20", "--n-per-input", "500"]
        code, stdout, stderr = run_cli(["mc", *bootstrap, *common], capsys)
        assert code == 0 and stderr == ""
        kappa, theory = stdout.splitlines()[1].split(",")[:2]
        _, shown, _ = run_cli(["show", *common], capsys)
        values = dict(line.split(" = ", 1) for line in shown.splitlines())
        assert (kappa, theory) == (values["kappa_abs_last"], values["mi_theory_last"])
        # --kappa-abs maps back to the stage time of that kappa.
        code, stdout, _ = run_cli(["mc", "--kappa-abs", kappa, *bootstrap, *common], capsys)
        assert code == 0
        assert float(stdout.splitlines()[1].split(",")[1]) == pytest.approx(
            float(theory), abs=1e-12)

    def test_three_state_accepts_noise_after_encoding(self, capsys):
        code, stdout, _ = run_cli(
            ["mc", "--kappa-abs", "0.5", "--k", "-0.5", "--trials", "20",
             "--n-per-input", "500", "--noise-order", "NOISE_AFTER_ENCODING"], capsys)
        assert code == 0
        assert len(stdout.splitlines()) == 2

    def test_theory_follows_priors(self, capsys):
        priors = (0.4, 0.3, 0.2, 0.1)
        code, stdout, _ = run_cli(
            ["mc", "--kappa-abs", "0.5", "--k", "-0.5", "--scheme", "FOUR_STATE",
             "--priors", ",".join(map(str, priors)), "--s", "0.01", "--trials", "20",
             "--n-per-input", "500"], capsys)
        assert code == 0
        theory = float(stdout.splitlines()[1].split(",")[1])
        scheme = EncodingScheme.four_state(priors)
        table = conditional_probabilities(scheme, effective_visibility(0.5, -0.5))
        assert theory == pytest.approx(mutual_information(scheme, table, 0.01), abs=1e-12)
        assert abs(theory - closed_form_mi4(0.5, -0.5, 0.01)) > 1e-3


class TestFit:
    def test_round_trip_from_sweep_csv(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "t_list = 1.905, 1.55, 1.26, 1.0, 0.76, 0.46\n"
            "k = -1\ns = 0.0749\nn_per_input = 10000\ntrials = 120\n")
        sweep_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--config", str(cfg), "--out", str(sweep_path)], capsys)
        assert code == 0
        code, stdout, _ = run_cli(
            ["fit", "--config", str(cfg), "--in", str(sweep_path)], capsys)
        assert code == 0
        header, row = stdout.splitlines()
        assert header == "k_hat,s_hat,rss,n_points"
        k_hat, s_hat, _, n_points = row.split(",")
        assert float(k_hat) == pytest.approx(-1.0, abs=0.05)
        assert float(s_hat) == pytest.approx(0.0749, abs=0.02)
        assert n_points == "6"

    def test_bare_two_column_csv(self, tmp_path, capsys):
        data = tmp_path / "points.csv"
        rows = ["0.2,1.51006", "0.5,1.51006", "0.9,1.51006"]
        data.write_text("\n".join(rows) + "\n")
        code, stdout, _ = run_cli(["fit", "--in", str(data)], capsys)
        assert code == 0
        k_hat, s_hat = stdout.splitlines()[1].split(",")[:2]
        assert float(k_hat) == pytest.approx(-1.0, abs=1e-6)
        assert float(s_hat) == pytest.approx(math.log2(3.0) - 1.51006, abs=1e-3)

    @pytest.mark.parametrize("regime", [
        pytest.param("c_bb = 2\n", id="c_bb=2"),
        pytest.param("c_aa = 0.5\n", id="c_aa=0.5"),
        pytest.param("scheme = FOUR_STATE\nnoise_order = NOISE_AFTER_ENCODING\n",
                     id="four_state_after_encoding"),
        pytest.param("c_aa = 0.7\nc_bb = 1.8\nscheme = FOUR_STATE\n"
                     "noise_order = NOISE_AFTER_ENCODING\n", id="all"),
    ])
    def test_recovers_k_from_born_points(self, regime, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(regime + "k = -0.6\n")
        cfg = parse_config(cfg_path.read_text())
        rows = ["kappa_abs,mi"]
        for t in np.linspace(0.1, 2.0, 40):
            table = simulate_protocol(cfg.spectrum, DephasingTimes(t, t), cfg.scheme,
                                      cfg.noise_order)
            kappa = abs(decoherence_function(cfg.spectrum, t))
            rows.append(f"{kappa!r},{mutual_information(cfg.scheme, table, 0.05)!r}")
        data = tmp_path / "points.csv"
        data.write_text("\n".join(rows) + "\n")
        code, stdout, stderr = run_cli(
            ["fit", "--config", str(cfg_path), "--in", str(data)], capsys)
        assert code == 0 and stderr == ""
        k_hat, s_hat = (float(v) for v in stdout.splitlines()[1].split(",")[:2])
        assert k_hat == pytest.approx(-0.6, abs=1e-3)
        assert s_hat == pytest.approx(0.05, abs=1e-3)

    @pytest.mark.parametrize("regime, priors", [
        pytest.param("c_aa = 0.5\n", "0.8,0.1,0.1", id="three_state"),
        pytest.param("c_bb = 2\nscheme = FOUR_STATE\nnoise_order = NOISE_AFTER_ENCODING\n",
                     "0.4,0.3,0.2,0.1", id="four_state_after_encoding"),
    ])
    def test_recovers_k_and_s_with_priors(self, regime, priors, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(regime + "k = -0.6\n")
        cfg = parse_config(cfg_path.read_text() + f"priors = {priors}\n")
        rows = ["kappa_abs,mi"]
        for t in np.linspace(0.1, 2.0, 40):
            table = simulate_protocol(cfg.spectrum, DephasingTimes(t, t), cfg.scheme,
                                      cfg.noise_order)
            kappa = abs(decoherence_function(cfg.spectrum, t))
            rows.append(f"{kappa!r},{mutual_information(cfg.scheme, table, 0.05)!r}")
        data = tmp_path / "points.csv"
        data.write_text("\n".join(rows) + "\n")
        code, stdout, stderr = run_cli(
            ["fit", "--config", str(cfg_path), "--in", str(data), "--priors", priors], capsys)
        assert code == 0 and stderr == ""
        k_hat, s_hat, rss = (float(v) for v in stdout.splitlines()[1].split(",")[:3])
        assert rss <= 1e-12
        assert k_hat == pytest.approx(-0.6, abs=1e-3)
        assert s_hat == pytest.approx(0.05, abs=1e-3)

    @pytest.mark.parametrize("flags", [["--priors", "0.5,0,0.5"],
                                       ["--scheme", "FOUR_STATE", "--priors", "0.5,0,0.5,0"]],
                             ids=["three_state", "four_state"])
    def test_priors_that_leave_k_out_of_the_model_exit_1(self, flags, tmp_path, capsys):
        data = tmp_path / "points.csv"
        data.write_text("kappa_abs,mi\n0.2,0.9\n0.5,0.9\n0.8,0.9\n")
        code, stdout, stderr = run_cli(["fit", "--in", str(data), *flags], capsys)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: the model does not depend on k: no Bell sector")
        assert stderr.count("\n") == 1

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, stdout, stderr = run_cli(
            ["fit", "--in", str(tmp_path / "nope.csv")], capsys)
        assert code == 1
        assert "error:" in stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_mi(self, value, tmp_path, capsys):
        data = tmp_path / "points.csv"
        data.write_text(f"kappa_abs,mi\n0.5,{value}\n0.4,0.3\n")
        code, stdout, stderr = run_cli(["fit", "--in", str(data)], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and "finite" in stderr

    @pytest.mark.parametrize("text, message", [
        ("", "no data rows"),
        ("kappa_abs,x\n0.5,0.3\n", "no mi or mi_mc_mean column next to kappa_abs"),
    ], ids=["empty", "no_mi_column"])
    def test_unusable_points_file_exits_1(self, text, message, tmp_path, capsys):
        data = tmp_path / "points.csv"
        data.write_text(text)
        assert run_cli(["fit", "--in", str(data)], capsys) == (
            1, "", f"error: {data}: {message}\n")

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("kappa_abs,mi\n0.5,fast\n")
        code, _, stderr = run_cli(["fit", "--in", str(bad)], capsys)
        assert code == 1
        assert "error:" in stderr


class TestTomo:
    def test_reconstructs_bell_state(self, tmp_path, capsys):
        counts = expected_tomography_counts(bell_state(BellLabel.PHI_PLUS), 100000)
        path = tmp_path / "counts.txt"
        path.write_text("\n".join(str(int(round(c))) for c in counts) + "\n")
        out = tmp_path / "state.txt"
        code, stdout, _ = run_cli(
            ["tomo", "--in", str(path), "--n-per-projector", "100000",
             "--out", str(out)], capsys)
        assert code == 0
        assert stdout.startswith("concurrence = ")
        assert float(stdout.split("=")[1]) == pytest.approx(1.0, abs=1e-6)
        rho = density_matrix_from_text(out.read_text())
        assert np.max(np.abs(rho - bell_state(BellLabel.PHI_PLUS))) < 1e-6

    @pytest.mark.parametrize("t", [0.0, 0.8, 3.5])
    def test_validates_the_state_once(self, t, tmp_path, monkeypatch, capsys):
        counts = tomography_counts(evolve_pre_encoding(JointSpectrum(k=-0.5), t), 10000, seed=3)
        rho = reconstruct_linear_inversion(counts, 10000.0)
        # The bytes of the public, validating route.
        expected = f"concurrence = {concurrence(rho):.17g}\n", density_matrix_to_text(rho)
        path = tmp_path / "counts.txt"
        path.write_text(" ".join(str(c) for c in counts.tolist()) + "\n")
        calls = []

        def counting(rho, dim=None):
            calls.append(dim)
            return validate(rho, dim)

        validate = states.validate_density_matrix
        for module in (states, experiment):  # every name the library calls it by
            monkeypatch.setattr(module, "validate_density_matrix", counting)
        out = tmp_path / "state.txt"
        assert run_cli(["tomo", "--in", str(path), "--n-per-projector", "10000",
                        "--out", str(out)], capsys) == (0, expected[0], "")
        assert (calls, out.read_text()) == ([4], expected[1])

    def test_wrong_count_of_counts(self, tmp_path, capsys):
        path = tmp_path / "counts.txt"
        path.write_text("1 2 3\n")
        code, _, stderr = run_cli(["tomo", "--in", str(path)], capsys)
        assert code == 1
        assert "16" in stderr

    @pytest.mark.parametrize("bad", ["nan", "-5"])
    def test_rejects_non_finite_or_negative_counts(self, bad, tmp_path, capsys):
        path = tmp_path / "counts.txt"
        path.write_text(" ".join(["100"] * 15 + [bad]) + "\n")
        code, stdout, stderr = run_cli(["tomo", "--in", str(path)], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: counts must be finite and non-negative")

    def test_rejects_non_numeric_counts(self, tmp_path, capsys):
        path = tmp_path / "counts.txt"
        path.write_text(" ".join(["100"] * 15 + ["many"]) + "\n")
        assert run_cli(["tomo", "--in", str(path)], capsys) == (
            1, "", f"error: {path}: counts must be numeric\n")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rejects_non_positive_n_per_projector(self, n, tmp_path, capsys):
        path = tmp_path / "counts.txt"
        path.write_text(" ".join(["100"] * 16) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run_cli(
                ["tomo", "--in", str(path), f"--n-per-projector={n}"], capsys)
        assert code == 1 and stdout == "" and caught == []
        assert stderr.startswith("error: n_per_projector must be finite and positive")
        assert stderr.count("\n") == 1


class TestErrors:
    @pytest.mark.parametrize("command", ["sweep", "mc", "show"])
    def test_negative_seed_exits_1_with_its_location(self, command, capsys):
        assert run_cli([command, "--seed", "-1"], capsys) == (
            1, "", "error: command-line flag --seed: key 'seed': must be non-negative\n")

    def test_overflowing_time_range_exits_1(self, capsys):
        assert run_cli(["show", "--t-stop", "1e300", "--t-step", "1e-300"], capsys) == (
            1, "", "error: command-line flag --t-step: key 't_step': "
                   "1e-300 gives too many points: inf > 10000000\n")

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    def test_n_per_input_beyond_int64_exits_1(self, command, capsys):
        assert run_cli([command, "--n-per-input", str(2**63), "--t-list", "1"], capsys) == (
            1, "", "error: n_per_input must be < 2**63, got 9223372036854775808\n")

    def test_bad_config_key_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wat = 1\n")
        code, stdout, stderr = run_cli(["show", "--config", str(cfg)], capsys)
        assert code == 1
        assert stdout == ""
        assert "wat" in stderr

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["show", "--config", str(tmp_path / "none.cfg")], capsys)
        assert code == 1
        assert "error:" in stderr


# The override flags of sweep, mc and show: every config key but output_path.
_RUN_FLAGS = {"--omega0", "--c-aa", "--c-bb", "--k", "--delta-n", "--s", "--n-per-input",
              "--trials", "--seed", "--scheme", "--noise-order", "--priors", "--t-start",
              "--t-stop", "--t-step", "--t-list"}
_FIT_FLAGS = {"--c-aa", "--c-bb", "--scheme", "--noise-order", "--priors"}


class TestParser:
    # extra: the flags besides --config and --out.
    @pytest.mark.parametrize("command, extra, required", [
        ("sweep", _RUN_FLAGS, []),
        ("mc", _RUN_FLAGS | {"--kappa-abs", "--t-a"}, []),
        ("fit", _FIT_FLAGS | {"--in"}, ["--in", "points.csv"]),
        ("tomo", {"--in", "--n-per-projector"}, ["--in", "counts.txt"]),
        ("show", _RUN_FLAGS, []),
    ])
    def test_subcommand_options(self, command, extra, required, capsys):
        flags = extra | {"--config", "--out"}
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        help_text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z0-9-]+", help_text)) == flags | {"--help"}
        parser = _build_parser()
        for flag in flags:
            args = parser.parse_args([command, *required, flag, "1"])
            assert args.command == command

    @pytest.mark.parametrize("argv", [
        ["fit", "--in", "points.csv", "--s", "0.1"],
        ["fit", "--in", "points.csv", "--k", "-0.5"],
        ["tomo", "--in", "counts.txt", "--seed", "1"],
        ["tomo", "--in", "counts.txt", "--n-per-input", "5"],
        ["sweep", "--output-path", "x"],
        ["sweep", "--n-per", "5"],
        ["tomo", "--in", "counts.txt", "--n-per-proj", "5"],
    ], ids=["fit --s", "fit --k", "tomo --seed", "tomo --n-per-input", "sweep --output-path",
            "abbreviated --n-per-input", "abbreviated --n-per-projector"])
    def test_a_flag_the_command_lacks_is_refused(self, argv, monkeypatch, capsys):
        # Without allow_abbrev=False, fit --s 0.1 would set --scheme.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr() == (
            "", f"{_TOP_USAGE}densecoding: error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    @pytest.mark.parametrize("command", ["sweep", "mc", "fit", "tomo", "show"])
    def test_a_config_file_may_hold_every_key(self, command, tmp_path, capsys):
        out = tmp_path / "out.txt"
        values = {**CONFIG_DEFAULTS, "t_list": "0.5, 1.0", "priors": "0.5, 0.25, 0.25",
                  "n_per_input": "100", "trials": "5", "output_path": str(out)}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        points = tmp_path / "points.csv"
        points.write_text("kappa_abs,mi\n0.2,0.31\n0.4,0.58\n0.6,0.87\n0.8,1.21\n")
        counts = tmp_path / "counts.txt"
        counts.write_text("50 0 25 25 0 50 25 25 25 25 9 41 25 25 41 9\n")
        inputs = {"fit": ["--in", str(points)], "tomo": ["--in", str(counts)]}
        code, stdout, stderr = run_cli([command, "--config", str(cfg),
                                        *inputs.get(command, [])], capsys)
        assert (code, stderr) == (0, "")
        if command == "tomo":
            assert stdout.startswith("concurrence = ")
        else:
            assert stdout == ""
        assert out.read_text()

    @pytest.fixture
    def subparsers_built(self, monkeypatch):
        """A list that grows by one name per subparser built."""
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(action, name, **kwargs):
            names.append(name)
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        return names

    def test_main_reads_sys_argv_and_builds_no_subparser(self, subparsers_built, monkeypatch,
                                                         capsys):
        flags = []
        add_argument = argparse._ActionsContainer.add_argument

        def counting(container, *names, **kwargs):
            flags.extend(names)
            return add_argument(container, *names, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        monkeypatch.setattr(sys, "argv", ["densecoding", "show", "--seed", "3", "--k=-0.5"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("omega0 = ")
        assert subparsers_built == []
        assert sorted(flags) == ["--config", "--k", "--out", "--seed"]

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"]], ids=["help", "none", "unknown"])
    def test_help_and_a_missing_or_unknown_command_build_all(self, argv, subparsers_built,
                                                             capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert subparsers_built == ["sweep", "mc", "fit", "tomo", "show"]

    @pytest.mark.parametrize("command", ["sweep", "mc", "fit", "tomo", "show"])
    def test_subcommand_help_equals_the_all_commands_parser(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            _build_parser().parse_args([command, "--help"])
        assert exit_info.value.code == 0
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr() == expected

    def test_top_level_help_is_unchanged(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr() == (_TOP_USAGE + """
Dense-coding simulator over correlated dephasing environments.

positional arguments:
  {sweep,mc,fit,tomo,show}
    sweep               mutual-information sweep CSV over the time grid
    mc                  single-point Monte Carlo MI estimate with error bar
    fit                 least-squares (k, s) fit from a CSV of points
    tomo                reconstruct a state from 16 projector counts
    show                echo the resolved configuration and derived values

options:
  -h, --help            show this help message and exit
""", "")

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' "
                    "(choose from 'sweep', 'mc', 'fit', 'tomo', 'show')"),
        (["sweep", "--bogus"], "unrecognized arguments: --bogus"),
        (["tomo", "--in", "counts.txt", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["--he"], "unrecognized arguments: --he"),
    ], ids=["missing command", "unknown command", "unknown sweep flag", "unknown tomo flag",
            "unknown top-level flag"])
    def test_usage_errors_are_unchanged(self, argv, message, monkeypatch, capsys):
        # An unknown flag after a valid command is reported by the top-level
        # parser, so its usage line must still list every command.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr() == ("", f"{_TOP_USAGE}densecoding: error: {message}\n")


_TOP_USAGE = "usage: densecoding [-h] {sweep,mc,fit,tomo,show} ...\n"


# Each command's flags besides --config and --out, the overrides first.
_COMMAND_FLAGS = {"sweep": sorted(_RUN_FLAGS), "mc": sorted(_RUN_FLAGS) + ["--kappa-abs", "--t-a"],
                  "fit": sorted(_FIT_FLAGS) + ["--in"], "tomo": ["--in", "--n-per-projector"],
                  "show": sorted(_RUN_FLAGS)}
_ALL_FLAGS = sorted({flag for flags in _COMMAND_FLAGS.values() for flag in flags}
                    | {"--output-path", "--bogus"})
_VALUES = ["1", "-1", "0.5", "-.5", "1e3", "nan", "x", "", " ", "-", "a=b", "FOUR_STATE",
           "0.1, 0.2", "points.csv"]


@st.composite
def _argvs(draw, command):
    """Random argv of command: pairs of a few of its flags and values, = forms and
    repeats, and at most one odd token anywhere: a flag or a value that looks like
    one, another command's or an unknown flag, an abbreviation or -h.  A flag left
    without its value, by the odd token or at the end, is a missing value."""
    few = draw(st.lists(st.sampled_from(["--config", "--out", *_COMMAND_FLAGS[command]]),
                        min_size=1, max_size=3, unique=True))
    flag, value = st.sampled_from(few), st.sampled_from(_VALUES)
    abbreviation = st.builds(lambda f, n: f[:n], flag, st.integers(1, 12))

    def pair(name, arg):  # "--flag value" or "--flag=value"
        return st.tuples(name, arg) | st.tuples(st.builds("{}={}".format, name, arg))

    pairs = draw(st.lists(pair(flag, value), max_size=4))
    lone = st.sampled_from(_ALL_FLAGS + ["--", "-x", "-1x", "-h", "--help", "-hx", "--help=1"])
    odd = draw(st.just(()) | pair(abbreviation, value) | pair(flag, flag) | st.tuples(flag | lone))
    at = draw(st.integers(0, len(pairs)))
    head = []
    if "--in" in _COMMAND_FLAGS[command] and draw(st.booleans()):  # fit and tomo require it
        head = ["--in", "points.csv"]
    return [command, *head, *(arg for pair in pairs[:at] for arg in pair), *odd,
            *(arg for pair in pairs[at:] for arg in pair)]


class _Ran(Exception):
    """Raised in place of a command's work once main has parsed its argv."""


def _parsed_by_main(argv):
    seen = []

    def spy(args):
        seen.append(args)
        raise _Ran

    with mock.patch.object(cli, "_load_config", spy):  # every _cmd_* calls it first
        try:
            main(argv)
        except _Ran:
            return seen[0]
    raise AssertionError(f"main ran no command for {argv}")


def _outcome(parse):
    """("exit", code, stdout, stderr) of a parse that exits, else ("run", its values)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse()
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    # The run parser holds only the override flags argv names; main reads the rest as None.
    return "run", {key: repr(value) for key, value in vars(args).items()
                   if value is not None or not key.startswith("cfg_")}


class TestRunParser:
    @pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_main_parses_argv_as_the_full_parser(self, command, data):
        argv = data.draw(_argvs(command), label="argv")
        assert _outcome(lambda: _parsed_by_main(argv)) == _outcome(
            lambda: _build_parser().parse_args(argv))
