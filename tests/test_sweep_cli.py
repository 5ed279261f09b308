import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dudasim.cli import main
from dudasim.config import parse_config
from dudasim.params import TrialConfig
from dudasim.sweep import rows_to_csv, run_sweep
from dudasim.validation import (
    check_gap_identity, check_spatial_laws, check_tail_closed_form, run_validation,
)


def sweep_rows(text, **overrides):
    bundle = parse_config(text, overrides={k: str(v) for k, v in overrides.items()})
    return run_sweep(bundle.sweep, bundle), bundle


class TestAnalyticSweeps:
    def test_su_sweep_with_perfect_links_forced(self):
        # s_u sweep over 9 points with the success probabilities pinned at 1:
        # at s_u = 0.5 the decoupled total is 1.0 and the coupled 2.0
        rows, _ = sweep_rows(
            "sweep_variable = s_u\nsweep_start = 0.1\nsweep_stop = 0.9\nsweep_steps = 9\n"
            "mode = analytic\nrho_u = 1.0\nrho_d = 1.0\n"
        )
        assert len(rows) == 18
        duda = next(r for r in rows if r.scheme == "duda" and abs(r.value - 0.5) < 1e-9)
        duca = next(r for r in rows if r.scheme == "duca" and abs(r.value - 0.5) < 1e-9)
        assert duda.latency_mean == pytest.approx(1.0)
        assert duca.latency_mean == pytest.approx(2.0)

    def test_rho_product_endpoint(self):
        rows, _ = sweep_rows(
            "sweep_variable = rho_product\nsweep_start = 0.99999999\nsweep_stop = 1.0\n"
            "sweep_steps = 2\nmode = analytic\n"
        )
        final = [r for r in rows if r.value == 1.0]
        duda = next(r for r in final if r.scheme == "duda")
        duca = next(r for r in final if r.scheme == "duca")
        assert duda.latency_mean == pytest.approx(1.0)
        assert duca.latency_mean == pytest.approx(2.0)

    def test_rho_product_sweep_ordering_and_gap(self):
        rows, _ = sweep_rows(
            "sweep_variable = rho_product\nsweep_start = 0.3\nsweep_stop = 1.0\n"
            "sweep_steps = 8\nmode = analytic\n"
        )
        duda = [r.latency_mean for r in rows if r.scheme == "duda"]
        duca = [r.latency_mean for r in rows if r.scheme == "duca"]
        assert all(b < a for a, b in zip(duda, duda[1:])), "duda curve must decrease"
        assert all(b < a for a, b in zip(duca, duca[1:])), "duca curve must decrease"
        gaps = [c - d for c, d in zip(duca, duda)]
        assert all(c > d for c, d in zip(duca, duda)), "decoupled always lower"
        assert gaps[0] > gaps[-1], "gap larger at low success probability"

    def test_su_sweep_uses_analytic_probabilities(self):
        rows, bundle = sweep_rows(
            "sweep_variable = s_u\nsweep_start = 0.1\nsweep_stop = 0.9\n"
            "sweep_steps = 3\nmode = analytic\nscheme = duda\n"
        )
        assert len(rows) == 3
        # same success probabilities at every s_u point (they depend on the
        # geometry parameters only)
        assert len({r.rho_u for r in rows}) == 1
        assert 0.0 < rows[0].rho_u < 1.0
        vals = [r.latency_mean for r in rows]
        assert vals == sorted(vals)

    def test_delta_sweep_moves_probabilities(self):
        rows, _ = sweep_rows(
            "sweep_variable = delta\nsweep_start = 0.2\nsweep_stop = 0.8\n"
            "sweep_steps = 3\nmode = analytic\nscheme = duda\n"
        )
        rho_us = [r.rho_u for r in rows]
        assert len(set(rho_us)) == 3
        # more DL traffic -> more high-power interferers -> lower UL success
        assert rho_us == sorted(rho_us, reverse=True)


class TestSimulateSweeps:
    def test_rho_product_simulate_bypasses_geometry(self):
        rows, _ = sweep_rows(
            "sweep_variable = rho_product\nsweep_start = 0.5\nsweep_stop = 1.0\n"
            "sweep_steps = 3\nmode = simulate\niterations = 2000\nscheme = duda\n"
        )
        assert len(rows) == 3
        for r in rows:
            want = np.sqrt(r.value)
            assert abs(r.rho_u - want) < 0.05
            assert abs(r.rho_d - want) < 0.05
        assert rows[-1].latency_mean == pytest.approx(1.0)  # rho = 1 exactly
        # sampled latency is monotone in the success product
        means = [r.latency_mean for r in rows]
        assert means == sorted(means, reverse=True)

    def test_small_geometry_simulate(self):
        # the duca-minus-duda gap of 150-trial rows spreads with SD 3.9 about
        # 10.2 (300 seeds); 600 trials double its z to about 5.2, below 1e-6
        # false alarms per run of two points under normality.  Rows of the
        # schemes swapped fail it.
        rows, _ = sweep_rows(
            "sweep_variable = s_u\nsweep_start = 0.3\nsweep_stop = 0.7\nsweep_steps = 2\n"
            "mode = simulate\niterations = 600\n"
        )
        assert len(rows) == 4
        for r in rows:
            assert np.isfinite(r.latency_mean)
            assert r.censored_fraction == 0.0
        # the decoupled scheme wins on every sweep point
        for v in {r.value for r in rows}:
            duda = next(r for r in rows if r.value == v and r.scheme == "duda")
            duca = next(r for r in rows if r.value == v and r.scheme == "duca")
            assert duda.latency_mean < duca.latency_mean


class TestRowFailures:
    def test_programming_error_propagates(self, monkeypatch):
        # only the failures a valid configuration can meet become NaN rows
        def broken(timing, link):
            raise TypeError("planted")

        monkeypatch.setattr("dudasim.sweep.latency_duda", broken)
        bundle = parse_config("sweep_variable = rho_product\nsweep_start = 0.3\n"
                              "sweep_stop = 1.0\nsweep_steps = 2\nscheme = duda\n")
        with pytest.raises(TypeError, match="planted"):
            run_sweep(bundle.sweep, bundle)


class TestCsv:
    def test_header_and_digits(self):
        rows, _ = sweep_rows(
            "sweep_variable = rho_product\nsweep_start = 0.3\nsweep_stop = 1.0\n"
            "sweep_steps = 2\nmode = analytic\n"
        )
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "variable,value,scheme,mode,latency_mean,latency_ci95,rho_u,rho_d,censored_fraction"
        )
        assert len(lines) == 1 + 4
        assert "wall_time_ms" not in text

    def test_timing_column_optional(self):
        rows, _ = sweep_rows(
            "sweep_variable = rho_product\nsweep_start = 0.3\nsweep_stop = 1.0\n"
            "sweep_steps = 2\nmode = analytic\n"
        )
        text = rows_to_csv(rows, emit_timing=True)
        assert text.splitlines()[0].endswith(",wall_time_ms")

    def test_byte_identical_reruns(self):
        doc = (
            "sweep_variable = rho_product\nsweep_start = 0.3\nsweep_stop = 1.0\n"
            "sweep_steps = 4\nmode = simulate\niterations = 500\nseed = 9\n"
        )
        a, _ = sweep_rows(doc)
        b, _ = sweep_rows(doc)
        assert rows_to_csv(a) == rows_to_csv(b)


class TestValidationModule:
    def test_gap_identity_check(self):
        c = check_gap_identity(2000, seed=3)
        assert c.passed

    @pytest.mark.parametrize("alpha", [2.0001, 2.05, 3.0, 3.5, 4.0, 6.0])
    def test_tail_check_runs_at_every_alpha(self, alpha):
        c = check_tail_closed_form(alpha, 200, seed=3)
        assert c.passed, c.line()

    @pytest.mark.slow
    def test_report_structure_and_honest_failures(self):
        bundle = parse_config("iterations = 1500\n")
        report = run_validation(bundle, spatial_draws=4000, gap_points=2000,
                                quadrature_tuples=300)
        names = {c.name for c in report.checks}
        assert {"tail_closed_form_vs_quadpack", "ppp_count_chi_square",
                "nearest_distance_ks", "second_nearest_distance_ks",
                "latency_gap_identity", "analytic_vs_mc_rho_u",
                "analytic_vs_mc_rho_d"} <= names
        by_name = {c.name: c for c in report.checks}
        # structural and statistical checks hold
        for name in ("tail_closed_form_vs_quadpack", "ppp_count_chi_square",
                     "nearest_distance_ks", "second_nearest_distance_ks",
                     "latency_gap_identity"):
            assert by_name[name].passed, by_name[name].line()
        # the DL cross-validation reports the known model-vs-simulation gap
        assert not by_name["analytic_vs_mc_rho_d"].passed
        assert by_name["analytic_vs_mc_rho_d"].measured > 0.1
        # each empirical rho states its binomial standard error
        for name in ("analytic_vs_mc_rho_u", "analytic_vs_mc_rho_d"):
            p = float(by_name[name].detail.split("empirical=")[1].split()[0])
            assert f"se={math.sqrt(p * (1 - p) / 1500):.4f}" in by_name[name].detail
        assert not report.passed
        text = report.text()
        assert "FAIL" in text and "overall" in text

    def test_spatial_checks_read_sample_ppp(self, monkeypatch):
        # positions shrunk by 3% keep the count law and break both distance laws
        from dudasim import validation

        real = validation.sample_ppp
        monkeypatch.setattr(validation, "sample_ppp", lambda *args: 0.97 * real(*args))
        count, nearest, second = check_spatial_laws(0.005, 75.0, 4000, seed=0)
        assert count.passed, count.line()
        assert not nearest.passed, nearest.line()
        assert not second.passed, second.line()

    @pytest.mark.slow
    def test_statistical_checks_false_alarm_rate(self):
        # on correct code the three 1% tests fire about Binomial(60, 0.01)
        # times over 20 seeds; P(>= 5 fires) = 3.5e-4
        fires = sum(
            not c.passed for seed in range(20)
            for c in check_spatial_laws(0.005, 75.0, 4000, seed=seed)
        )
        assert fires <= 4
        for seed in (101, 202):
            assert check_gap_identity(2000, seed=seed).passed


class TestGeneralPathLossExponent:
    def test_alpha_3_5_end_to_end(self):
        # away from alpha = 4 (the arctan form of the tail), the analytic
        # layer and the simulator must still work together
        from dudasim.coverage import ul_success_probability
        from dudasim.montecarlo import run_campaign

        bundle = parse_config("alpha = 3.5\niterations = 200\n")
        rho = ul_success_probability(bundle.params)
        assert 0.0 < rho < 1.0
        st = run_campaign(bundle.trial)
        assert len(st.samples) == 200
        assert 0.0 < st.empirical_rho_u < 1.0


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "dudasim.cli", *args],
            capture_output=True, text=True,
        )

    def test_analytic_exit_and_schema(self):
        out = self.run_cli("analytic")
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert lines[0].startswith("scheme,rho_u,rho_d")
        assert len(lines) == 3

    def test_config_error_exit_code(self):
        out = self.run_cli("analytic", "--sweep", "bogus")
        assert out.returncode == 2
        out2 = self.run_cli("sweep", "--sweep", "s_u:0.1:2.0:5")
        assert out2.returncode == 2
        assert "configuration error" in out2.stderr

    @pytest.mark.parametrize("flags, setting", [
        (("--iterations", "0"), ""),
        ((), "max_attempts = 0"),
        ((), "window_side = -10"),
    ])
    def test_nonpositive_trial_settings_exit_2(self, tmp_path: Path, capsys, flags, setting):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"iterations = 20\n{setting}\n")
        assert main(["simulate", "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        key = setting.split(" = ")[0] if setting else "iterations"
        line = "line 2: " if setting else ""  # a flag has no line
        assert err.startswith(f"configuration error: {line}{key} must be ")

    @pytest.mark.parametrize("setting", ["", "rho_u = 0.5\nrho_d = 0.5"])
    def test_more_than_2_32_iterations_exit_2(self, tmp_path: Path, capsys, setting):
        # a synthetic campaign's trial index is one 32-bit entropy word
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"iterations = {2**32 + 1}\n{setting}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: line 1: iterations must be at most 2**32\n")

    def test_more_than_2_32_iterations_rejected_by_trial_config(self):
        # the cap is TrialConfig's own rule, not only the configuration parser's
        with pytest.raises(ValueError, match=re.escape("iterations must be at most 2**32")):
            TrialConfig(iterations=2**32 + 1)

    @pytest.mark.parametrize("setting, message", [
        (dict(typical_mode="UL"), "typical_mode must be 'ul' or 'dl'"),
        (dict(window_half_width=0.0), "window_side must be positive"),
        (dict(window_half_width=math.nan), "window_side must be positive"),
        (dict(seed=-1), "seed must be non-negative"),
    ])
    def test_trial_config_states_every_field_rule(self, setting, message):
        # every campaign, forced or not, reads these fields from its TrialConfig
        with pytest.raises(ValueError, match=re.escape(message)):
            TrialConfig(**setting)

    def test_window_side_that_halves_to_zero_exits_2(self, tmp_path: Path, capsys):
        # 5e-324 is positive, but half of it is 0.0: the rule is on the field
        cfg = tmp_path / "a.cfg"
        cfg.write_text("window_side = 5e-324\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: line 1: window_side must be positive\n")

    @pytest.mark.parametrize("doc, message", [
        ("seed = -1\niterations = 0\n", "line 2: iterations must be at least 1"),
        ("window_side = -1\nmax_attempts = 0\n", "line 2: max_attempts must be at least 1"),
        ("seed = -1\nwindow_side = -1\n", "line 2: window_side must be positive"),
    ])
    def test_first_of_two_trial_errors_reported(self, tmp_path: Path, capsys, doc, message):
        # TrialConfig's own rules come before the window and seed ranges
        cfg = tmp_path / "a.cfg"
        cfg.write_text(doc)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("doc", [
        # once an OverflowError traceback (exit 1) in the retry kernel
        "max_attempts = 10000000000000000000\niterations = 20\n",
        # once exit 0 with attempts of -2**63: 1 + retries wrapped in int64
        "max_attempts = 9223372036854775807\nattempt_model = fixed\nbeta_u_db = 200\n"
        "iterations = 20\n",
    ])
    def test_more_than_2_32_max_attempts_exit_2(self, tmp_path: Path, capsys, doc):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(doc)
        samples = tmp_path / "samples.csv"
        args = ["simulate", "--config", str(cfg), "--samples-out", str(samples)]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "configuration error: line 1: max_attempts must be at most 2**32\n")
        assert not samples.exists()

    def test_2_32_max_attempts_accepted(self):
        assert parse_config(f"max_attempts = {2**32}\n").trial.max_attempts == 2**32
        with pytest.raises(ValueError, match="max_attempts must be at most 2"):
            TrialConfig(max_attempts=2**32 + 1)

    @pytest.mark.parametrize("command, flags, setting, message", [
        ("analytic", (), "alpha = inf", "line 2: alpha must be finite"),
        ("analytic", (), "p_b_dbm = inf", "line 2: p_b_dbm must be finite"),
        ("analytic", (), "lambda_b = inf", "line 2: lambda_b must be finite"),
        ("analytic", (), "window_side = inf", "line 2: window_side must be finite"),
        ("analytic", (), "noise_dbm = nan", "line 2: noise_dbm must be finite"),
        ("sweep", ("--sweep", "lambda_b:0.001:inf:3"), "", "sweep_stop must be finite"),
        ("simulate", ("--seed", "-1"), "", "seed must be non-negative"),
        ("snapshot", (), "seed = -3", "line 2: seed must be non-negative"),
    ])
    def test_nonfinite_values_and_negative_seed_exit_2(
        self, tmp_path: Path, capsys, command, flags, setting, message
    ):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"iterations = 20\n{setting}\n")
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {message}")

    @pytest.mark.parametrize("command, flags, setting, message", [
        ("analytic", (), "beta_u_db = 4000",
         "line 2: beta_u_db = 4000.0 overflows a float in linear units"),
        ("snapshot", (), "p_b_dbm = 5000",
         "line 2: p_b_dbm = 5000.0 overflows a float in linear units"),
        *(("sweep", ("--sweep", "beta_u_db:0:5000:2", "--mode", mode), "",
           "beta_u_db = 5000.0 overflows a float in linear units")
          for mode in ("analytic", "simulate")),
        # 10^-400 is 0.0 in a float: beta_u = 0, as a document setting -4000
        *(("sweep", ("--sweep", "beta_u_db:-4000:0:2", "--mode", mode), "",
           "beta_u_db sweep endpoint -4000: beta_u must be positive")
          for mode in ("analytic", "simulate")),
        ("sweep", (), "sweep_variable = beta_d_db\nsweep_start = 0\nsweep_stop = 5000",
         "line 2: beta_d_db = 5000.0 overflows a float in linear units"),
    ])
    def test_db_values_past_float_range_exit_2(
        self, tmp_path: Path, capsys, command, flags, setting, message
    ):
        # no row is written: the sweep's endpoints are checked before its first
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"iterations = 20\n{setting}\n")
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")

    @pytest.mark.parametrize("command", ["simulate", "snapshot"])
    def test_window_too_small_for_any_station_exits_2(self, tmp_path: Path, capsys, command):
        # 0.005 stations expected in a 1 m window: every draw is unusable
        cfg = tmp_path / "a.cfg"
        cfg.write_text("window_side = 1\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: no usable realization in 65 draws: 65 had fewer than 2"
        )

    def test_validate_window_too_small_exits_2(self, tmp_path: Path):
        # the spatial checks give an empty window +inf distances, not a
        # redraw, so the campaigns are reached and exit 2 as simulate does
        cfg = tmp_path / "a.cfg"
        cfg.write_text("window_side = 1\n")
        out = subprocess.run(
            [sys.executable, "-m", "dudasim.cli", "validate", "--config", str(cfg)],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr.startswith("configuration error: no usable realization")

    def test_validate_zero_empirical_rho_fails_without_traceback(self, tmp_path: Path):
        # at beta_u = 40 dB, 200 trials see a handful of first-attempt UL
        # successes at most (analytic rho_u 0.0032 for duda, less for duca),
        # often none, when the closed form diverges: too few for the normal
        # approximation of the 3 SE test, so both checks fail.  Ten or more
        # in 200 at rho_u 0.0032 has probability about 3e-9 for independent
        # trials, and below 1e-6 with the clustering of probes.
        cfg = tmp_path / "a.cfg"
        cfg.write_text("beta_u_db = 40\n")
        out = self.run_cli("validate", "--iterations", "200", "--config", str(cfg))
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        for scheme in ("duca", "duda"):
            line = next(x for x in out.stdout.splitlines() if f"self_consistency_{scheme}" in x)
            assert line.startswith("FAIL ")
            hits = re.search(r"measured=(\d+) threshold=10 \(first-attempt successes UL=(\d+) DL=",
                             line)
            assert hits and hits[1] == hits[2] and int(hits[1]) < 10, line
            assert line.endswith("the normal approximation behind the 3 SE test needs at least 10)")

    def test_noise_off_simulate_ignores_noise_dbm(self, tmp_path: Path):
        # noise = off is sigma^2 = 0 in the simulation, as in the analysis,
        # whatever noise_dbm says; noise = on applies it
        def simulate(doc: str) -> str:
            cfg, out = tmp_path / "a.cfg", tmp_path / "a.csv"
            cfg.write_text(doc)
            argv = ["simulate", "--scheme", "duda", "--iterations", "200", "--config", str(cfg)]
            assert main(argv + ["--out", str(out)]) == 0
            return out.read_text()

        default = simulate("")
        assert simulate("noise_dbm = -20\nnoise = off\n") == default
        assert simulate("noise_dbm = -20\nnoise = on\n") != default

    def test_campaign_resample_cap_exits_2(self, tmp_path: Path, capsys):
        # 0.045 stations expected in a 3 m window, 0.10 in the 4.5 m window
        # that the guard widens it to: 0.47% of realizations hold 2 or more,
        # each with one probe, so 65 in a row without one come before the
        # next with probability 0.74.  Twenty usable realizations, each within
        # 65 of the last, would pass it: about 0.26^20 = 3e-12.
        cfg = tmp_path / "a.cfg"
        cfg.write_text("window_side = 3\niterations = 20\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: no usable realization in 65 draws: ")
        assert "had fewer than 2 base stations (expected lambda_b*side^2 = 0.045" in err
        assert "left the typical BS unmatched\n" in err

    @pytest.mark.parametrize("command", ["analytic", "validate"])
    @pytest.mark.parametrize("setting", [
        "noise = on\np_m_dbm = -30\nnoise_dbm = 30",
        "alpha = 2.05\ndelta = 0.999999999\nbeta_u_db = 20",
    ], ids=["noise_on", "alpha_2.05"])
    def test_unconverged_quadrature_exits_2(self, tmp_path: Path, capsys, command, setting):
        # the UL integral exhausts QUADPACK's subdivisions at these corners
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"iterations = 20\n{setting}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: UL success probability integral did not converge "
            "within 200 subdivisions (value="
        )

    @pytest.mark.parametrize("lambda_b", ["1e-200", "1e-30"])
    def test_zero_analytic_success_probability_exits_2(self, tmp_path: Path, capsys, lambda_b):
        # with noise on, a vanishing density leaves no signal above the noise:
        # (pi*lambda_b)^2 underflows to 0 at 1e-200 (once a ZeroDivisionError
        # in the noise exponent), and at 1e-30 the Gamma moments underflow
        # (once a ValueError from the closed form), each with a traceback
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"noise = on\nlambda_b = {lambda_b}\n")
        assert main(["analytic", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", (
            "configuration error: the analytic UL success probability is 0 at this "
            "configuration, so the expected latency diverges\n"))

    def test_sweep_with_every_row_failed_exits_2(self, tmp_path: Path, capsys):
        # the CSV still carries every row as NaNs, with a warning per row
        cfg = tmp_path / "a.cfg"
        cfg.write_text("window_side = 1\n")
        assert main(["sweep", "--config", str(cfg), "--sweep", "s_u:0.1:0.9:2",
                     "--mode", "simulate"]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == [
            f"s_u,{v},{s},simulate,nan,nan,nan,nan,nan"
            for v in ("0.1", "0.9") for s in ("duda", "duca")
        ]
        lines = err.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("sweep point s_u=") for line in lines[:4])
        assert lines[4] == "configuration error: all 4 sweep rows failed"

    @pytest.mark.parametrize("command", ["analytic", "simulate", "snapshot"])
    def test_unread_default_sweep_is_not_checked(self, tmp_path: Path, capsys, command):
        # the default s_u sweep runs to 0.9, past t_u; only sweep reads it
        cfg = tmp_path / "a.cfg"
        cfg.write_text("t_u = 0.6\niterations = 20\n")
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    def test_default_sweep_checked_when_swept(self, tmp_path: Path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("t_u = 0.6\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", "configuration error: s_u sweep endpoint 0.9: "
            "s_u must lie in (0, t_u]; s_u must not exceed t_u\n")

    @pytest.mark.parametrize("command", ["analytic", "validate", "snapshot"])
    def test_timing_flag_only_where_it_is_read(self, capsys, command):
        # only simulate and sweep write the wall_time_ms column
        with pytest.raises(SystemExit) as exc:
            main([command, "--timing"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --timing" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_timing_flag_appends_the_column(self, tmp_path: Path, capsys, command):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("rho_u = 0.6\nrho_d = 0.7\niterations = 20\nmode = simulate\n")
        assert main([command, "--config", str(cfg), "--timing"]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(",wall_time_ms")

    def test_missing_config_file(self):
        out = self.run_cli("analytic", "--config", "/nonexistent/path.cfg")
        assert out.returncode == 2

    def test_undecodable_config_file_exits_2(self, tmp_path: Path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# d\xe9faut\niterations = 20\n")
        assert main(["analytic", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read config file {cfg}: ")

    def test_unwritable_out_exits_2(self, tmp_path: Path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["analytic", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {out}: ")

    def test_unwritable_samples_out_exits_2(self, tmp_path: Path, capsys):
        # the table has already gone to stdout when the samples file fails
        cfg, raw = tmp_path / "a.cfg", tmp_path / "missing" / "raw.csv"
        cfg.write_text("rho_u = 0.6\nrho_d = 0.7\niterations = 20\n")
        assert main(["simulate", "--config", str(cfg), "--samples-out", str(raw)]) == 2
        got = capsys.readouterr()
        assert got.out.startswith("variable,value,scheme")
        assert got.err.startswith(f"configuration error: cannot write {raw}: ")

    def test_snapshot_deterministic(self, tmp_path: Path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.run_cli("snapshot", "--seed", "3", "--out", str(f1)).returncode == 0
        assert self.run_cli("snapshot", "--seed", "3", "--out", str(f2)).returncode == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().splitlines()[0] == "x,y,role,pair_id"

    def test_sweep_csv_to_file(self, tmp_path: Path):
        f = tmp_path / "sweep.csv"
        out = self.run_cli(
            "sweep", "--sweep", "rho_product:0.3:1.0:3", "--mode", "analytic",
            "--out", str(f),
        )
        assert out.returncode == 0
        assert f.read_text().startswith("variable,value,scheme")

    def test_simulate_with_samples(self, tmp_path: Path):
        f = tmp_path / "sim.csv"
        raw = tmp_path / "raw.csv"
        out = self.run_cli(
            "simulate", "--iterations", "80", "--seed", "2", "--scheme", "duda",
            "--out", str(f), "--samples-out", str(raw),
        )
        assert out.returncode == 0, out.stderr
        assert raw.read_text().startswith("iteration,scheme,attempts,latency,censored")
        assert len(raw.read_text().strip().splitlines()) == 81

    @pytest.mark.slow
    def test_validate_exit_code_reflects_honest_failure(self):
        # the DL cross-validation check fails at the default parameters, so
        # validate reports it and exits 1
        out = self.run_cli("validate", "--iterations", "800")
        assert out.returncode == 1
        assert "FAIL analytic_vs_mc_rho_d" in out.stdout
        assert "PASS latency_gap_identity" in out.stdout
        assert out.stdout.strip().endswith("overall: FAIL")

    def test_config_file_and_flag_precedence(self, tmp_path: Path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("seed = 5\niterations = 60\nscheme = duda\n")
        f1 = tmp_path / "r1.csv"
        f2 = tmp_path / "r2.csv"
        a = self.run_cli("simulate", "--config", str(cfg), "--out", str(f1))
        b = self.run_cli(
            "simulate", "--config", str(cfg), "--seed", "5", "--out", str(f2)
        )
        assert a.returncode == b.returncode == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestSchemeIndependence:
    """One realization stage serves both schemes; a scheme's outputs are the
    same bytes whether it runs alone or beside the other."""

    @staticmethod
    def _run(tmp_path: Path, capsys, doc: str, *argv: str):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(doc)
        raw = tmp_path / "raw.csv"
        samples = ["--samples-out", str(raw)] if argv[0] == "simulate" else []
        assert main([*argv, "--config", str(cfg), *samples]) == 0
        rows = capsys.readouterr().out.splitlines()
        lines = rows[1:] + (raw.read_text().splitlines()[1:] if samples else [])
        return {scheme: [x for x in lines if f",{scheme}," in x] for scheme in ("duda", "duca")}

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    @pytest.mark.parametrize("model", ["independent", "fixed", "fixed redraw"])
    @pytest.mark.parametrize("command", [
        ("simulate",), ("sweep", "--sweep", "lambda_b:0.004:0.006:2", "--mode", "simulate"),
    ], ids=["simulate", "sweep"])
    def test_alone_equals_beside(self, tmp_path: Path, capsys, mode, model, command):
        doc = (f"typical_mode = {mode}\nattempt_model = {model.split()[0]}\n"
               f"direction_redraw = {'on' if 'redraw' in model else 'off'}\n"
               "iterations = 40\nmax_attempts = 50\nseed = 3\n")
        both = self._run(tmp_path, capsys, doc, *command, "--scheme", "both")
        for scheme in ("duda", "duca"):
            alone = self._run(tmp_path, capsys, doc, *command, "--scheme", scheme)
            assert alone[scheme] == both[scheme]
            assert len(alone[scheme]) == (41 if command[0] == "simulate" else 2)

    def test_a_failing_scheme_fails_alone(self, monkeypatch, capsys):
        # a matching that leaves every station single gives duda no usable
        # draw; duca's rows are still those it gets alone
        monkeypatch.setattr(
            "dudasim.deployment.pair_bs",
            lambda points, indptr, indices, gen: (np.empty((0, 2), dtype=int),
                                                  np.arange(len(points))),
        )
        text = ("mode = simulate\nsweep_variable = lambda_b\nsweep_start = 0.004\n"
                "sweep_stop = 0.006\nsweep_steps = 2\niterations = 20\n")
        rows, _ = sweep_rows(text, scheme="both")
        alone, _ = sweep_rows(text, scheme="duca")
        assert rows_to_csv([r for r in rows if r.scheme == "duca"]) == rows_to_csv(alone)
        assert all(math.isnan(r.latency_mean) for r in rows if r.scheme == "duda")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for line, value in zip(err, ("0.004", "0.006")):
            assert line == (
                f"sweep point lambda_b={value} duda/simulate failed: no usable realization "
                "in 65 draws: 0 had fewer than 2 base stations (expected lambda_b*side^2 = "
                f"{float(value) * 150**2:.3g} per window) and 65 left the typical BS unmatched"
            )
