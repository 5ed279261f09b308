import pytest

from dudasim.cli import main
from dudasim.config import ConfigError, parse_config, parse_kv

# (VAR:START:STOP, the rule the sweep breaks or None): each variable's sweep
# ending on a closed end of its domain, and just past each end (t_u is 1)
SWEEP_ENDS = [
    ("s_u:0.1:1", None),
    ("s_u:0:0.5", "s_u must lie in (0, t_u]"),
    ("s_u:0.1:1.000001", "s_u must lie in (0, t_u]"),
    ("rho_product:0.3:1", None),
    ("rho_product:0:0.5", "rho_product sweep must stay within (0, 1]"),
    ("rho_product:0.3:1.000001", "rho_product sweep must stay within (0, 1]"),
    ("delta:1e-09:0.999999999", None),
    ("delta:0:0.5", "delta must lie strictly between 0 and 1"),
    ("delta:0.5:1", "delta must lie strictly between 0 and 1"),
    ("lambda_b:1e-09:0.01", None),
    ("lambda_b:0:0.01", "lambda_b must be positive"),
    *((f"{var}:-3000:300", None) for var in ("beta_u_db", "beta_d_db")),
    # 10^-400 is 0.0 in a float, and 10^500 overflows one
    *((f"{var}:-4000:0", f"{var[:6]} must be positive") for var in ("beta_u_db", "beta_d_db")),
    *((f"{var}:0:5000", f"{var} = 5000.0 overflows a float in linear units")
      for var in ("beta_u_db", "beta_d_db")),
]


class TestDefaults:
    def test_empty_document_gives_table_defaults(self):
        b = parse_config("")
        assert b.params.lambda_b == 0.005
        assert b.params.delta == 0.5
        assert b.params.alpha == 4.0
        assert b.params.beta_u == pytest.approx(1.0)
        assert b.params.beta_d == pytest.approx(10 ** -0.5)
        assert b.params.p_b == pytest.approx(10.0)
        assert b.params.p_m == pytest.approx(0.1)
        assert b.params.noise_power == 0.0
        assert b.trial.iterations == 10000
        assert b.trial.window_half_width == pytest.approx(75.0)
        assert b.timing.t_d == 1.0 and b.timing.t_u == 1.0
        assert b.timing.w == 1.0

    def test_comments_and_blanks(self):
        text = "\n# a comment\n  \ndelta = 0.25  # trailing comment\n"
        b = parse_config(text)
        assert b.params.delta == 0.25


class TestConversionsAtBoundary:
    def test_beta_db(self):
        b = parse_config("beta_u_db = 3\n")
        assert b.params.beta_u == pytest.approx(10 ** 0.3)
        assert b.params.beta_u == pytest.approx(1.9952623149688795)

    def test_powers_dbm(self):
        b = parse_config("p_b_dbm = 46\np_m_dbm = 23\n")
        assert b.params.p_b == pytest.approx(10 ** 1.6)
        assert b.params.p_m == pytest.approx(10 ** -0.7)

    def test_window_side(self):
        b = parse_config("window_side = 300\n")
        assert b.trial.window_half_width == pytest.approx(150.0)


class TestErrors:
    def test_alpha_convergence_constraint(self):
        with pytest.raises(ConfigError) as e:
            parse_config("alpha = 2\n")
        assert "alpha" in str(e.value)
        assert "exceed 2" in str(e.value)
        assert e.value.line == 1

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError) as e:
            parse_config("delta = 0.5\nbogus_key = 1\n")
        assert "bogus_key" in str(e.value)
        assert e.value.line == 2

    def test_malformed_value(self):
        with pytest.raises(ConfigError) as e:
            parse_config("lambda_b = dense\n")
        assert "lambda_b" in str(e.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("just some words\n")

    def test_timing_violation_attributed(self):
        with pytest.raises(ConfigError) as e:
            parse_config("t_u = 1.0\ns_u = 1.5\n")
        assert "s_u" in str(e.value)
        assert e.value.line == 2

    def test_bad_choice(self):
        with pytest.raises(ConfigError):
            parse_config("scheme = triple\n")


class TestSweepValidation:
    def test_defaults(self):
        s = parse_config("").sweep
        assert s.variable == "s_u"
        assert s.steps == 9
        assert s.schemes == ("duda", "duca")

    def test_su_range_checked_against_slot(self):
        with pytest.raises(ConfigError):
            parse_config("sweep_variable = s_u\nsweep_start = 0.1\nsweep_stop = 1.5\n")

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            parse_config("sweep_variable = rho_product\nsweep_start = 0.0\nsweep_stop = 1.0\n")
        parse_config("sweep_variable = rho_product\nsweep_start = 0.3\nsweep_stop = 1.0\n")

    @pytest.mark.parametrize("sweep, rule", SWEEP_ENDS, ids=[s for s, _ in SWEEP_ENDS])
    def test_domain_ends(self, sweep, rule, capsys):
        variable, start, stop = sweep.split(":")
        doc = f"iterations = 20\nsweep_variable = {variable}\nsweep_start = {start}\n" \
              f"sweep_stop = {stop}\n"
        flags = {"sweep_variable": variable, "sweep_start": start, "sweep_stop": stop}
        if rule is None:
            assert parse_config(doc).sweep.stop == parse_config("", flags).sweep.stop == float(stop)
            return
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        message = str(exc.value).removeprefix("line 2: ")
        assert exc.value.line == 2 and rule in message
        # the same message from the flag, which has no line
        assert main(["sweep", "--sweep", f"{sweep}:2", "--iterations", "20"]) == 2
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")

    def test_steps_and_order(self):
        with pytest.raises(ConfigError):
            parse_config("sweep_start = 0.5\nsweep_stop = 0.2\n")
        with pytest.raises(ConfigError):
            parse_config("sweep_steps = 1\n")

    def test_scheme_selection(self):
        assert parse_config("scheme = duda\n").sweep.schemes == ("duda",)
        assert parse_config("scheme = both\n").sweep.schemes == ("duda", "duca")


class TestOverrides:
    def test_flags_beat_file(self):
        b = parse_config("delta = 0.3\nseed = 4\n", overrides={"delta": "0.7"})
        assert b.params.delta == 0.7
        assert b.trial.seed == 4

    def test_override_validation_still_applies(self):
        with pytest.raises(ConfigError):
            parse_config("", overrides={"alpha": "1.5"})

    def test_noise_toggle(self):
        # noise = on applies noise_dbm, -174 dBm unless given; noise off is sigma^2 = 0
        assert parse_config("noise = on\n").params.noise_power == pytest.approx(10 ** -20.4, abs=0.0)
        assert parse_config("noise = off\n").params.noise_power == 0.0
        assert parse_config("noise_dbm = -20\n").params.noise_power == 0.0
        assert parse_config("noise_dbm = -20\nnoise = off\n").params.noise_power == 0.0
        on = parse_config("noise_dbm = -20\nnoise = on\n")
        assert on.params.noise_power == pytest.approx(1e-5, rel=1e-15)


class TestForcedLink:
    def test_direct_override(self):
        b = parse_config("rho_u = 0.9\nrho_d = 0.8\n")
        assert b.forced_link is not None
        assert b.forced_link.rho_u == 0.9
        assert b.forced_link.rho_d == 0.8
        assert parse_config("").forced_link is None

    def test_must_come_in_pairs(self):
        with pytest.raises(ConfigError):
            parse_config("rho_u = 0.9\n")

    def test_range_checked(self):
        with pytest.raises(ConfigError):
            parse_config("rho_u = 0.0\nrho_d = 0.5\n")
        with pytest.raises(ConfigError):
            parse_config("rho_u = 0.5\nrho_d = 1.2\n")


class TestParseKv:
    def test_line_numbers(self):
        kv = parse_kv("a_nonsense_free_doc = 1\n".replace("a_nonsense_free_doc", "delta"))
        assert kv["delta"] == ("1", 1)
