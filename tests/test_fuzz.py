"""Seeded fuzz of the configuration grammar through the in-process CLI.

Each case writes a random key=value document (mostly valid values, some
out of range or malformed) and runs one of ``analytic``, ``simulate``,
``sweep`` or ``snapshot`` on it with small iterations and windows.  Every
run must either exit 0 with finite, in-range output, or exit 2 with a
``configuration error:`` line; a sweep row may be NaN only beside its
stderr warning, and exit 2 only when every row is.  Warnings raise.
``validate`` is left out: it exits 1 by design at the defaults
(criterion 3), and one run costs seconds.

On a 2-core x86-64 host the quick test runs its 400 cases in about 5 s of
CPU, and the ``slow`` one its 4,000 cases, from another seed, in about
40 s.  About a third of the cases exit 2.  A failure names the case's
seed, command and document, so it can be rerun with ``run_case``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import warnings

import pytest

from dudasim.cli import main
from dudasim.config import SWEEP_VARIABLES

QUICK_CASES = 400
SLOW_CASES = 4000
COMMANDS = ("analytic", "simulate", "sweep", "snapshot")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _pick(rng: random.Random, usual, *odd):
    """A value from ``usual()`` or, one time in twenty, one of ``odd``."""
    return rng.choice(odd) if odd and rng.random() < 0.05 else usual()


def _sweep_range(rng: random.Random, variable: str, s_max: float):
    """(start, stop) mostly inside the variable's domain, sometimes not."""
    if rng.random() < 0.05:
        return rng.choice([(0.5, 0.5), (0.9, 0.1), (-1.0, 0.5), (0.0, 2.0)])
    if variable == "s_u":
        lo, hi = 0.05 * s_max, s_max
    elif variable == "rho_product":
        lo, hi = 1e-5, 1.0
    elif variable == "delta":
        lo, hi = 1e-6, 1 - 1e-6
    elif variable == "lambda_b":  # from windows too sparse for 2 stations up
        lo, hi = 1e-4, 0.02
    else:
        lo, hi = -20.0, 40.0
    a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
    return (a, b) if a < b else (lo, hi)


def random_document(rng: random.Random, command: str) -> str:
    """A key=value document drawn from the documented keys; a sweep always
    names its variable and range, and mostly its mode."""
    # slots no shorter than the default data and ACK sizes (0.5), and data
    # and ACK sizes that fit the default slots (1) too, when these are unset
    t_u, t_d = _loguniform(rng, 0.5, 5), _loguniform(rng, 0.5, 5)
    s_max = min(t_u, 1.0), min(t_d, 1.0)
    values = {
        "lambda_b": lambda: _pick(rng, lambda: _loguniform(rng, 1e-3, 0.02), 0.0, -0.01),
        "delta": lambda: _pick(rng, lambda: rng.uniform(0.01, 0.99),
                               1e-9, 0.999999999, 0.0, 1.0),
        "alpha": lambda: _pick(rng, lambda: rng.uniform(2.2, 6.0), 2.0001, 2.05, 2.0, 8.0),
        "beta_u_db": lambda: _pick(rng, lambda: rng.uniform(-20, 40), 80.0),
        "beta_d_db": lambda: _pick(rng, lambda: rng.uniform(-20, 40), -60.0),
        "p_b_dbm": lambda: rng.uniform(-30, 50),
        "p_m_dbm": lambda: rng.uniform(-30, 50),
        "noise_dbm": lambda: _pick(rng, lambda: rng.uniform(-200, -60), 30.0),
        "t_u": lambda: t_u,
        "t_d": lambda: t_d,
        "s_u": lambda: _pick(rng, lambda: rng.uniform(0.05, 1.0) * s_max[0], 2 * t_u),
        "s_d": lambda: _pick(rng, lambda: rng.uniform(0.05, 1.0) * s_max[1], 0.0),
        "w": lambda: _pick(rng, lambda: _loguniform(rng, 0.1, 5), -1.0),
        "window_side": lambda: _pick(rng, lambda: _loguniform(rng, 5, 120), 1.0, 0.0),
        "iterations": lambda: _pick(rng, lambda: rng.randint(1, 20), 0, 2**32 + 1),
        "max_attempts": lambda: _pick(rng, lambda: rng.randint(1, 2000), 0),
        "seed": lambda: _pick(rng, lambda: rng.randint(0, 10**6), 2**64 + 7, -1),
        "scheme": lambda: rng.choice(["duda", "duca", "both"]),
        "mode": lambda: rng.choice(["analytic", "simulate", "both"]),
        "noise": lambda: rng.choice(["on", "off"]),
        "typical_mode": lambda: rng.choice(["ul", "dl"]),
        "attempt_model": lambda: rng.choice(["independent", "fixed"]),
        "direction_redraw": lambda: rng.choice(["on", "off"]),
    }
    # iterations and window_side are always set, the defaults (10^4 and 150 m)
    # cost seconds per run
    always = ("iterations", "window_side") + (("mode",) if command == "sweep" else ())
    lines = [f"{key} = {make()}" for key, make in values.items()
             if key in always or rng.random() < 0.35]
    if command == "sweep" or rng.random() < 0.3:
        variable = rng.choice(SWEEP_VARIABLES)
        start, stop = _sweep_range(rng, variable, s_max[0])
        lines += [f"sweep_variable = {variable}", f"sweep_start = {start!r}",
                  f"sweep_stop = {stop!r}",
                  f"sweep_steps = {_pick(rng, lambda: rng.randint(2, 4), 1)}"]
    if rng.random() < 0.3:  # forced success probabilities, now and then unpaired
        lines.append(f"rho_u = {_pick(rng, lambda: _loguniform(rng, 1e-3, 1), 0.0, 1.5)!r}")
        if rng.random() < 0.9:
            lines.append(f"rho_d = {_loguniform(rng, 1e-3, 1)!r}")
    if rng.random() < 0.05:  # malformed grammar
        lines.append(rng.choice(["alpha 4", "bogus = 1", "delta =", "iterations = 2.5",
                                 "beta_u_db = abc", "noise_dbm = inf", "scheme = both # c",
                                 "# only a comment", "seed = 0x10"]))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _rows(text: str):
    header, *body = text.splitlines()
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in body]


def _check_latency_row(row: dict, context: str) -> None:
    for key in ("rho_u", "rho_d", "censored_fraction"):
        assert 0.0 <= float(row[key]) <= 1.0, context
    assert math.isfinite(float(row["latency_mean"])) and float(row["latency_mean"]) > 0, context
    assert math.isfinite(float(row["latency_ci95"])) and float(row["latency_ci95"]) >= 0, context


def check_output(command: str, code: int, out: str, err: str, context: str) -> None:
    """The contract every run must meet (see the module docstring)."""
    assert code in (0, 2), context
    if code == 2:
        assert err.splitlines()[-1].startswith("configuration error: "), context
    if code == 2 and not (command == "sweep" and out):
        return
    rows = _rows(out)
    assert rows, context
    if command == "analytic":
        for row in rows:
            assert 0.0 <= float(row["rho_u"]) <= 1.0 and 0.0 <= float(row["rho_d"]) <= 1.0, context
            protocol, *rest = (float(row[k]) for k in
                               ("protocol", "retransmission", "fundamental", "total"))
            # the coupled closed-form protocol delay is negative wherever
            # t_u*(t_d - s_u) > t_d*(t_d + 3*s_u); the total stays positive
            assert math.isfinite(protocol) and all(math.isfinite(x) for x in rest), context
            assert rest[0] >= 0 and rest[1] > 0 and rest[2] > 0, context
    elif command == "snapshot":
        assert all(math.isfinite(float(r[k])) for r in rows for k in ("x", "y")), context
    else:
        failed = [r for r in rows if r["latency_mean"] == "nan"]
        warned = [line for line in err.splitlines() if line.startswith("sweep point ")]
        assert len(failed) == len(warned), context
        assert (len(failed) == len(rows)) == (code == 2), context
        for row in rows:
            if row["latency_mean"] == "nan":
                assert all(row[k] == "nan" for k in ("latency_ci95", "rho_u", "rho_d")), context
            else:
                _check_latency_row(row, context)


def run_case(seed: int, tmp_path) -> int:
    """Draw case ``seed``, run it in process, check its output and return
    its exit code."""
    rng = random.Random(seed)
    command = rng.choice(COMMANDS)
    document = random_document(rng, command)
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(document)
    out, err = io.StringIO(), io.StringIO()
    context = f"case {seed}: dudasim {command} on\n{document}"
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main([command, "--config", str(cfg)])
        except BaseException as exc:
            raise AssertionError(f"{context}raised {exc!r}") from exc
    check_output(command, code, out.getvalue(), err.getvalue(),
                 context + f"stdout:\n{out.getvalue()}stderr:\n{err.getvalue()}")
    return code


def test_config_fuzz_quick(tmp_path):
    for case in range(QUICK_CASES):
        run_case(case, tmp_path)


@pytest.mark.slow
def test_config_fuzz_slow(tmp_path):
    for case in range(10**6, 10**6 + SLOW_CASES):
        run_case(case, tmp_path)
