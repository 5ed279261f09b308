"""Configuration parsing: flat key=value documents with '#' comments.

Unspecified keys take the standard parameter-table defaults (densities,
powers and thresholds in dB/dBm, converted to linear units here at the IO
boundary; slot timing in slot units; 10^4 iterations; a 150 m square
observation window).  Values arriving through CLI flags are merged as
overrides before validation: flags override the file, the file overrides
defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .params import (
    LinkSuccess,
    SlotTiming,
    SystemParams,
    TrialConfig,
    db_to_linear,
    dbm_to_watts,
    validate,
    validate_link,
)


class ConfigError(ValueError):
    """Malformed or invalid configuration; carries the offending line."""

    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)
        self.line = line


SWEEP_VARIABLES = ("s_u", "rho_product", "delta", "lambda_b", "beta_u_db", "beta_d_db")


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep request."""

    variable: str = "s_u"
    start: float = 0.1
    stop: float = 0.9
    steps: int = 9
    schemes: Tuple[str, ...] = ("duda", "duca")
    mode: str = "analytic"


@dataclass(frozen=True)
class ConfigBundle:
    params: SystemParams
    timing: SlotTiming
    trial: TrialConfig
    sweep: SweepSpec
    include_noise: bool = False
    emit_timing: bool = False
    forced_link: LinkSuccess | None = None  # direct (rho_u, rho_d) override


_FLOAT_KEYS = {
    "lambda_b", "delta", "alpha", "beta_u_db", "beta_d_db", "p_b_dbm",
    "p_m_dbm", "noise_dbm", "bandwidth", "t_d", "t_u", "s_u", "s_d", "w",
    "window_side", "sweep_start", "sweep_stop", "rho_u", "rho_d",
}
_INT_KEYS = {"iterations", "max_attempts", "seed", "sweep_steps"}
_CHOICE_KEYS = {
    "scheme": ("duda", "duca", "both"),
    "mode": ("analytic", "simulate", "both"),
    "noise": ("on", "off"),
    "typical_mode": ("ul", "dl"),
    "attempt_model": ("independent", "fixed"),
    "direction_redraw": ("on", "off"),
    "sweep_variable": SWEEP_VARIABLES,
}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | set(_CHOICE_KEYS)

# config key(s) that set each validated field, for error attribution
_FIELD_SOURCES = {
    "lambda_b": "lambda_b", "delta": "delta", "alpha": "alpha",
    "beta_u": "beta_u_db", "beta_d": "beta_d_db", "p_b": "p_b_dbm",
    "p_m": "p_m_dbm", "noise_power": "noise_dbm", "bandwidth": "bandwidth",
    "t_d": "t_d", "t_u": "t_u", "s_u": "s_u", "s_d": "s_d", "w": "w",
}


def parse_kv(text: str) -> Dict[str, Tuple[str, int]]:
    """Parse a key=value document into {key: (raw value, line number)}."""
    out: Dict[str, Tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if not value:
            raise ConfigError(f"missing value for {key!r}", lineno)
        out[key] = (value, lineno)
    return out


def _typed(key: str, raw: str, line: int):
    if key in _FLOAT_KEYS:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"malformed value for {key!r}: {raw!r}", line) from None
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw!r}", line)
        return value
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"malformed value for {key!r}: {raw!r}", line) from None
    choices = _CHOICE_KEYS[key]
    if raw not in choices:
        raise ConfigError(
            f"invalid value for {key!r}: {raw!r} (choices: {', '.join(choices)})", line
        )
    return raw


def build_bundle(kv: Dict[str, Tuple[str, int]]) -> ConfigBundle:
    """Materialize a validated configuration bundle from raw key/value pairs."""
    vals: Dict[str, object] = {}
    lines: Dict[str, int] = {}
    for key, (raw, line) in kv.items():
        vals[key] = _typed(key, raw, line)
        lines[key] = line

    def get(key, default):
        return vals.get(key, default)

    params = SystemParams(
        lambda_b=get("lambda_b", 0.005),
        delta=get("delta", 0.5),
        alpha=get("alpha", 4.0),
        beta_u=db_to_linear(get("beta_u_db", 0.0)),
        beta_d=db_to_linear(get("beta_d_db", -5.0)),
        p_b=dbm_to_watts(get("p_b_dbm", 40.0)),
        p_m=dbm_to_watts(get("p_m_dbm", 20.0)),
        noise_power=dbm_to_watts(get("noise_dbm", -174.0)),
        bandwidth=get("bandwidth", 1.0),
    )
    timing = SlotTiming(
        t_d=get("t_d", 1.0),
        t_u=get("t_u", 1.0),
        s_u=get("s_u", 0.5),
        s_d=get("s_d", 0.5),
        w=vals.get("w"),
    )
    violations = validate(params, timing)
    if violations:
        first = violations[0]
        fld = first.split()[0]
        key = _FIELD_SOURCES.get(fld, "")
        raise ConfigError("; ".join(violations), lines.get(key, 0))

    iterations, max_attempts = get("iterations", 10000), get("max_attempts", 1000)
    window_side, seed = get("window_side", 150.0), get("seed", 0)
    for key, bad, rule in (
        ("iterations", iterations < 1, "at least 1"),
        # a synthetic campaign's trial index is one 32-bit entropy word
        ("iterations", iterations > 2**32, "at most 2**32"),
        ("max_attempts", max_attempts < 1, "at least 1"),
        ("window_side", not window_side > 0, "positive"),
        ("seed", seed < 0, "non-negative"),
    ):
        if bad:
            raise ConfigError(f"{key} must be {rule}", lines.get(key, 0))

    scheme_choice = get("scheme", "both")
    trial = TrialConfig(
        params=params,
        timing=timing,
        iterations=iterations,
        max_attempts=max_attempts,
        scheme="duda" if scheme_choice == "both" else scheme_choice,
        seed=seed,
        direction_redraw=get("direction_redraw", "off") == "on",
        attempt_model=get("attempt_model", "independent"),
        typical_mode=get("typical_mode", "dl"),
        window_half_width=window_side / 2.0,
    )

    schemes = ("duda", "duca") if scheme_choice == "both" else (scheme_choice,)
    sweep = SweepSpec(
        variable=get("sweep_variable", "s_u"),
        start=get("sweep_start", 0.1),
        stop=get("sweep_stop", 0.9),
        steps=get("sweep_steps", 9),
        schemes=schemes,
        mode=get("mode", "analytic"),
    )
    _check_sweep(sweep, timing, lines)

    forced_link = None
    if ("rho_u" in vals) != ("rho_d" in vals):
        present = "rho_u" if "rho_u" in vals else "rho_d"
        raise ConfigError(
            "rho_u and rho_d must be given together", lines.get(present, 0)
        )
    if "rho_u" in vals:
        forced_link = LinkSuccess(vals["rho_u"], vals["rho_d"])
        bad = validate_link(forced_link)
        if bad:
            raise ConfigError("; ".join(bad), lines.get("rho_u", 0))

    return ConfigBundle(
        params=params,
        timing=timing,
        trial=trial,
        sweep=sweep,
        include_noise=get("noise", "off") == "on",
        forced_link=forced_link,
    )


def _check_sweep(sweep: SweepSpec, timing: SlotTiming, lines: Dict[str, int]) -> None:
    line = lines.get("sweep_variable", lines.get("sweep_start", 0))
    if sweep.variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {sweep.variable!r}", line)
    if not sweep.start < sweep.stop:
        raise ConfigError("sweep start must be below stop", lines.get("sweep_start", line))
    if sweep.steps < 2:
        raise ConfigError("sweep needs at least 2 steps", lines.get("sweep_steps", line))
    lo, hi = sweep.start, sweep.stop
    if sweep.variable == "s_u" and not (0.0 < lo and hi <= timing.t_u):
        raise ConfigError("s_u sweep must stay within (0, t_u]", line)
    if sweep.variable == "rho_product" and not (0.0 < lo and hi <= 1.0):
        raise ConfigError("rho_product sweep must stay within (0, 1]", line)
    if sweep.variable == "delta" and not (0.0 < lo and hi < 1.0):
        raise ConfigError("delta sweep must stay within (0, 1)", line)
    if sweep.variable == "lambda_b" and not 0.0 < lo:
        raise ConfigError("lambda_b sweep must be positive", line)


def parse_config(text: str, overrides: Dict[str, str] | None = None) -> ConfigBundle:
    """Parse a configuration document and apply overrides (e.g. CLI flags).

    Overrides are raw strings keyed like the document and take precedence.
    """
    kv = parse_kv(text)
    for key, raw in (overrides or {}).items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        kv[key] = (raw, 0)
    return build_bundle(kv)
