"""Configuration parsing: flat key=value documents with '#' comments.

Each documented key sets one field of the ``params`` dataclasses
(``SystemParams``, ``SlotTiming``, ``TrialConfig``) or of ``SweepSpec``,
converting dB/dBm values to linear units here at the IO boundary; only
``noise = on`` sets ``noise_power``, to ``noise_dbm`` or ``THERMAL_NOISE_DBM``.
Unset keys keep the defaults those dataclasses declare: the standard
parameter table, slot timing in slot units, 10^4 iterations and a 150 m
square observation window.  Values arriving through CLI flags are merged as
overrides before validation: flags override the file, the file overrides
defaults.

A sweep point is one more key assignment: ``at_point`` sets the swept key's
field through the same table and conversion, and ``check_sweep`` bounds a
sweep by passing its endpoints through ``at_point`` and ``validate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple

from .params import (
    THERMAL_NOISE_DBM,
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
    trial: TrialConfig
    sweep: SweepSpec
    forced_link: LinkSuccess | None = None  # direct (rho_u, rho_d) override

    @property
    def params(self) -> SystemParams:
        return self.trial.params

    @property
    def timing(self) -> SlotTiming:
        return self.trial.timing


_ON_OFF = ("on", "off")

# key: (float, int or its choices; the object and field it sets; the
# conversion from the document's unit, if any)
_KEYS = {
    "lambda_b": (float, "params", "lambda_b", None),
    "delta": (float, "params", "delta", None),
    "alpha": (float, "params", "alpha", None),
    "beta_u_db": (float, "params", "beta_u", db_to_linear),
    "beta_d_db": (float, "params", "beta_d", db_to_linear),
    "p_b_dbm": (float, "params", "p_b", dbm_to_watts),
    "p_m_dbm": (float, "params", "p_m", dbm_to_watts),
    "noise_dbm": (float, "noise", "noise_power", dbm_to_watts),
    "t_d": (float, "timing", "t_d", None),
    "t_u": (float, "timing", "t_u", None),
    "s_u": (float, "timing", "s_u", None),
    "s_d": (float, "timing", "s_d", None),
    "w": (float, "timing", "w", None),
    "iterations": (int, "trial", "iterations", None),
    "max_attempts": (int, "trial", "max_attempts", None),
    "seed": (int, "trial", "seed", None),
    "window_side": (float, "trial", "window_half_width", lambda side: side / 2.0),
    "typical_mode": (("ul", "dl"), "trial", "typical_mode", None),
    "attempt_model": (("independent", "fixed"), "trial", "attempt_model", None),
    "direction_redraw": (_ON_OFF, "trial", "direction_redraw", lambda v: v == "on"),
    "scheme": (("duda", "duca", "both"), "sweep", "schemes",
               lambda v: ("duda", "duca") if v == "both" else (v,)),
    "mode": (("analytic", "simulate", "both"), "sweep", "mode", None),
    "sweep_variable": (SWEEP_VARIABLES, "sweep", "variable", None),
    "sweep_start": (float, "sweep", "start", None),
    "sweep_stop": (float, "sweep", "stop", None),
    "sweep_steps": (int, "sweep", "steps", None),
    "noise": (_ON_OFF, "noise", "on", lambda v: v == "on"),
    "rho_u": (float, "link", "rho_u", None),
    "rho_d": (float, "link", "rho_d", None),
}
# checked after TrialConfig, whose own rules come first
_RANGES = (
    ("window_side", lambda side: side > 0, "positive"),
    ("seed", lambda n: n >= 0, "non-negative"),
)


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
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if not value:
            raise ConfigError(f"missing value for {key!r}", lineno)
        out[key] = (value, lineno)
    return out


def _typed(key: str, raw: str, line: int):
    kind = _KEYS[key][0]
    if kind is float or kind is int:
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"malformed value for {key!r}: {raw!r}", line) from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw!r}", line)
        return value
    if raw not in kind:
        raise ConfigError(
            f"invalid value for {key!r}: {raw!r} (choices: {', '.join(kind)})", line
        )
    return raw


def _convert(key: str, value, line: int):
    """The value of a key in the unit of the field it sets."""
    convert = _KEYS[key][3]
    try:
        return value if convert is None else convert(value)
    except OverflowError:
        raise ConfigError(f"{key} = {value!r} overflows a float in linear units", line) from None


def build_bundle(kv: Dict[str, Tuple[str, int]]) -> ConfigBundle:
    """Materialize a validated configuration bundle from raw key/value pairs."""
    vals = {key: _typed(key, raw, line) for key, (raw, line) in kv.items()}
    given: Dict[str, Dict[str, object]] = {
        group: {} for group in ("params", "timing", "trial", "sweep", "noise", "link")
    }
    lines: Dict[str, int] = {}
    for key, value in vals.items():
        _, group, field, _ = _KEYS[key]
        given[group][field] = _convert(key, value, kv[key][1])
        # validate() and TrialConfig name the field, _RANGES the key
        lines[key] = lines[field] = kv[key][1]
    noise = given["noise"]
    if noise.get("on"):
        given["params"]["noise_power"] = noise.get("noise_power", dbm_to_watts(THERMAL_NOISE_DBM))

    params = SystemParams(**given["params"])
    timing = SlotTiming(**given["timing"])
    violations = validate(params, timing)
    if violations:
        raise ConfigError("; ".join(violations), lines.get(violations[0].split()[0], 0))
    sweep = SweepSpec(**given["sweep"])
    try:
        trial = TrialConfig(params, timing, scheme=sweep.schemes[0], **given["trial"])
    except ValueError as e:
        raise ConfigError(str(e), lines.get(str(e).split()[0], 0)) from None
    for key, ok, rule in _RANGES:
        if key in vals and not ok(vals[key]):
            raise ConfigError(f"{key} must be {rule}", lines[key])
    bundle = ConfigBundle(trial, sweep)
    # only `dudasim sweep` reads the sweep, and run_sweep checks a default one
    if any(key.startswith("sweep_") for key in vals):
        check_sweep(sweep, bundle, lines)

    link = given["link"]
    forced_link = None
    if link:
        if len(link) == 1:
            raise ConfigError("rho_u and rho_d must be given together", lines[next(iter(link))])
        forced_link = LinkSuccess(**link)
        bad = validate_link(forced_link)
        if bad:
            raise ConfigError("; ".join(bad), lines["rho_u"])
    return replace(bundle, forced_link=forced_link)


def at_point(bundle: ConfigBundle, variable: str, value: float, line: int = 0) -> ConfigBundle:
    """The bundle at one sweep point: a key sets its field through ``_KEYS``,
    and ``rho_product`` forces both success probabilities to its square root."""
    if variable == "rho_product":
        if not 0.0 < value <= 1.0:
            raise ConfigError("rho_product sweep must stay within (0, 1]", line)
        rho = math.sqrt(value)
        return replace(bundle, forced_link=LinkSuccess(rho, rho))
    _, group, field, _ = _KEYS[variable]
    point = replace(getattr(bundle.trial, group), **{field: _convert(variable, value, line)})
    return replace(bundle, trial=replace(bundle.trial, **{group: point}))


def check_sweep(sweep: SweepSpec, bundle: ConfigBundle, lines: Dict[str, int]) -> None:
    """Raise ConfigError, at the line that set the sweep, for a sweep that
    leaves its variable's domain."""
    line = lines.get("sweep_variable", lines.get("sweep_start", 0))
    if sweep.variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {sweep.variable!r}", line)
    if not sweep.start < sweep.stop:
        raise ConfigError("sweep start must be below stop", lines.get("sweep_start", line))
    if sweep.steps < 2:
        raise ConfigError("sweep needs at least 2 steps", lines.get("sweep_steps", line))
    # every conversion is monotone and every rule an interval: the endpoints bound every point
    for end in (sweep.start, sweep.stop):
        point = at_point(bundle, sweep.variable, end, line)
        violations = validate(point.params, point.timing)
        if violations:
            raise ConfigError(f"{sweep.variable} sweep endpoint {end:g}: {violations[0]}", line)


def parse_config(text: str, overrides: Dict[str, str] | None = None) -> ConfigBundle:
    """Parse a configuration document and apply overrides (e.g. CLI flags).

    Overrides are raw strings keyed like the document and take precedence.
    """
    kv = parse_kv(text)
    for key, raw in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        kv[key] = (raw, 0)
    return build_bundle(kv)
