"""Physical-layer and protocol parameters shared by every other module.

All internal computation uses linear units (watts, linear SINR ratios);
dB and dBm values are converted at the IO boundary only.  Time is measured
in abstract slot units with both slot durations defaulting to 1.

Note on symbols: the standard parameter table uses ``W`` both for the system
bandwidth and for the ACK waiting time of the decoupled scheme.  Only the
latter is a parameter here, ``SlotTiming.w``: the bandwidth is 1 Hz, so
thermal noise, ``THERMAL_NOISE_DBM`` of -174 dBm/Hz, is a -174 dBm noise
power.  ``SystemParams.noise_power`` is the one noise setting, read by the
analysis and the simulation alike; its default, 0, is noise off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    """Convert a ratio in dB to a linear ratio."""
    return 10.0 ** (x_db / 10.0)


THERMAL_NOISE_DBM = -174.0  # what ``noise = on`` applies unless noise_dbm is given


@dataclass(frozen=True)
class SystemParams:
    """Physical and geometry constants of the network model.

    Attributes
    ----------
    lambda_b : BS density in BS per m^2.
    delta : fraction of links active in the DL direction, in (0, 1).
    alpha : path-loss exponent; must exceed 2 for the interference
        integrals to converge.
    beta_u, beta_d : UL and DL SINR thresholds (linear).
    p_b, p_m : BS and UE transmit powers in watts.
    noise_power : noise power sigma^2 in watts; 0 (the default) is noise off.
    """

    lambda_b: float = 0.005
    delta: float = 0.5
    alpha: float = 4.0
    beta_u: float = 1.0                    # 0 dB
    beta_d: float = db_to_linear(-5.0)     # -5 dB
    p_b: float = dbm_to_watts(40.0)        # 10 W
    p_m: float = dbm_to_watts(20.0)        # 0.1 W
    noise_power: float = 0.0


@dataclass(frozen=True)
class SlotTiming:
    """TDD frame quantities, in slot units.

    ``w`` is the ACK waiting time of the decoupled scheme; it defaults to
    the DL slot duration ``t_d``, the choice that makes the comparison with
    the coupled baseline fair.
    """

    t_d: float = 1.0
    t_u: float = 1.0
    s_u: float = 0.5
    s_d: float = 0.5
    w: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.w is None:
            object.__setattr__(self, "w", self.t_d)


@dataclass
class TrialConfig:
    """Configuration of a simulation campaign, and the one statement of its
    range rules: ``iterations`` and ``max_attempts`` each in [1, 2**32],
    ``scheme`` and ``attempt_model`` among their choices."""

    params: SystemParams = field(default_factory=SystemParams)
    timing: SlotTiming = field(default_factory=SlotTiming)
    iterations: int = 10000
    max_attempts: int = 1000
    scheme: str = "duda"
    seed: int = 0
    direction_redraw: bool = False      # re-randomize pair directions per attempt ("fixed" model)
    attempt_model: str = "independent"  # "independent" | "fixed"
    typical_mode: str = "dl"
    window_half_width: float = 75.0

    def __post_init__(self) -> None:
        # a synthetic campaign's trial index is one 32-bit entropy word, and
        # the retry kernel counts attempts in int64, where 1 + retries must not wrap
        for name in ("iterations", "max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
            if getattr(self, name) > 2**32:
                raise ValueError(f"{name} must be at most 2**32")
        if self.scheme not in ("duda", "duca"):
            raise ValueError("scheme must be 'duda' or 'duca'")
        if self.attempt_model not in ("independent", "fixed"):
            raise ValueError("attempt_model must be 'independent' or 'fixed'")


@dataclass(frozen=True)
class LinkSuccess:
    """Per-attempt success probabilities of the two link directions."""

    rho_u: float
    rho_d: float

    @property
    def product(self) -> float:
        return self.rho_u * self.rho_d


def validate(params: SystemParams, timing: SlotTiming) -> List[str]:
    """Check every type invariant; return the list of violations.

    An empty list means the bundle is valid and every downstream module
    accepts it.  Violations are data, not exceptions: each entry names the
    offending field.
    """
    v: List[str] = []
    if not params.lambda_b > 0:
        v.append("lambda_b must be positive")
    if not 0 < params.delta < 1:
        v.append("delta must lie strictly between 0 and 1")
    if not params.alpha > 2:
        v.append("alpha must exceed 2 (interference integrals diverge otherwise)")
    if not params.beta_u > 0:
        v.append("beta_u must be positive")
    if not params.beta_d > 0:
        v.append("beta_d must be positive")
    if not params.p_b > 0:
        v.append("p_b must be positive")
    if not params.p_m > 0:
        v.append("p_m must be positive")
    if params.noise_power < 0:
        v.append("noise_power must be non-negative")

    if not timing.t_d > 0:
        v.append("t_d must be positive")
    if not timing.t_u > 0:
        v.append("t_u must be positive")
    if not 0 < timing.s_u <= timing.t_u:
        v.append("s_u must lie in (0, t_u]; s_u must not exceed t_u")
    if not 0 < timing.s_d <= timing.t_d:
        v.append("s_d must lie in (0, t_d]; s_d must not exceed t_d")
    if not timing.w > 0:
        v.append("w must be positive")
    return v


def validate_link(link: LinkSuccess) -> List[str]:
    """Invariants of a LinkSuccess pair (strict positivity keeps the
    geometric retransmission expectation finite)."""
    v: List[str] = []
    if not 0 < link.rho_u <= 1:
        v.append("rho_u must lie in (0, 1]")
    if not 0 < link.rho_d <= 1:
        v.append("rho_d must lie in (0, 1]")
    return v
