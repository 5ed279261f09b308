"""Two-way latency of coupled vs. decoupled uplink/downlink access in TDD
cellular networks.

The package quantifies the latency of a two-way transaction (UL data plus
DL ACK) under two serving arrangements: the coupled baseline, where a
single half-duplex base station alternates directions in fixed slots, and
the decoupled scheme, where a cooperating pair of base stations splits the
two directions so the terminal never waits for the frame to turn around.

Layers: closed-form latency model (`latency`), stochastic-geometry success
probabilities (`coverage` on top of `quadrature`), spatial realizations
(`deployment`), Monte Carlo simulation (`montecarlo`), and the sweep /
validation / CLI front end (`sweep`, `validation`, `cli`).
"""

from .params import (
    LinkSuccess,
    SlotTiming,
    SystemParams,
    TrialConfig,
    db_to_linear,
    dbm_to_watts,
    validate,
)
from .latency import (
    LatencyBreakdown,
    latency_duca,
    latency_duda,
    latency_gap,
    n_shot_success,
    protocol_delay_sample,
)
from .quadrature import (
    QuadratureConvergenceError,
    interference_tail_integral,
)
from .coverage import dl_success_probability, ul_success_probability
from .deployment import (
    Deployment,
    RngStream,
    delaunay_adjacency,
    generate_deployment,
    origin_deployment,
    sample_ppp,
    snapshot_csv,
)
from .montecarlo import (
    LatencyStats, Realization, realize, run_campaign, run_synthetic_campaign, samples_csv,
)
from .config import ConfigBundle, ConfigError, SweepSpec, parse_config
from .sweep import run_sweep, rows_to_csv

__version__ = "0.1.0"

__all__ = [
    "LinkSuccess", "SlotTiming", "SystemParams", "TrialConfig",
    "db_to_linear", "dbm_to_watts", "validate",
    "LatencyBreakdown", "latency_duca", "latency_duda", "latency_gap",
    "n_shot_success", "protocol_delay_sample",
    "QuadratureConvergenceError", "interference_tail_integral",
    "dl_success_probability", "ul_success_probability",
    "Deployment", "RngStream", "delaunay_adjacency", "generate_deployment",
    "origin_deployment", "sample_ppp", "snapshot_csv",
    "LatencyStats", "Realization", "realize", "run_campaign", "run_synthetic_campaign",
    "samples_csv",
    "ConfigBundle", "ConfigError", "SweepSpec", "parse_config",
    "run_sweep", "rows_to_csv", "run_validation",
]


def __getattr__(name):
    # validation pulls in scipy.stats, which most entry points never need
    if name == "run_validation":
        from .validation import run_validation

        return run_validation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
