"""Parameter sweeps producing diff-able CSV tables.

One row per sweep point per scheme per mode.  Analytic rows evaluate the
stochastic-geometry success probabilities and feed them into the closed
forms; simulate rows run Monte Carlo campaigns.  For ``rho_product``
sweeps the success probabilities are set directly to (sqrt(p), sqrt(p))
and the geometry layer is bypassed, in analytic mode via the formulas and
in simulate mode via Bernoulli-attempt campaigns.  Every simulate
campaign, forced or not, runs on the point's ``TrialConfig`` for its scheme.

Each point is set by ``config.at_point`` through the key table, once
``config.check_sweep`` has bounded the sweep's endpoints.  The CSV columns
are ``SweepRow``'s fields, numbers with 9 significant digits and a period
decimal separator so outputs regress byte-for-byte.  The wall-clock column,
the last field, is opt-in (``emit_timing``) because it breaks
byte-identical reruns.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional

import numpy as np

from .config import ConfigBundle, ConfigError, SweepSpec, at_point, check_sweep
from .coverage import dl_success_probability, ul_success_probability
from .deployment import NoRealizationError
from .latency import LatencyBreakdown, latency_duca, latency_duda
from .montecarlo import LatencyStats, Realization, realize, run_campaign, run_synthetic_campaign
from .params import LinkSuccess, SlotTiming, SystemParams, TrialConfig
from .quadrature import QuadratureConvergenceError


@dataclass
class SweepRow:
    """One CSV row: the fields are its columns, in order."""

    variable: str
    value: float
    scheme: str
    mode: str
    latency_mean: float
    latency_ci95: float
    rho_u: float
    rho_d: float
    censored_fraction: float
    wall_time_ms: float = 0.0


def rows_to_csv(rows: List[SweepRow], emit_timing: bool = False) -> str:
    names = [f.name for f in fields(SweepRow) if emit_timing or f.name != "wall_time_ms"]
    lines = [",".join(names)]
    for r in rows:
        cells = (getattr(r, name) for name in names)
        lines.append(",".join(c if isinstance(c, str) else f"{c:.9g}" for c in cells))
    return "\n".join(lines) + "\n"


def _point_seed(seed: int, point: int) -> int:
    # shared across schemes so both see the same point sets (common
    # randomness keeps the scheme comparison low-variance)
    ss = np.random.SeedSequence([seed, point])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def analytic_link(params: SystemParams) -> LinkSuccess:
    """The stochastic-geometry success probabilities of both directions.
    Raises ConfigError when either is 0: every closed form then diverges."""
    link = LinkSuccess(ul_success_probability(params), dl_success_probability(params))
    for name, rho in (("UL", link.rho_u), ("DL", link.rho_d)):
        if rho == 0.0:
            raise ConfigError(
                f"the analytic {name} success probability is 0 at this configuration, "
                "so the expected latency diverges"
            )
    return link


def closed_form(scheme: str, timing: SlotTiming, link: LinkSuccess) -> LatencyBreakdown:
    """The closed-form latency of one scheme ("duda" or "duca")."""
    return (latency_duda if scheme == "duda" else latency_duca)(timing, link)


def simulate_campaign(trial: TrialConfig, forced: Optional[LinkSuccess],
                      realized: Optional[Dict[str, Realization]]) -> LatencyStats:
    """One scheme's Monte Carlo campaign: Bernoulli attempts at a forced
    (rho_u, rho_d), bypassing the geometry, or else the geometry campaign on
    the scheme's entry of ``realized`` (``montecarlo.realize``)."""
    if forced is not None:
        return run_synthetic_campaign(trial, forced)
    return run_campaign(trial, realized[trial.scheme])


def simulate_row(variable: str, value: float, stats: LatencyStats) -> SweepRow:
    return SweepRow(
        variable=variable, value=value, scheme=stats.scheme, mode="simulate",
        latency_mean=stats.mean, latency_ci95=stats.ci95_half_width,
        rho_u=stats.empirical_rho_u, rho_d=stats.empirical_rho_d,
        censored_fraction=stats.censored_fraction,
    )


def run_sweep(spec: SweepSpec, bundle: ConfigBundle) -> List[SweepRow]:
    """Evaluate the sweep; failures are reported per row (a warning goes to
    stderr and the row carries NaNs) without aborting the remaining rows."""
    check_sweep(spec, bundle, {})
    values = np.linspace(spec.start, spec.stop, spec.steps)
    modes = ("analytic", "simulate") if spec.mode == "both" else (spec.mode,)
    rows: List[SweepRow] = []
    links: dict = {}  # the success probabilities depend on params only, not timing
    for point, value in enumerate(values):
        value = float(value)
        at = at_point(bundle, spec.variable, value)
        params, timing, forced = at.params, at.timing, at.forced_link
        realized = None  # one realization stage per point serves every scheme
        for scheme in spec.schemes:
            for mode in modes:
                t0 = time.perf_counter()
                try:
                    if mode == "analytic":
                        if forced is None and params not in links:
                            links[params] = analytic_link(params)
                        link = forced or links[params]
                        row = SweepRow(
                            spec.variable, value, scheme, "analytic",
                            closed_form(scheme, timing, link).total, 0.0,
                            link.rho_u, link.rho_d, 0.0,
                        )
                    else:
                        cfg = replace(at.trial, scheme=scheme,
                                      seed=_point_seed(bundle.trial.seed, point))
                        if forced is None and realized is None:
                            realized = realize(cfg, spec.schemes)
                        row = simulate_row(
                            spec.variable, value, simulate_campaign(cfg, forced, realized)
                        )
                # the failures a valid configuration can still meet at one point
                except (NoRealizationError, QuadratureConvergenceError, ValueError) as exc:
                    print(
                        f"sweep point {spec.variable}={value:.6g} {scheme}/{mode} failed: {exc}",
                        file=sys.stderr,
                    )
                    row = SweepRow(spec.variable, value, scheme, mode, *[math.nan] * 5)
                row.wall_time_ms = (time.perf_counter() - t0) * 1000.0
                rows.append(row)
    return rows
