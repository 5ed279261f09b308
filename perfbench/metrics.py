"""Names, units and directions of the metrics the benchmark reports.

``END_TO_END`` are printed by every untraced run (``--trace 0``) and
``PER_LAYER`` by every traced run (``--trace 1``); BENCHMARK.json lists
the same names.  Per-layer values are per traced pass.
"""

from __future__ import annotations

from typing import Dict, Tuple

# name: (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "ref_cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "time_to_ci1pct_s": ("s", "lower"),
}

# Functions traced per layer, as "<layer>.<function>"; each gets .calls and .self_s.
TRACED = (
    "deployment.generate_deployment",
    "deployment.sample_ppp",
    "deployment.delaunay_adjacency",
    "deployment.pair_bs",
    "deployment.assign_directions_and_ues",
    "montecarlo.run_campaign",
    "montecarlo.run_synthetic_campaign",
    "coverage.ul_success_probability",
    "coverage.dl_success_probability",
    "quadrature.interference_tail_integral",
    "quadrature.integrate_finite",
    "quadrature.integrate_semi_infinite",
)
LAYERS = ("deployment", "montecarlo", "coverage", "quadrature", "latency")
IMPORTS = ("dudasim", "scipy.integrate", "scipy.stats", "scipy.spatial")

PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _fn in TRACED:
    PER_LAYER[f"{_fn}.calls"] = ("count", "lower")
    PER_LAYER[f"{_fn}.self_s"] = ("s", "lower")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "deployment.generate_deployment.calls_per_point": ("count", "lower"),
    "deployment.accept_ratio": ("ratio", "higher"),
    "deployment.bs_per_realization": ("count", "lower"),
    "montecarlo.attempts": ("count", "lower"),
    "montecarlo.censored": ("count", "lower"),
    "montecarlo.success_ratio": ("ratio", "higher"),
    "montecarlo.ci95_rel": ("ratio", "lower"),
    "quadrature.convergence_errors": ("count", "lower"),
    "latency.calls": ("count", "lower"),
    "sweep.run_sweep.self_s": ("s", "lower"),
    "sweep.rows": ("count", "higher"),
    "sweep.rows_failed": ("count", "lower"),
    "config.parse_config.self_s": ("s", "lower"),
})
for _mod in IMPORTS:
    PER_LAYER[f"import.{_mod}_s"] = ("s", "lower")
PER_LAYER.update({
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.span_cost_us": ("us", "lower"),
    "trace.selfcheck_failures": ("count", "lower"),
})
