"""Correctness checks of sweep rows.

The checks hold for any correct implementation, whatever its random-number
layout, so a later change that reorders draws still passes them:

* Analytic rows: rho_u, rho_d and the latency lie within relative 1e-7 of
  the mpmath oracle of ``make_refs.py``.
* Every Monte Carlo row: the latency mean lies within 4 standard errors of
  the closed form at the row's own empirical rhos (the statistic of
  acceptance criterion 7).
* Monte Carlo rho, pooled over the run's rows that share a scheme and a
  geometry (``s_u`` does not change the geometry): with geometry, within 5
  combined standard errors of the large-trial references in ``refs.json``,
  so a geometry change that biases placement fails even when every row is
  self-consistent; on ``sweep_rho``, within binomial 5 sigma of
  sqrt(rho_product).  Every row of a group that misses counts as failed.

Why the rho checks are pooled and at 5 rather than 4 standard errors: a
run makes about 150 rho comparisons per workload and the benchmark is run
dozens of times per change, so per-row comparisons at 4 SE false-alarmed
(2 of 10 runs of ``sweep_su`` at 80 trials per row).  The binomial error
also understates the spread of the DL estimate: the first DL attempt draws
its field from the campaign's own ensemble, with replacement, so trials
that share a field are correlated (measured z-score spread 1.13 over 250
rows).  The latency check's error is conservative (measured z spread
0.63), so it stays per row at 4.

A row that raised (and so carries NaN) fails without being checked.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace
from typing import Dict, List, Tuple

from dudasim import LinkSuccess, latency_duca, latency_duda

LATENCY_SIGMA = 4.0
RHO_SIGMA = 5.0
ANALYTIC_RTOL = 1e-7
_EXACT = 1e-12  # slack for statistics that are exactly zero (rho_product = 1)


def value_key(x: float) -> str:
    return f"{x:.6g}"


def _closed_form(timing, scheme: str, rho_u: float, rho_d: float) -> float:
    form = latency_duda if scheme == "duda" else latency_duca
    return form(timing, LinkSuccess(rho_u, rho_d)).total


def _latency_consistent(bundle, row, n: int) -> bool:
    """|mean - closed form at empirical rhos| <= 4 SE, with the criterion-7
    standard error: the sample mean's, combined with the delta-method error
    of the plug-in closed form.  A row whose empirical rho is 0 has no
    closed form to compare with; its rho is judged by the pooled check."""
    ru, rd = row.rho_u, row.rho_d
    if ru == 0 or rd == 0:
        return True
    timing = replace(bundle.timing, s_u=row.value) if row.variable == "s_u" else bundle.timing
    form = _closed_form(timing, row.scheme, ru, rd)
    cycle = timing.s_u + timing.w if row.scheme == "duda" else timing.t_d + timing.t_u
    se_mean = row.latency_ci95 / 1.96
    se_form = cycle / (ru * rd) * math.sqrt((1 - ru) / (ru * n) + (1 - rd) / (rd * n))
    se = math.hypot(se_mean, se_form)
    return abs(row.latency_mean - form) <= LATENCY_SIGMA * se + _EXACT * abs(form)


def check_row(bundle, row, refs: Dict) -> List[str]:
    """Names of the per-row checks the row missed; empty when it passed."""
    values = (row.latency_mean, row.latency_ci95, row.rho_u, row.rho_d)
    if not all(math.isfinite(v) for v in values):
        return ["raised"]
    if row.mode == "simulate":
        ok = _latency_consistent(bundle, row, bundle.trial.iterations)
        return [] if ok else ["latency_closed_form"]
    ref = refs["analytic"][value_key(bundle.params.alpha)]
    ref_u, ref_d = ref["rho_u"][value_key(row.value)], ref["rho_d"]
    form = _closed_form(bundle.timing, row.scheme, ref_u, ref_d)
    return [
        name
        for name, got, want in (
            ("oracle_rho_u", row.rho_u, ref_u),
            ("oracle_rho_d", row.rho_d, ref_d),
            ("oracle_latency", row.latency_mean, form),
        )
        if not abs(got - want) <= ANALYTIC_RTOL * abs(want)
    ]


class RhoPool:
    """First-attempt success counts of Monte Carlo rows, pooled per scheme,
    geometry and direction over a whole run."""

    def __init__(self, refs: Dict):
        self._mc = refs["mc"]
        self._groups: Dict[Tuple, list] = defaultdict(lambda: [0, 0, []])

    def add(self, bundle, row, row_id) -> None:
        n = bundle.trial.iterations
        if row.variable == "rho_product":
            geometry = ("rho_product", row.value)
        else:
            lam = row.value if row.variable == "lambda_b" else bundle.params.lambda_b
            geometry = ("lambda_b", lam)
        for direction, rho in (("rho_u", row.rho_u), ("rho_d", row.rho_d)):
            group = self._groups[row.scheme, geometry, direction]
            group[0] += round(rho * n)
            group[1] += n
            group[2].append(row_id)

    def _reference(self, scheme, geometry, direction) -> Tuple[float, float]:
        """Reference probability and the variance of its estimate."""
        kind, value = geometry
        if kind == "rho_product":
            return math.sqrt(value), 0.0
        p = self._mc[scheme][value_key(value)][direction]
        return p, p * (1 - p) / self._mc["trials"]

    def failures(self) -> List[Tuple[str, list]]:
        """(description, row ids) of every group outside its bound."""
        out = []
        for (scheme, geometry, direction), (hits, n, rows) in self._groups.items():
            p, ref_var = self._reference(scheme, geometry, direction)
            se = math.sqrt(p * (1 - p) / n + ref_var)
            got = hits / n
            if abs(got - p) > RHO_SIGMA * se + _EXACT:
                out.append((f"{scheme} {geometry[0]}={geometry[1]:.6g} {direction} "
                            f"{got:.4f} vs {p:.4f} (5 SE {RHO_SIGMA * se:.4f}, n {n})", rows))
        return out


def rho_check_name(workload) -> str:
    synthetic = workload.sweeps[0]["sweep_variable"] == "rho_product"
    return "binomial_rho" if synthetic else "reference_rho"


def check_names(workload) -> List[str]:
    if not workload.simulate:
        return ["oracle_rho_u", "oracle_rho_d", "oracle_latency"]
    return [rho_check_name(workload), "latency_closed_form"]
