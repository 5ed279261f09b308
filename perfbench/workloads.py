"""Workloads of the dudasim benchmark.

A workload is a list of sweep configurations, written as the key=value
documents that ``dudasim sweep --config`` reads, and driven through the
public API the CLI uses: ``parse_config`` then ``run_sweep``.  One *pass*
runs every configuration of the workload once.  A run repeats passes, each
with its own seed derived from the run's ``--seed``, until its time budget
is spent.

This module uses only the standard library, so the benchmark's parent
process can read it without importing dudasim.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

ALPHAS = (2.05, 2.2, 2.5, 2.7, 3.0, 3.5, 4.0, 5.0, 6.0)
LAMBDAS = (0.0025, 0.01, 4)     # sweep_lambda: start, stop, steps
BETA_U_DB = (-5.0, 5.0, 2)      # analytic_grid: start, stop, steps per alpha


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: Tuple[Dict[str, str], ...]  # config keys of each sweep in a pass
    trials: int                         # Monte Carlo trials per simulate row
    dominant: Tuple[str, ...]           # layers that must show calls when traced
    bypassed: Tuple[str, ...]           # layers that must show no calls when traced

    @property
    def simulate(self) -> bool:
        return self.trials > 0

    @property
    def rows_per_pass(self) -> int:
        return sum(int(s["sweep_steps"]) * 2 for s in self.sweeps)

    def configs(self, pass_seed: int) -> List[str]:
        """Config documents of one pass.  Monte Carlo sweeps take the pass
        seed as the campaign seed; the analytic grid has no randomness, so
        the seed only sets the order in which the alphas run."""
        sweeps = list(self.sweeps)
        if not self.simulate:
            random.Random(pass_seed).shuffle(sweeps)
        docs = []
        for keys in sweeps:
            keys = dict(keys, scheme="both")
            if self.simulate:
                keys.update(iterations=str(self.trials), seed=str(pass_seed))
            docs.append("".join(f"{k} = {v}\n" for k, v in keys.items()))
        return docs


def _sweep(variable: str, start, stop, steps, mode: str = "simulate", **extra) -> Dict[str, str]:
    keys = dict(
        mode=mode, sweep_variable=variable, sweep_start=repr(start),
        sweep_stop=repr(stop), sweep_steps=str(steps),
    )
    keys.update({k: str(v) for k, v in extra.items()})
    return keys


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sweep_su",
            "9-point simulate s_u sweep at default parameters: geometry is most of "
            "the work and only timing changes between points",
            (_sweep("s_u", 0.1, 0.9, 9),),
            trials=80,
            dominant=("deployment", "montecarlo"),
            bypassed=("quadrature", "coverage"),
        ),
        Workload(
            "sweep_lambda",
            "simulate lambda_b sweep, 56 to 225 stations per window: the same "
            "geometry at 4x working-set sizes, with nothing shared between points",
            (_sweep("lambda_b", *LAMBDAS),),
            trials=120,
            dominant=("deployment", "montecarlo"),
            bypassed=("quadrature", "coverage"),
        ),
        Workload(
            "sweep_rho",
            "simulate rho_product sweep: geometry and quadrature bypassed, so the "
            "Python retry loop is all of the work",
            (_sweep("rho_product", 0.3, 1.0, 8),),
            trials=6000,
            dominant=("montecarlo",),
            bypassed=("deployment", "quadrature", "coverage"),
        ),
        Workload(
            "analytic_grid",
            "analytic beta_u_db sweep at 9 path-loss exponents: coverage and "
            "quadrature are all of the work, and alpha 2.05 fails to converge",
            tuple(_sweep("beta_u_db", *BETA_U_DB, mode="analytic", alpha=a, noise="off")
                  for a in ALPHAS),
            trials=0,
            dominant=("coverage", "quadrature"),
            bypassed=("deployment", "montecarlo"),
        ),
    )
}


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Seed of pass ``index`` of a run: a fixed function of the run's seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")
