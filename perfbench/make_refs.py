"""Regenerate ``refs.json``, the pinned references of the benchmark's checks.

    python3 perfbench/make_refs.py mc        # large-trial rho estimates (~10 min)
    python3 perfbench/make_refs.py analytic  # mpmath oracle for the analytic grid

``mc`` runs one 20,000-trial campaign per scheme at each lambda_b point of
``sweep_lambda`` (the default lambda_b of ``sweep_su`` is one of them),
through the same ``parse_config`` -> ``run_sweep`` path as the benchmark.
Success probabilities do not depend on slot timing, so these serve every
``s_u`` point too.

``analytic`` evaluates the success probabilities of every analytic_grid
point independently of dudasim's quadrature.  The inner interference tail

    T(c, a) = int_a^inf c x^(1-alpha) / (1 + c x^-alpha) dx

is the closed form c a^(2-alpha)/(alpha-2) 2F1(1, 1-2/alpha; 2-2/alpha;
-c a^-alpha), and c^(2/alpha) (pi/alpha)/sin(2 pi/alpha) at a = 0 (the
rho(T, alpha) of Andrews, Baccelli and Ganti, IEEE TCOM 2011), computed
with mpmath at 30 digits.  In the variables u = pi lambda r^2 the DL
probability is the closed form 1/(1+K)^2, and the UL probability is a
double integral over u and the partner distance v = pi lambda t^2 that
mpmath's tanh-sinh quadrature evaluates to far below the 1e-7 tolerance.
The outer integrals run to infinity, with no truncation.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import ALPHAS, BETA_U_DB, LAMBDAS  # noqa: E402

REFS = HERE / "refs.json"
MC_TRIALS = 20000
MC_SEED = 20261017
DPS = 30


def value_key(x: float) -> str:
    return f"{x:.6g}"


def _load() -> dict:
    return json.loads(REFS.read_text()) if REFS.exists() else {}


def _save(refs: dict) -> None:
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def make_mc() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    from dudasim import parse_config, run_sweep

    start, stop, steps = LAMBDAS
    doc = (
        f"mode = simulate\nsweep_variable = lambda_b\nsweep_start = {start!r}\n"
        f"sweep_stop = {stop!r}\nsweep_steps = {steps}\nscheme = both\n"
        f"iterations = {MC_TRIALS}\nseed = {MC_SEED}\n"
    )
    bundle = parse_config(doc)
    out: dict = {"trials": MC_TRIALS, "seed": MC_SEED}
    for row in run_sweep(bundle.sweep, bundle):
        out.setdefault(row.scheme, {})[value_key(row.value)] = {
            "rho_u": row.rho_u, "rho_d": row.rho_d,
        }
        print(row, flush=True)
    return out


def _mp():
    import mpmath as mp

    mp.mp.dps = DPS
    return mp


# defaults of the benchmark's configs (dudasim's parameter table): delta 0.5,
# BS 40 dBm, UE 20 dBm, beta_d -5 dB
def oracle_rho_d(alpha: float) -> float:
    mp = _mp()
    a, delta = mp.mpf(repr(alpha)), mp.mpf("0.5")
    beta_d, eps = mp.power(10, mp.mpf(-5) / 10), mp.mpf("0.01")
    f = mp.hyp2f1(1, 1 - 2 / a, 2 - 2 / a, -beta_d)
    c_alpha = (mp.pi / a) / mp.sin(2 * mp.pi / a)
    k = delta * beta_d * f / (a - 2) + (1 - delta) * mp.power(eps * beta_d, 2 / a) * c_alpha
    return float(1 / (1 + k) ** 2)


def oracle_rho_u(alpha: float, beta_u_db: float) -> float:
    mp = _mp()
    a, delta = mp.mpf(repr(alpha)), mp.mpf("0.5")
    beta, kappa = mp.power(10, mp.mpf(repr(beta_u_db)) / 10), mp.mpf(100)
    b = 1 - 2 / a
    k_ue = (1 - delta) * beta * mp.hyp2f1(1, b, 1 + b, -beta) / (a - 2)

    def inner(u):
        def g(v):
            z = kappa * beta * mp.power(u / v, a / 2)
            return v * mp.exp(-v - delta * z * v * mp.hyp2f1(1, b, 1 + b, -z) / (a - 2))
        return mp.quad(g, [0, mp.inf])

    return float(mp.quad(lambda u: mp.exp(-(1 + k_ue) * u) * inner(u), [0, mp.inf]))


def make_analytic() -> dict:
    start, stop, steps = BETA_U_DB
    betas = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    out: dict = {"dps": DPS}
    for alpha in ALPHAS:
        entry = {"rho_d": oracle_rho_d(alpha), "rho_u": {}}
        for beta_db in betas:
            t0 = time.perf_counter()
            entry["rho_u"][value_key(beta_db)] = oracle_rho_u(alpha, beta_db)
            print(alpha, beta_db, entry, f"{time.perf_counter() - t0:.1f}s", flush=True)
        out[value_key(alpha)] = entry
    return out


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in ("mc", "analytic"):
        print(__doc__, file=sys.stderr)
        return 2
    section = make_mc() if argv[0] == "mc" else make_analytic()
    refs = _load()
    refs[argv[0]] = section
    _save(refs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
