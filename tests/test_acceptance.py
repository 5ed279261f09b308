"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 (analytic-vs-simulation cross-validation) is implemented
exactly as stated and is expected to FAIL at the standard parameters: the
analytic DL success probability is an approximation whose error against
the full deployment simulation (0.1879 at the pinned seed) far exceeds the
stated 0.05 bound.  (The UL gap, 0.0420 at the pinned seed, also exceeds
its 0.03 bound.)  See README ("Known model vs. simulation gaps") for the quantified decomposition.
The failure is kept honest rather than hidden behind a loosened tolerance.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from dudasim.config import parse_config
from dudasim.coverage import dl_success_probability, ul_success_probability
from dudasim.latency import latency_duca, latency_duda, latency_gap
from dudasim.montecarlo import TrialConfig, realize, run_campaign
from dudasim.params import LinkSuccess, SlotTiming, SystemParams
from dudasim.quadrature import interference_tail_integral
from dudasim.sweep import run_sweep
from dudasim.validation import check_spatial_laws

TABLE = SystemParams()
TIMING = SlotTiming()
ITERATIONS = 10000
SEED = 0

REPORT_LINES: list = []  # echoed by the terminal-summary hook in conftest.py


def report(name: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {'PASS' if passed else 'FAIL'} {name}: {detail}"
    REPORT_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def table_campaigns():
    """One 10^4-trial campaign per scheme at the standard parameters, on one
    realization stage."""
    cfg = TrialConfig(params=TABLE, timing=TIMING, iterations=ITERATIONS, seed=SEED)
    realized = realize(cfg, ("duda", "duca"))
    return {s: run_campaign(replace(cfg, scheme=s), realized[s]) for s in realized}


def test_criterion_1_gap_positivity_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_rel = 0.0
    positive = True
    for _ in range(10000):
        t = rng.uniform(0.05, 5.0)
        s_u = rng.uniform(0.0, 1.0) * t
        s_u = max(s_u, 1e-9 * t)
        p = rng.uniform(0.01, 1.0)
        timing = SlotTiming(t_d=t, t_u=t, s_u=s_u, s_d=min(s_u, t))
        rho = math.sqrt(p)
        link = LinkSuccess(rho, rho)
        gap = latency_gap(timing, link)
        closed = (t - s_u) / p + s_u
        direct = latency_duca(timing, link).total - latency_duda(timing, link).total
        positive &= gap > 0.0 and direct > 0.0
        worst_rel = max(
            worst_rel,
            abs(gap - closed) / abs(closed),
            abs(direct - closed) / abs(closed),
        )
    elapsed = time.perf_counter() - t0
    passed = positive and worst_rel <= 1e-12 and elapsed < 1.0
    report(
        "criterion-1 gap positivity",
        passed,
        f"worst rel dev {worst_rel:.2e}, positivity {positive}, {elapsed:.2f}s",
    )
    assert positive
    assert worst_rel <= 1e-12
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_2_reduction_band():
    t0 = time.perf_counter()
    bundle = parse_config(
        "sweep_variable = s_u\nsweep_start = 0.1\nsweep_stop = 0.9\nsweep_steps = 9\n"
        f"mode = simulate\niterations = {ITERATIONS}\nseed = {SEED}\n"
    )
    rows = run_sweep(bundle.sweep, bundle)
    duda = {r.value: r.latency_mean for r in rows if r.scheme == "duda"}
    duca = {r.value: r.latency_mean for r in rows if r.scheme == "duca"}
    reductions = {v: 1.0 - duda[v] / duca[v] for v in duda}
    elapsed = time.perf_counter() - t0
    in_band = all(0.25 <= red <= 0.65 for red in reductions.values())
    detail = ", ".join(f"s_u={v:.1f}: {100*r:.1f}%" for v, r in sorted(reductions.items()))
    report("criterion-2 reduction band", in_band, f"{detail} ({elapsed:.0f}s)")
    assert in_band, detail
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_3_analytic_vs_simulation(table_campaigns):
    stats = table_campaigns["duda"]
    rho_u = ul_success_probability(TABLE)
    rho_d = dl_success_probability(TABLE)
    du = abs(rho_u - stats.empirical_rho_u)
    dd = abs(rho_d - stats.empirical_rho_d)
    passed = du <= 0.03 and dd <= 0.05
    report(
        "criterion-3 analytic-vs-simulation",
        passed,
        f"|d rho_u|={du:.4f} (<=0.03), |d rho_d|={dd:.4f} (<=0.05); "
        f"analytic=({rho_u:.4f},{rho_d:.4f}) empirical="
        f"({stats.empirical_rho_u:.4f},{stats.empirical_rho_d:.4f})",
    )
    assert du <= 0.03, f"UL success probability gap {du:.4f} exceeds 0.03"
    assert dd <= 0.05, f"DL success probability gap {dd:.4f} exceeds 0.05"


def test_criterion_4_quadrature_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10000):
        kappa, beta, r, a = 10.0 ** rng.uniform(-3, 3, size=4)
        got = interference_tail_integral(kappa, beta, r, 4.0, a)
        c = kappa * beta * r**4
        sc = math.sqrt(c)
        want = 0.5 * sc * (math.pi / 2.0 if a == 0.0 else math.atan2(sc, a * a))
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-8 and elapsed < 10.0
    report(
        "criterion-4 quadrature oracle", passed,
        f"worst rel error {worst:.2e} over 1e4 tuples, {elapsed:.1f}s",
    )
    assert worst <= 1e-8
    assert elapsed < 10.0


@pytest.mark.slow
def test_criterion_5_spatial_statistics():
    # the station count and both distance laws, read in one pass from
    # sample_ppp realizations, as `dudasim validate` does
    t0 = time.perf_counter()
    count, near, second = check_spatial_laws(TABLE.lambda_b, 75.0, 100000, 5)
    p_count, p_near, p_second = count.measured, near.measured, second.measured
    elapsed = time.perf_counter() - t0
    passed = p_count > 0.01 and p_near > 0.01 and p_second > 0.01 and elapsed < 60.0
    report(
        "criterion-5 spatial statistics", passed,
        f"chi2 p={p_count:.3f}, nearest KS p={p_near:.3f}, "
        f"second-nearest KS p={p_second:.3f}, {elapsed:.0f}s",
    )
    assert p_count > 0.01
    assert p_near > 0.01
    assert p_second > 0.01
    assert elapsed < 60.0


def test_criterion_6_success_probability_trend():
    t0 = time.perf_counter()
    bundle = parse_config(
        "sweep_variable = rho_product\nsweep_start = 0.3\nsweep_stop = 1.0\n"
        "sweep_steps = 8\nmode = analytic\n"
    )
    rows = run_sweep(bundle.sweep, bundle)
    duda = [r.latency_mean for r in rows if r.scheme == "duda"]
    duca = [r.latency_mean for r in rows if r.scheme == "duca"]
    decreasing = all(b < a for a, b in zip(duda, duda[1:])) and all(
        b < a for a, b in zip(duca, duca[1:])
    )
    gap_first = duca[0] - duda[0]
    gap_last = duca[-1] - duda[-1]
    elapsed = time.perf_counter() - t0
    passed = decreasing and gap_first > gap_last and elapsed < 1.0
    report(
        "criterion-6 success-probability trend", passed,
        f"curves decreasing={decreasing}, gap(0.3)={gap_first:.3f} > gap(1.0)={gap_last:.3f}, "
        f"{elapsed:.2f}s",
    )
    assert decreasing
    assert gap_first > gap_last
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_7_self_consistency(table_campaigns):
    results = []
    for scheme in ("duda", "duca"):
        st = table_campaigns[scheme]
        link = LinkSuccess(st.empirical_rho_u, st.empirical_rho_d)
        form = (
            latency_duda(TIMING, link) if scheme == "duda" else latency_duca(TIMING, link)
        ).total
        n = len(st.samples)
        se_mean = float(np.std(st.samples, ddof=1)) / math.sqrt(n)
        cycle = TIMING.s_u + TIMING.w if scheme == "duda" else TIMING.t_d + TIMING.t_u
        ru, rd = link.rho_u, link.rho_d
        se_form = cycle / (ru * rd) * math.sqrt((1 - ru) / (ru * n) + (1 - rd) / (rd * n))
        se = math.hypot(se_mean, se_form)
        diff = abs(st.mean - form)
        results.append((scheme, diff, 3 * se, st.mean, form))
    passed = all(d <= tol for _, d, tol, _, _ in results)
    detail = "; ".join(
        f"{s}: sampled {m:.3f} vs closed {f:.3f} (|d|={d:.3f} <= 3SE={t:.3f})"
        for s, d, t, m, f in results
    )
    report("criterion-7 self-consistency", passed, detail)
    for scheme, diff, tol, m, f in results:
        assert diff <= tol, f"{scheme}: sampled {m:.3f} vs closed form {f:.3f}, 3SE {tol:.3f}"


def _run_cli(args, out_path):
    return subprocess.run(
        [sys.executable, "-m", "dudasim.cli", *args, "--out", str(out_path)],
        capture_output=True, text=True,
    )


def test_criterion_8_byte_identical_csv(tmp_path):
    cases = {
        "analytic": ["analytic", "--seed", "7"],
        "snapshot": ["snapshot", "--seed", "7"],
        "sweep": [
            "sweep", "--sweep", "rho_product:0.4:1.0:4", "--mode", "simulate",
            "--iterations", "400", "--seed", "7",
        ],
        "simulate": ["simulate", "--iterations", "300", "--seed", "7", "--scheme", "both"],
    }
    all_ok = True
    details = []
    for name, args in cases.items():
        f1 = tmp_path / f"{name}_1.csv"
        f2 = tmp_path / f"{name}_2.csv"
        r1 = _run_cli(args, f1)
        r2 = _run_cli(args, f2)
        ok = (
            r1.returncode == 0
            and r2.returncode == 0
            and f1.read_bytes() == f2.read_bytes()
        )
        all_ok &= ok
        details.append(f"{name}={'identical' if ok else 'DIFFERS'}")
    report("criterion-8 determinism", all_ok, ", ".join(details))
    assert all_ok, details
