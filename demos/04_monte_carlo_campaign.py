#!/usr/bin/env python3
"""Monte Carlo campaigns: the two schemes side by side.

Runs moderate campaigns at the standard parameters, compares the measured
first-attempt success probabilities and mean latencies against the closed
forms evaluated at the measured probabilities, and shows the latency
reduction the decoupled scheme delivers on the same point sets: one
realization stage draws each iteration's stations, directions and terminal
candidates once for both schemes.
"""

from dataclasses import replace

import numpy as np

from dudasim import (
    LinkSuccess,
    SlotTiming,
    TrialConfig,
    latency_duca,
    latency_duda,
    realize,
    run_campaign,
)

ITERATIONS = 3000
timing = SlotTiming()

cfg = TrialConfig(timing=timing, iterations=ITERATIONS, seed=42)
realized = realize(cfg, ("duda", "duca"))
stats = {
    scheme: run_campaign(replace(cfg, scheme=scheme), realized[scheme])
    for scheme in realized
}

print(f"=== {ITERATIONS} trials per scheme, common point sets ===")
for scheme, st in stats.items():
    link = LinkSuccess(st.empirical_rho_u, st.empirical_rho_d)
    closed = (latency_duda if scheme == "duda" else latency_duca)(timing, link).total
    print(f"\n{scheme}:")
    print(f"  empirical rho_u, rho_d : {st.empirical_rho_u:.4f}, {st.empirical_rho_d:.4f}")
    print(f"  mean attempts          : {st.attempts.mean():.2f} "
          f"(geometric expectation {1 / link.product:.2f})")
    print(f"  mean latency           : {st.mean:.3f} +/- {st.ci95_half_width:.3f} slots")
    print(f"  closed form at rho_hat : {closed:.3f} slots")
    print(f"  censored trials        : {st.censored_count}")

reduction = 1.0 - stats["duda"].mean / stats["duca"].mean
print(f"\ndecoupled access cuts the mean two-way latency by {100 * reduction:.1f}%")

print("\n=== attempt-count distribution is geometric ===")
st = stats["duda"]
p = st.empirical_rho_u * st.empirical_rho_d
print(f"{'k':>3} {'P(attempts > k)':>16} {'(1-p)^k':>10}")
for k in range(1, 6):
    emp = float(np.mean(st.attempts > k))
    print(f"{k:3d} {emp:16.4f} {(1 - p) ** k:10.4f}")
