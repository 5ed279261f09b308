#!/usr/bin/env python3
"""Stochastic-geometry success probabilities of the decoupled scheme.

Evaluates the UL and DL analytic success probabilities at the standard
parameter set, tabulates the UL Laplace functionals of the two interfering
fields, and sweeps the traffic asymmetry ratio to expose the UL/DL
interference trade-off.
"""

import math
from dataclasses import replace

import numpy as np

from dudasim import (
    SystemParams,
    dl_success_probability,
    interference_tail_integral,
    ul_success_probability,
)

params = SystemParams()
# a pair serves one active link: of the pair density 0.5*lambda_b a
# fraction delta transmits in DL and 1-delta in UL
lambda_psi = 0.5 * params.delta * params.lambda_b
lambda_phi = 0.5 * (1.0 - params.delta) * params.lambda_b
print("=== Standard parameters ===")
print(f"BS density            {params.lambda_b} per m^2")
print(f"DL traffic ratio      {params.delta}")
print(f"interfering DL-BS density  {lambda_psi:.6f} per m^2")
print(f"interfering UL-UE density  {lambda_phi:.6f} per m^2")

ru = ul_success_probability(params)
rd = dl_success_probability(params)
print(f"\nUL success probability rho_u = {ru:.6f}")
print(f"DL success probability rho_d = {rd:.6f}")


def laplace(density, kappa, r, exclusion):
    """exp(-2 pi density T): one interfering field's Laplace functional at
    the serving BS of a UL link of distance r."""
    tail = interference_tail_integral(kappa, params.beta_u, r, params.alpha, exclusion)
    return math.exp(-2.0 * math.pi * density * tail)


partner = 0.75 / math.sqrt(params.lambda_b)  # mean second-nearest-BS distance
print("\n=== UL Laplace functionals along the link distance ===")
print(f"DL-BS interferers excluded within the partner distance t = {partner:.2f} m,")
print("UL-UE interferers within the link distance r")
print(f"{'r [m]':>6} {'from DL-BSs':>12} {'from UL-UEs':>12}")
for r in (2.0, 5.0, 7.07, 10.0, 15.0):
    psi = laplace(lambda_psi, params.p_b / params.p_m, r, partner)
    phi = laplace(lambda_phi, 1.0, r, r)
    print(f"{r:6.2f} {psi:12.4f} {phi:12.4f}")
print("(the 100x BS/UE power ratio makes DL-BS interference dominate)")

print("\n=== Traffic asymmetry sweep ===")
print(f"{'delta':>6} {'rho_u':>8} {'rho_d':>8}")
for delta in np.linspace(0.1, 0.9, 9):
    p = replace(params, delta=float(delta))
    print(f"{delta:6.1f} {ul_success_probability(p):8.4f} {dl_success_probability(p):8.4f}")
print("(more DL traffic -> more high-power interferers -> UL suffers, and "
      "vice versa)")
