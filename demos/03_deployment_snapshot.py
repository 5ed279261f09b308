#!/usr/bin/env python3
"""One spatial realization, step by step.

Samples the Poisson field, builds the Delaunay adjacency, runs the greedy
randomized matching, assigns directions and terminals, and writes a
plottable CSV snapshot (x, y, role, pair_id).
"""

import numpy as np

from dudasim import RngStream, delaunay_adjacency, origin_deployment, snapshot_csv

stream = RngStream(seed=2024, stream_id=0)
dep, resamples = origin_deployment(
    lambda_b=0.005, delta=0.5, window_half_width=75.0, stream=stream,
    scheme="duda", typical_mode="dl",
)

n = len(dep.bs_positions)
paired = dep.units[:, 0] != dep.units[:, 1]  # an unmatched station's row is (i, i)
n_pairs = int(paired.sum())
n_single = len(dep.units) - n_pairs
print(f"stations:          {n}")
print(f"cooperating pairs: {n_pairs}")
print(f"unmatched:         {n_single}")
print(f"matched fraction:  {1.0 - n_single / n:.3f}")
print(f"resamples needed:  {resamples}")

indptr, _, _ = delaunay_adjacency(dep.bs_positions)
degrees = np.diff(indptr)
print(f"mean Delaunay degree: {np.mean(degrees):.2f}")

others = np.arange(len(dep.units)) != dep.probe_units[0]  # the probe's unit carries it
print(f"DL-active cells:   {int(dep.active_dl[others].sum())}/{len(dep.units)}")

ul_bs = dep.probe_bs[0]  # the probe's serving station; its partner sends the ACK
dl_bs = dep.units[dep.probe_units[0]].sum() - ul_bs
ue = dep.probe_ues[0]
r_ul = np.linalg.norm(dep.bs_positions[ul_bs] - ue)
r_dl = np.linalg.norm(dep.bs_positions[dl_bs] - ue)
print(f"probe UL distance: {r_ul:.2f} m (terminal to its nearest station)")
print(f"probe DL distance: {r_dl:.2f} m (the pair's far station sends the ACK)")

pair_dists = [
    np.linalg.norm(dep.bs_positions[i] - dep.bs_positions[j]) for i, j in dep.units[paired]
]
print(f"pair separation:   mean {np.mean(pair_dists):.2f} m")

out = "deployment_snapshot.csv"
with open(out, "w") as fh:
    fh.write(snapshot_csv(dep))
print(f"\nwrote {out} (columns x, y, role, pair_id; plot roles by colour,")
print("join pair_id groups by line segments for the cooperation topology)")
