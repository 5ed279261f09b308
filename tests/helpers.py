"""Shared independent oracles and references for the test suite.

The interference-field oracle estimates Laplace functionals by realizing
Poisson fields directly: conditional on interferer positions, averaging
the Rayleigh fading analytically turns E[exp(-s I)] into the product of
1/(1 + c x^-alpha) over interferers, which is what gets sampled here.
Interference beyond the simulated radius is restored with the first-order
power-law tail correction (independent of the package's quadrature
kernel); its second-order error is negligible at the radii used.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Tuple

import numpy as np


def nearest_distance_pdf(r, lam: float):
    """Density of the distance from a uniform point to its nearest neighbour
    in a Poisson field of intensity lam."""
    r = np.asarray(r, dtype=float)
    out = 2.0 * np.pi * lam * r * np.exp(-np.pi * lam * r * r)
    return out if out.ndim else float(out)


def second_nearest_distance_pdf(d, lam: float):
    """Density of the distance to the second-nearest point of a Poisson
    field of intensity lam."""
    d = np.asarray(d, dtype=float)
    x = np.pi * lam * d * d
    out = 2.0 * (np.pi * lam) ** 2 * d**3 * np.exp(-x)
    return out if out.ndim else float(out)


def slot_wait_time(timing, t: float) -> float:
    """Strict slot-timeline wait for a packet generated at offset t.

    A packet arriving during the DL slot waits until the UL slot starts;
    one arriving too late to finish inside the current UL slot waits for the
    next one.  The alternative to ``dudasim.latency.protocol_delay_sample``:
    its mean exceeds the closed form by (t_d-s_u)*(t_u-s_u)/(2*(t_d+t_u)).
    """
    t_d, t_u, s_u = timing.t_d, timing.t_u, timing.s_u
    if t <= t_d:
        return t_d - t
    if t <= t_d + t_u - s_u:
        return 0.0
    return (t_d + t_u - t) + t_d


def sample_nearest_distance(rng: np.random.Generator, lam: float, n: int) -> np.ndarray:
    """Exact nearest-neighbour distances: pi*lam*r^2 ~ Exp(1)."""
    return np.sqrt(rng.exponential(size=n) / (math.pi * lam))


def sample_second_nearest_distance(rng: np.random.Generator, lam: float, n: int) -> np.ndarray:
    """Exact second-nearest distances: pi*lam*d^2 ~ Gamma(2, 1)."""
    return np.sqrt(rng.gamma(2.0, size=n) / (math.pi * lam))


def field_log_products(
    rng: np.random.Generator,
    density: float,
    exclusion: np.ndarray,
    c: np.ndarray,
    alpha: float,
    r_max: float = 600.0,
    chunk_points: int = 4_000_000,
) -> np.ndarray:
    """Per-realization log of prod_i 1/(1 + c * x_i^-alpha) over a PPP of the
    given density on the annulus [exclusion_k, r_max], plus the analytic
    far-field correction for interferers beyond r_max.  Processes
    realizations in blocks to bound memory."""
    n = len(c)
    c = np.asarray(c, dtype=float)
    exclusion = np.broadcast_to(np.asarray(exclusion, dtype=float), (n,))
    mean_count = density * math.pi * r_max**2
    block = max(1, int(chunk_points / max(mean_count, 1.0)))
    logs = np.empty(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        exc2 = exclusion[lo:hi] ** 2
        area = math.pi * np.maximum(r_max**2 - exc2, 0.0)
        counts = rng.poisson(density * area)
        total = int(counts.sum())
        u = rng.uniform(size=total)
        exc2_rep = np.repeat(exc2, counts)
        x2 = exc2_rep + u * (r_max**2 - exc2_rep)
        c_rep = np.repeat(c[lo:hi], counts)
        terms = -np.log1p(c_rep * x2 ** (-alpha / 2.0))
        seg = np.repeat(np.arange(hi - lo), counts)
        logs[lo:hi] = np.bincount(seg, weights=terms, minlength=hi - lo)
    # first-order tail: -2*pi*density * c * r_max^(2-alpha) / (alpha - 2)
    logs -= 2.0 * math.pi * density * c * r_max ** (2.0 - alpha) / (alpha - 2.0)
    return logs


def mc_mean_and_se(values: np.ndarray) -> Tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def brute_force_delaunay_edges(points: np.ndarray) -> set:
    """Delaunay edges by the empty-circumcircle test: an edge belongs to the
    triangulation iff some triangle containing it has an empty circumcircle.
    O(n^4); for small point sets only."""
    n = len(points)
    edges = set()
    for i, j, k in combinations(range(n), 3):
        centre, radius = _circumcircle(points[i], points[j], points[k])
        if centre is None:
            continue
        d2 = np.sum((points - centre) ** 2, axis=1)
        inside = d2 < radius**2 - 1e-9 * radius**2
        inside[[i, j, k]] = False
        if not inside.any():
            edges.update({(min(a, b), max(a, b)) for a, b in ((i, j), (j, k), (i, k))})
    return edges


def _circumcircle(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None, None
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    centre = np.array([ux, uy])
    return centre, float(np.linalg.norm(centre - a))


def reference_pair_bs(points: np.ndarray, adjacency, gen: np.random.Generator):
    """The list-based greedy matching that predates the CSR version, kept
    as its reference: visit stations in ``gen.permutation`` order and scan
    each adjacency list for the nearest unmatched neighbour (ties to the
    lower index).  Returns (pairs as (i, j) tuples with i < j, unpaired)."""
    n = len(points)
    px = [float(p[0]) for p in points]
    py = [float(p[1]) for p in points]
    adj = [[int(j) for j in nb] for nb in adjacency]
    partner = [-1] * n
    for i in gen.permutation(n).tolist():
        if partner[i] >= 0:
            continue
        xi, yi = px[i], py[i]
        best_d = math.inf
        best_j = -1
        for j in adj[i]:
            if partner[j] >= 0:
                continue
            dx = px[j] - xi
            dy = py[j] - yi
            d = dx * dx + dy * dy
            if d < best_d or (d == best_d and j < best_j):
                best_d = d
                best_j = j
        if best_j >= 0:
            partner[i] = best_j
            partner[best_j] = i
    pairs = [(i, j) for i, j in enumerate(partner) if i < j]
    unpaired = [i for i in range(n) if partner[i] < 0]
    return pairs, unpaired


def deploy(lambda_b, delta, window_half_width, stream, scheme="duda", typical_mode="dl",
           **kwargs):
    """One probe at the origin for one scheme: ``origin_deployment``'s
    (deployment, redraws), or its NoRealizationError raised."""
    from dudasim.deployment import origin_deployment

    return origin_deployment(
        lambda_b, delta, window_half_width, stream, scheme, typical_mode, **kwargs
    )


def deploy_guarded(lambda_b, delta, window_half_width, stream, scheme="duda",
                   typical_mode="dl", **kwargs):
    """The guarded draw 0 of ``stream`` for one scheme: its deployment, or
    why the draw gave it no usable probe."""
    from dudasim.deployment import generate_deployment

    return generate_deployment(lambda_b, delta, window_half_width, stream, (scheme,),
                               typical_mode, guarded=True, **kwargs)[scheme]


def reference_probe_probs(dep, params, k: int = 0) -> Tuple[float, float]:
    """(p_ul, p_dl) of probe k of a deployment, written apart from
    ``montecarlo.success_probabilities``: pick each other unit's active
    transmitter first, keep it if it lies in the probe's mask, and multiply
    the Rayleigh pass factors 1/(1 + beta*c/S) with the noise factor."""
    own = dep.probe_units[k]
    ul_bs = dep.probe_bs[k]
    dl_bs = dep.units[own].sum() - ul_bs
    others = np.arange(len(dep.units)) != own
    active = dep.active_dl[others]
    tx = np.where(active[:, None], dep.bs_positions[dep.units[others, 1]], dep.ues[others])
    power = np.where(active, params.p_b, params.p_m)
    heard = np.abs(tx - dep.anchors[k]).max(axis=1) <= dep.mask_half_width
    tx, power = tx[heard], power[heard]

    def p_pass(rx, signal, beta):
        gains = power * np.hypot(*(tx - rx).T) ** (-params.alpha)
        return math.exp(-beta * params.noise_power / signal) * float(
            np.prod(1.0 / (1.0 + beta * gains / signal)))

    ue, rx_ul, tx_dl = dep.probe_ues[k], dep.bs_positions[ul_bs], dep.bs_positions[dl_bs]
    s_ul = params.p_m * math.dist(ue, rx_ul) ** (-params.alpha)
    s_dl = params.p_b * math.dist(ue, tx_dl) ** (-params.alpha)
    return p_pass(rx_ul, s_ul, params.beta_u), p_pass(ue, s_dl, params.beta_d)


def reference_uniform_in_groups(
    points: np.ndarray,
    group_of_bs: np.ndarray,
    n_groups: int,
    window_half_width: float,
    gen: np.random.Generator,
) -> np.ndarray:
    """The unscreened placement loop that predates the screened one, kept as
    its reference: every window-uniform candidate, in batches of
    max(512, 10N), goes to the kd-tree, and each group keeps its first hit."""
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    out = np.empty((n_groups, 2))
    missing = np.ones(n_groups, dtype=bool)
    batch = max(512, 10 * len(points))
    while missing.any():
        cand = gen.uniform(-window_half_width, window_half_width, size=(batch, 2))
        # one thread: a batch of 10 candidates per station is too small to repay
        # starting worker threads
        _, owner = tree.query(cand, workers=1)
        uniq, first = np.unique(group_of_bs[owner], return_index=True)
        fill = missing[uniq]
        out[uniq[fill]] = cand[first[fill]]
        missing[uniq] = False
    return out


def reference_synthetic_campaign(
    rho_u: float, rho_d: float, timing, scheme: str,
    iterations: int, seed: int, max_attempts: int = 1000,
):
    """The forced-probability campaign judged one attempt at a time, as the
    reference of its layout: the trials read the campaign's stream,
    ``SeedSequence(seed, spawn_key=(0x5E7,))``, in turn, in blocks of
    min(max_attempts, 1024 if p < 5/1024 else ceil(5/p)) attempts, p =
    rho_u*rho_d, two uniforms (UL, then DL) per attempt.  Each attempt is
    judged by scalar comparisons until both directions pass or max_attempts
    is reached; the rest of the trial's last block is dropped.  The frame
    offsets come from the same stream after the last trial.  Returns a
    LatencyStats."""
    from dudasim.montecarlo import LatencyStats, cluster_se, latency_samples

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x5E7,)))
    p = rho_u * rho_d
    block = min(max_attempts, 1024 if p < 5 / 1024 else math.ceil(5 / p))
    attempts = np.zeros(iterations, dtype=np.int64)
    censored = np.zeros(iterations, dtype=bool)
    ul_first = np.zeros(iterations, dtype=bool)
    dl_first = np.zeros(iterations, dtype=bool)
    for it in range(iterations):
        k = 0
        success = False
        while k < max_attempts and not success:
            u = rng.random(2 * min(block, max_attempts - k))
            for j in range(0, len(u), 2):
                k += 1
                ul_ok = float(u[j]) < rho_u
                dl_ok = float(u[j + 1]) < rho_d
                if k == 1:
                    ul_first[it], dl_first[it] = ul_ok, dl_ok
                if ul_ok and dl_ok:
                    success = True
                    break
        attempts[it] = k
        censored[it] = not success
    return LatencyStats(
        samples=latency_samples(timing, scheme, attempts, rng),
        attempts=attempts,
        censored=censored,
        empirical_rho_u=float(ul_first.mean()),
        empirical_rho_d=float(dl_first.mean()),
        scheme=scheme,
        rho_se=(cluster_se(ul_first, np.arange(iterations)),
                cluster_se(dl_first, np.arange(iterations))),
    )


def oracle_rho_u(alpha: float, beta_u_db: float, delta: float, kappa: float) -> float:
    """UL success probability, noise off, by mpmath at 30 digits and
    independently of dudasim's quadrature: the double integral of
    ``perfbench/make_refs.py`` with the DL fraction delta and the power
    ratio kappa = p_b/p_m as parameters.  In u = pi lambda r^2 (serving
    distance) and v = pi lambda t^2 (partner distance), with the
    interference tail in its 2F1 closed form and tanh-sinh quadrature to
    infinity in both.  About a minute per value near alpha = 2."""
    import mpmath as mp

    with mp.workdps(30):
        a, delta = mp.mpf(repr(alpha)), mp.mpf(repr(delta))
        beta, kappa = mp.power(10, mp.mpf(repr(beta_u_db)) / 10), mp.mpf(repr(kappa))
        b = 1 - 2 / a
        k_ue = (1 - delta) * beta * mp.hyp2f1(1, b, 1 + b, -beta) / (a - 2)

        def inner(u):
            def g(v):
                z = kappa * beta * mp.power(u / v, a / 2)
                return v * mp.exp(-v - delta * z * v * mp.hyp2f1(1, b, 1 + b, -z) / (a - 2))

            return mp.quad(g, [0, mp.inf])

        return float(mp.quad(lambda u: mp.exp(-(1 + k_ue) * u) * inner(u), [0, mp.inf]))
