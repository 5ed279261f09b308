"""End-to-end two-way transaction simulator.

Each trial carries one two-way transaction (UL data, then DL ACK) through
repeated attempts until both directions clear their SINR thresholds in the
same attempt, recording the attempt count and the resulting latency
sample.  Per-direction first-attempt success frequencies estimate
(rho_u, rho_d).

A trial is one probe of a guarded realization (``deployment``): each
realization serves about one trial per station of its central square, so
trials of one realization are correlated.  A realization that gives a
scheme no usable probe adds no trials to it: it has weight 0 in the Palm
estimator.  ``Realization.clusters`` keeps each trial's realization, and
``LatencyStats.rho_se`` the cluster-robust standard errors of the
first-attempt frequencies over realizations.
``LatencyStats.ci95_half_width`` stays the per-trial interval, which does
not charge that correlation.

Exact conditional success probabilities
---------------------------------------
Fading is Rayleigh (unit-mean exponential power gains), so a frozen
deployment passes a direction with the exact probability

    exp(-beta*sigma^2/S - sum_k log1p(beta*c_k/S)),

where S is the received signal power, sigma^2 the noise power
``params.noise_power`` (0 with noise off, as in the analysis), and c_k the
power delivered to the receiver by each unit the probe hears: another unit
whose active transmitter (its DL base station or its terminal) lies in the
probe's mask.  Only these terms are evaluated (``direction_redraw`` adds
each unit's inactive transmitter in the mask, to the retry mixture alone).
This is the conditional success probability behind the SINR meta
distribution (Haenggi, IEEE TWC 2016).  Each deployment is reduced to
these numbers, for all its probes at once, as soon as it is generated
(``realize``, one stage for the campaigns of every scheme, which share
their draws); the retry loop then needs only Bernoulli and geometric
draws, done for each campaign at once (``run_campaign``).

Attempt models
--------------
The retry formulas treat attempts as independent with success probability
rho_u * rho_d.  Matching that independence, the default campaign attempt
model ``"independent"`` draws a fresh interference state for every attempt
and phase: a deployment (with its direction assignment) sampled from the
campaign's ensemble, plus fresh fading everywhere.  The first UL attempt
uses the trial's own deployment and the first DL attempt a uniformly drawn
ensemble member; retries succeed with probability mean(p_ul) * mean(p_dl).

The alternative model ``"fixed"`` freezes the trial's own deployment and
redraws only fading between attempts, so retries succeed with
p_ul * p_dl of that deployment.  With ``direction_redraw`` every retry
also redraws each unit's direction, shared by the attempt's UL and DL
phases; a unit then contributes the factor
delta*f_ul(b_k)*f_dl(b_k) + (1-delta)*f_ul(u_k)*f_dl(u_k), where f is the
per-direction pass factor 1/(1 + beta*c/S) for its station (b) or terminal
(u) transmitting.  With a static geometry the conditional success
probability has mass near zero, so attempt counts are heavy-tailed there,
means are censoring-dominated, and sampled latencies sit far above the
closed forms.  See the README discussion before using "fixed"
quantitatively.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .deployment import (
    MAX_DRAWS, Deployment, NoRealizationError, RngStream, generate_deployment, seed_words,
)
from .latency import protocol_delay_sample
from .params import SlotTiming, SystemParams, TrialConfig


@dataclass
class LatencyStats:
    """Aggregate campaign output."""

    samples: np.ndarray
    attempts: np.ndarray
    censored: np.ndarray
    empirical_rho_u: float
    empirical_rho_d: float
    scheme: str
    # cluster-robust standard errors of (empirical_rho_u, empirical_rho_d)
    # over the realizations that the trials' first attempts read
    rho_se: Tuple[float, float]

    @property
    def censored_count(self) -> int:
        return int(np.count_nonzero(self.censored))

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def ci95_half_width(self) -> float:
        """Per-trial 95% half-width of the mean latency: it treats the trials
        as independent, which those sharing a realization are not."""
        n = len(self.samples)
        return float(1.96 * np.std(self.samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    @property
    def censored_fraction(self) -> float:
        return self.censored_count / max(len(self.samples), 1)


# probes x units entries per block of success_probabilities' matrices
_PROBE_BLOCK = 1 << 16


def success_probabilities(
    dep: Deployment, params: SystemParams, direction_redraw: bool = False
) -> np.ndarray:
    """(p_ul, p_dl, p_retry) of each probe of a frozen deployment under
    Rayleigh fading, as a (3, K) array.

    p_ul and p_dl are the probabilities that probe k's UL (at its serving
    BS) and DL (at its terminal) pass with the deployment's own directions,
    its own unit silent and the other units masked to its square.  p_retry
    is the probability that a "fixed"-model retry passes both: p_ul * p_dl,
    or with direction_redraw the product over units of the shared-direction
    mixture (see the module docstring), to which alone direction_redraw adds
    each unit's inactive transmitter, so it needs every unit's terminal
    (``all_terminals``).  For blocks of probes at a time, it evaluates only
    the (probe, unit) entries heard, scatters their log pass factors into a
    block of zeros and sums along rows.
    """
    bs, units, alpha, half = dep.bs_positions, dep.units, params.alpha, dep.mask_half_width
    active, n = dep.active_dl, len(units)
    if direction_redraw and np.isnan(dep.ues).any():
        raise ValueError("direction_redraw needs every unit's terminal (all_terminals)")
    # each unit's transmitters as (power, (x, y) rows): its active one, and
    # with direction_redraw its inactive one
    tx = [(np.where(s, params.p_b, params.p_m), np.where(s[:, None], bs[units[:, 1]], dep.ues).T)
          for s in ((active, ~active) if direction_redraw else (active,))]
    k = len(dep.probe_bs)
    out = np.empty((3, k))
    step = max(1, _PROBE_BLOCK // n)
    for lo in range(0, k, step):
        blk = slice(lo, lo + step)
        serving, own, ue = dep.probe_bs[blk], dep.probe_units[blk], dep.probe_ues[blk]
        rx_ul = bs[serving]
        tx_dl = bs[units[own].sum(axis=1) - serving]  # the own unit's other member
        ax, ay = dep.anchors[blk].T[:, :, None]
        # per transmitter, the flat index, row and column of the (probe, unit)
        # entries heard: inside the mask, the probe's own unit excluded
        heard = []
        for _, (x, y) in tx:
            h = (np.abs(x - ax) <= half) & (np.abs(y - ay) <= half)
            h[np.arange(len(own)), own] = False
            flat = np.flatnonzero(h)
            heard.append((flat, *divmod(flat, n)))

        def log_pass(rx, tx_s, tx_power, beta):
            """Noise term and, per transmitter, the (probe, unit) block of
            log pass factors -log1p(beta*c/S), 0 where unheard."""
            b = beta * ((tx_s - rx) ** 2).sum(axis=1) ** (alpha / 2) / tx_power  # beta/S
            (rx_x, rx_y), terms = rx.T, []
            for (power, (x, y)), (f, i, j) in zip(tx, heard):
                d2 = (x[j] - rx_x[i]) ** 2 + (y[j] - rx_y[i]) ** 2
                t = np.zeros((len(rx), n))
                t.reshape(-1)[f] = -np.log1p(b[i] * power[j] * d2 ** (-alpha / 2))
                terms.append(t)
            return -b * params.noise_power, terms

        noise_ul, ul = log_pass(rx_ul, ue, params.p_m, params.beta_u)
        noise_dl, dl = log_pass(ue, tx_dl, params.p_b, params.beta_d)
        p = out[:, blk]
        p[0] = np.exp(noise_ul + ul[0].sum(axis=1))
        p[1] = np.exp(noise_dl + dl[0].sum(axis=1))
        if not direction_redraw:
            p[2] = p[0] * p[1]
            continue
        # each unit's station and terminal terms, from its active and inactive ones
        (bs_ul, ue_ul), (bs_dl, ue_dl) = (
            (np.where(active, a, i), np.where(active, i, a)) for a, i in (ul, dl))
        mixture = np.logaddexp(
            np.log(params.delta) + bs_ul + bs_dl, np.log1p(-params.delta) + ue_ul + ue_dl
        )
        p[2] = np.exp(noise_ul + noise_dl + mixture.sum(axis=1))
    return out


def draw_attempts(p_ul, p_dl, p_retry, max_attempts: int, rng):
    """Attempt counts of a batch of trials from their success probabilities.

    The first attempt passes UL with probability p_ul and DL with p_dl
    (independently); every later attempt passes both with p_retry, so the
    retries needed are geometric.  Trials still failing after max_attempts
    attempts are censored there; p_retry = 0 censors every failed trial.
    Returns (attempts, censored, first_ul, first_dl) arrays.
    """
    first_ul = rng.random(len(p_ul)) < p_ul
    first_dl = rng.random(len(p_dl)) < p_dl
    p_retry = np.broadcast_to(p_retry, first_ul.shape)
    retries = np.zeros(first_ul.shape, dtype=np.int64)
    failed = ~(first_ul & first_dl)
    retries[failed] = max_attempts
    draw = failed & (p_retry > 0)
    retries[draw] = np.minimum(rng.geometric(p_retry[draw]), max_attempts)
    attempts = np.minimum(1 + retries, max_attempts)
    return attempts, retries >= max_attempts, first_ul, first_dl


def latency_samples(timing: SlotTiming, scheme: str, attempts: np.ndarray, rng) -> np.ndarray:
    """Latencies of transactions that ended on the given attempts; the
    coupled scheme draws each arrival's offset in the frame."""
    if scheme == "duda":
        return (attempts - 1) * (timing.s_u + timing.w) + timing.s_u + timing.s_d
    frame = timing.t_d + timing.t_u
    t = rng.uniform(0.0, frame, size=len(attempts))
    return protocol_delay_sample(timing, t) + (attempts - 1) * frame + timing.t_u + timing.s_d


def _campaign_rng(seed: int, tag: int) -> np.random.Generator:
    # a spawn key keeps this stream apart from every per-iteration stream
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def _realization_key(config: TrialConfig) -> tuple:
    """What a campaign's realizations depend on, besides the scheme; last,
    whether its retries redraw directions, which places every terminal."""
    return (config.params, config.iterations, config.seed, config.window_half_width,
            config.typical_mode, config.attempt_model == "fixed" and config.direction_redraw)


def cluster_se(x: np.ndarray, clusters: np.ndarray) -> float:
    """Standard error of the mean of x when the values of one cluster may be
    correlated and clusters are independent: the root of the sum over the G
    clusters of the squared sum of their deviations from the mean, times
    G/(G - 1) for the mean's own estimation, over n.  NaN for fewer than 2
    clusters.  With one value per cluster it is the i.i.d. standard error."""
    dev = np.bincount(clusters, weights=x - x.mean())
    g = np.count_nonzero(np.bincount(clusters))
    return float(np.sqrt(dev @ dev * g / (g - 1))) / len(x) if g > 1 else math.nan


@dataclass
class Realization:
    """One scheme's realizations for a campaign: trial ``it``'s probe
    reduced to column ``it`` of (p_ul, p_dl, p_retry) as it was generated,
    and the realization it came from, or the error that stopped them."""

    scheme: str
    key: tuple                            # _realization_key of the campaigns it serves
    probs: np.ndarray                     # (3, iterations)
    clusters: np.ndarray                  # (iterations,) realization index of each trial
    error: Optional[NoRealizationError] = None


def realize(config: TrialConfig, schemes: Sequence[str]) -> Dict[str, Realization]:
    """The realization stage of the campaigns of ``config`` for each scheme.

    Realization r is draw 0 of ``RngStream(seed, r)``, one guarded draw
    with many probes shared by every scheme still running
    (``generate_deployment``), and each probe kept is reduced to its exact
    conditional success probabilities at once.  A scheme's trials are its
    first ``iterations`` usable probes, in order; a realization that gives
    it none adds no trials, which has the law of redrawing it, since the
    draws are i.i.d.  A scheme that goes ``MAX_DRAWS`` realizations in a
    row without a usable probe stops with its NoRealizationError while the
    others go on.  Only the terminals that transmit are placed, unless
    ``direction_redraw`` lets every unit transmit from its terminal.  A
    scheme gets the same realizations whichever other schemes run beside it.
    """
    params, n, key = config.params, config.iterations, _realization_key(config)
    redraw = key[-1]
    out = {s: Realization(s, key, np.empty((3, n)), np.empty(n, dtype=np.int64))
           for s in schemes}
    filled = dict.fromkeys(schemes, 0)
    misses = {s: [] for s in schemes}  # reasons of the realizations since the last usable
    r = 0
    while running := [s for s in schemes if out[s].error is None and filled[s] < n]:
        got = generate_deployment(
            params.lambda_b, params.delta, config.window_half_width,
            RngStream(config.seed, r), running, config.typical_mode,
            all_terminals=redraw, guarded=True,
        )
        for scheme, dep in got.items():
            o, lo = out[scheme], filled[scheme]
            if not isinstance(dep, Deployment):
                misses[scheme].append(dep)
                if len(misses[scheme]) == MAX_DRAWS:
                    o.error = NoRealizationError(
                        misses[scheme], params.lambda_b, config.window_half_width)
                continue
            misses[scheme] = []
            kept = slice(n - lo)  # only the probes the campaign reads
            dep = replace(dep, probe_bs=dep.probe_bs[kept], probe_units=dep.probe_units[kept],
                          probe_ues=dep.probe_ues[kept], anchors=dep.anchors[kept])
            filled[scheme] = hi = lo + len(dep.probe_bs)
            o.probs[:, lo:hi] = success_probabilities(dep, params, redraw)
            o.clusters[lo:hi] = r
        r += 1
    return out


def run_campaign(config: TrialConfig, realized: Optional[Realization] = None) -> LatencyStats:
    """Run a full campaign: one trial per probe of the realization stage.

    ``realized`` is the scheme's entry of ``realize`` for a configuration
    with the same realizations (the same parameters, iterations, seed,
    window, typical mode and terminal placement); without it the campaign
    realizes its scheme alone, with the same result.  One vectorized draw
    then gives every trial's attempts under the configured attempt model.
    Raises the scheme's NoRealizationError if its realizations stopped.
    """
    if realized is None:
        realized = realize(config, (config.scheme,))[config.scheme]
    if (realized.scheme, realized.key) != (config.scheme, _realization_key(config)):
        raise ValueError("the realizations belong to another campaign configuration")
    if realized.error is not None:
        raise realized.error
    n = config.iterations
    p_ul, p_dl, p_retry = realized.probs
    clusters = dl_clusters = realized.clusters
    rng = _campaign_rng(config.seed, 0xA77E)
    if config.attempt_model == "independent":
        # every DL phase, the first included, sees a uniformly drawn
        # ensemble member; only the first UL phase sees the trial's own
        p_retry = p_ul.mean() * p_dl.mean()
        pick = rng.integers(n, size=n)
        p_dl, dl_clusters = p_dl[pick], clusters[pick]
    attempts, censored, ul_first, dl_first = draw_attempts(
        p_ul, p_dl, p_retry, config.max_attempts, rng
    )
    return LatencyStats(
        samples=latency_samples(config.timing, config.scheme, attempts, rng),
        attempts=attempts,
        censored=censored,
        empirical_rho_u=float(ul_first.mean()),
        empirical_rho_d=float(dl_first.mean()),
        scheme=config.scheme,
        rho_se=(cluster_se(ul_first, clusters), cluster_se(dl_first, dl_clusters)),
    )


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_BLOCK = 4096  # trials whose stream seeds are hashed at once


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of an
    (n, w) uint32 entropy array, one column of n words at a time: numpy's
    pool hashing, mixing and state generation in uint32 arithmetic."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & 0xFFFFFFFF
        v = v * h
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    n, w = words.shape
    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < w else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, w):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    state = np.empty((n, 8), dtype=np.uint32)
    h = _INIT_B
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * _MULT_B & 0xFFFFFFFF
        v = v * h
        state[:, i] = v ^ (v >> 16)
    return state.view("<u8").astype(np.uint64)


@functools.cache
def _row_seed():
    """An ISeedSequence that hands PCG64 one precomputed state row.  Made on
    first use, so importing the package does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        __slots__ = ("row",)

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a precomputed seed row serves only (4, uint64)")
            return self.row

    return RowSeed


def run_synthetic_campaign(
    rho_u: float, rho_d: float, timing: SlotTiming, scheme: str,
    iterations: int, seed: int, max_attempts: int = 1000,
) -> LatencyStats:
    """Campaign with the geometry layer bypassed: per-attempt, per-direction
    successes are independent Bernoulli draws at the given probabilities.
    Used by success-probability sweeps that treat (rho_u, rho_d) as free
    parameters.

    Trial ``it`` draws from its own stream, ``default_rng([seed, it,
    0x5E7])``: attempt k passes UL if its (2k-1)-th uniform is below rho_u
    and DL if its 2k-th is below rho_d, and the trial ends at the first
    attempt that passes both, or censored at max_attempts.  The streams'
    SeedSequence states are hashed for blocks of trials at once, and numpy's
    PCG64 takes each trial's row.  The uniforms are read in blocks sized so
    that about 99% of trials end in their first; those read past a trial's
    last attempt are never used.  Latencies come from one campaign stream.
    At most 2**32 trials, so that the trial index is one entropy word."""
    if iterations > 2**32:
        raise ValueError(f"a synthetic campaign takes at most 2**32 trials, got {iterations}")
    attempts = np.zeros(iterations, dtype=np.int64)
    censored = np.zeros(iterations, dtype=bool)
    ul_first = np.zeros(iterations, dtype=bool)
    dl_first = np.zeros(iterations, dtype=bool)
    row_seed, generator, pcg64 = _row_seed(), np.random.Generator, np.random.PCG64
    base = seed_words(seed, 0, 0x5E7)  # base[-2] holds the trial index
    # attempts per block: 5 mean attempts, at most 1024
    p = rho_u * rho_d
    block = min(max_attempts, 1024 if p < 5 / 1024 else math.ceil(5 / p))
    for first in range(0, iterations, _SEED_BLOCK):
        ids = range(first, min(first + _SEED_BLOCK, iterations))
        words = np.tile(base, (len(ids), 1))
        words[:, -2] = ids
        for it, state in zip(ids, _seed_states(words)):
            rng = generator(pcg64(row_seed(state)))
            k = 0  # attempts read
            while k < max_attempts:
                m = min(block, max_attempts - k)
                u = rng.random(2 * m).tolist()
                if k == 0:
                    ul_first[it], dl_first[it] = u[0] < rho_u, u[1] < rho_d
                hit = next((j for j in range(0, 2 * m, 2) if u[j] < rho_u and u[j + 1] < rho_d), -1)
                if hit >= 0:
                    attempts[it] = k + hit // 2 + 1
                    break
                k += m
            else:
                attempts[it], censored[it] = max_attempts, True
    return LatencyStats(
        samples=latency_samples(timing, scheme, attempts, _campaign_rng(seed, 0x5E7)),
        attempts=attempts,
        censored=censored,
        empirical_rho_u=float(ul_first.mean()),
        empirical_rho_d=float(dl_first.mean()),
        scheme=scheme,
        rho_se=(cluster_se(ul_first, np.arange(iterations)),
                cluster_se(dl_first, np.arange(iterations))),
    )


def samples_csv(*stats: LatencyStats) -> str:
    """Raw per-trial samples of one or more campaigns as one CSV table
    (iteration, scheme, attempts, latency, censored)."""
    lines = ["iteration,scheme,attempts,latency,censored"]
    for st in stats:
        for it, (a, lat, c) in enumerate(zip(st.attempts, st.samples, st.censored)):
            lines.append(f"{it},{st.scheme},{a},{lat:.9g},{int(c)}")
    return "\n".join(lines) + "\n"
