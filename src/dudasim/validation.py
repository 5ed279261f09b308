"""Composite self-checks: the interference tail against an independent
quadrature, spatial statistics, latency-identity grids, and
analytic-vs-Monte-Carlo cross-validation.

Each check reports its measured quantity against its threshold so a
failure is quantified, not just flagged.  The spatial checks read the
station count and the two nearest distances to the origin from
``deployment.sample_ppp``, the sampler the campaigns use.  On correct code
the statistical checks still fail now and then by design: each of the three
spatial checks is a 1% test, about 3% per run together, and each latency
self-consistency check a 3 SE test, about 0.3% under normality; below 10
first-attempt successes in a direction, where normality fails, it FAILs.
At the default parameters the analytic DL success probability is known to
sit well above the simulated one (the DL expression is an approximation by
construction), so the cross-validation checks report honest failures there;
see the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

import numpy as np
from scipy import stats as sps
from scipy.integrate import quad

from .config import ConfigBundle
from .coverage import nearest_distance_cdf, second_nearest_distance_cdf
from .deployment import RngStream, sample_ppp
from .latency import latency_duca, latency_duda, latency_gap
from .montecarlo import realize, run_campaign
from .params import LinkSuccess, SlotTiming
from .quadrature import interference_tail_integral
from .sweep import analytic_link, closed_form


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{status:4s} {self.name}: measured={self.measured:.6g} threshold={self.threshold:.6g}{extra}"


@dataclass
class ValidationReport:
    checks: List[ValidationCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def text(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _quadpack_tail(kappa: float, beta: float, r: float, alpha: float, a: float) -> float:
    """The interference tail by QUADPACK, independent of hyp2f1.

    With u = x^(2-alpha) and p = alpha/(alpha-2) the tail is
    c/(alpha-2) * int_0^U du / (1 + c u^p), U = a^(2-alpha): a bounded
    integrand on a finite interval.  It is split at the knee k = c^(-1/p),
    where c u^p = 1, and each piece is mapped to vary on a unit scale, since
    p exceeds 10^4 near alpha = 2.  Below the knee, the integral over
    t = u/k in [0, m], m = min(1, U/k), is m less int_0^m t^p/(1+t^p) dt,
    taken in t = m e^(-y/p); beyond it, u = k e^(y/p).
    """
    c = kappa * beta * r**alpha
    p = alpha / (alpha - 2.0)
    k = c ** (-1.0 / p)
    end = a ** (2.0 - alpha) / k
    m = min(1.0, end)
    m_p = m**p
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    knee = quad(lambda y: m_p * math.exp(-y * (1.0 + 1.0 / p)) / (1.0 + m_p * math.exp(-y)),
                0.0, math.inf, **opts)[0]
    total = m - m / p * knee
    if end > 1.0:
        total += quad(lambda y: math.exp(-y * (p - 1.0) / p) / (1.0 + math.exp(-y)),
                      0.0, p * math.log(end), **opts)[0] / p
    return c * k / (alpha - 2.0) * total


def check_tail_closed_form(alpha: float, n_tuples: int, seed: int) -> ValidationCheck:
    """The hypergeometric tail against an independent quadrature at the
    configured alpha, over tuples log-uniform across six decades."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_tuples):
        kappa, beta, r, a = 10.0 ** rng.uniform(-3, 3, size=4)
        got = interference_tail_integral(kappa, beta, r, alpha, a)
        want = _quadpack_tail(kappa, beta, r, alpha, a)
        worst = max(worst, abs(got - want) / want)
    return ValidationCheck("tail_closed_form_vs_quadpack", worst <= 1e-10, worst, 1e-10)


def check_spatial_laws(
    lambda_b: float, half_width: float, draws: int, seed: int
) -> List[ValidationCheck]:
    """The Poisson station count and the nearest and second-nearest distance
    laws at the origin, read in one pass from `draws` realizations of
    ``sample_ppp``, realization i drawn on stream (seed, i).  A realization
    with fewer than two stations has +inf for each missing distance; nothing
    is redrawn."""
    counts = np.empty(draws, dtype=np.int64)
    two = np.full((draws, 2), np.inf)
    for i in range(draws):
        pts = sample_ppp(lambda_b, half_width, RngStream(seed, i).generator())
        counts[i] = len(pts)
        d2 = np.sort(pts[:, 0] ** 2 + pts[:, 1] ** 2)[:2]
        two[i, : len(d2)] = d2
    nearest, second = np.sqrt(two).T
    p0 = _poisson_chi_square(counts, lambda_b * (2 * half_width) ** 2)
    p1 = sps.kstest(nearest, lambda r: nearest_distance_cdf(r, lambda_b)).pvalue
    p2 = sps.kstest(second, lambda d: second_nearest_distance_cdf(d, lambda_b)).pvalue
    return [
        ValidationCheck(name, float(p) > 0.01, float(p), 0.01, detail="p-value")
        for name, p in (("ppp_count_chi_square", p0), ("nearest_distance_ks", p1),
                        ("second_nearest_distance_ks", p2))
    ]


def _poisson_chi_square(counts: np.ndarray, mean: float) -> float:
    """Chi-square goodness of fit of observed counts against Poisson(mean),
    with tails pooled so every bin expects at least 5."""
    n = len(counts)
    lo, hi = (int(sps.poisson.ppf(q, mean)) for q in (0.001, 0.999))
    # bins: the left tail below lo, one per count from lo to hi, the right tail
    obs = np.bincount(np.clip(counts, lo - 1, hi + 1) - (lo - 1), minlength=hi - lo + 3)
    probs = np.concatenate((
        [sps.poisson.cdf(lo - 1, mean)],
        sps.poisson.pmf(np.arange(lo, hi + 1), mean),
        [sps.poisson.sf(hi, mean)],
    ))
    # pool adjacent bins until each expects 5; a short remainder joins the last
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, probs * n):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if not pooled_exp:
            pooled_obs.append(0.0)
            pooled_exp.append(0.0)
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    obs, expected = np.array(pooled_obs), np.array(pooled_exp)
    expected *= n / np.sum(expected)
    stat = float(np.sum((obs - expected) ** 2 / expected))
    return float(sps.chi2.sf(stat, len(obs) - 1))


def check_gap_identity(n_points: int, seed: int) -> ValidationCheck:
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    all_positive = True
    for _ in range(n_points):
        t = rng.uniform(0.2, 3.0)
        s_u = rng.uniform(1e-6, 1.0) * t
        s_d = rng.uniform(1e-6, 1.0) * t
        p = rng.uniform(0.01, 1.0)
        rho = math.sqrt(p)
        timing = SlotTiming(t_d=t, t_u=t, s_u=s_u, s_d=s_d)
        link = LinkSuccess(rho, rho)
        gap = latency_gap(timing, link)
        direct = latency_duca(timing, link).total - latency_duda(timing, link).total
        all_positive &= gap > 0
        worst_rel = max(worst_rel, abs(gap - direct) / abs(direct))
    ok = all_positive and worst_rel <= 1e-12
    return ValidationCheck(
        "latency_gap_identity", ok, worst_rel, 1e-12,
        detail="max relative mismatch; positivity " + ("held" if all_positive else "VIOLATED"),
    )


def check_analytic_vs_simulation(bundle: ConfigBundle, stats) -> List[ValidationCheck]:
    def check(name: str, analytic: float, p: float, cse: float, bound: float) -> ValidationCheck:
        diff = abs(analytic - p)
        # binomial standard error of the empirical first-attempt frequency,
        # then the cluster-robust one over realizations, which charges the
        # correlation of the probes of one realization, and their squared
        # ratio, the design effect
        se = math.sqrt(p * (1.0 - p) / len(stats.samples))
        deff = (cse / se) ** 2 if se > 0 else math.nan
        return ValidationCheck(name, diff <= bound, diff, bound, detail=(
            f"analytic={analytic:.4f} empirical={p:.4f} se={se:.4f} "
            f"cluster_se={cse:.4f} deff={deff:.2f}"))

    link = analytic_link(bundle.params)
    se_u, se_d = stats.rho_se
    return [check("analytic_vs_mc_rho_u", link.rho_u, stats.empirical_rho_u, se_u, 0.03),
            check("analytic_vs_mc_rho_d", link.rho_d, stats.empirical_rho_d, se_d, 0.05)]


def check_self_consistency(bundle: ConfigBundle, campaign_stats: dict) -> List[ValidationCheck]:
    out = []
    for scheme, stats in campaign_stats.items():
        name = f"latency_self_consistency_{scheme}"
        n = len(stats.samples)
        hits = [round(rho * n) for rho in (stats.empirical_rho_u, stats.empirical_rho_d)]
        if min(hits) < 10:  # a zero rho also leaves no closed form to compare with
            out.append(ValidationCheck(
                name, False, min(hits), 10, detail=f"first-attempt successes UL={hits[0]} "
                f"DL={hits[1]}: the normal approximation behind the 3 SE test needs at least 10",
            ))
            continue
        link = LinkSuccess(stats.empirical_rho_u, stats.empirical_rho_d)
        form = closed_form(scheme, bundle.timing, link).total
        se = _consistency_se(stats, bundle.timing, scheme)
        diff = abs(stats.mean - form)
        out.append(ValidationCheck(name, diff <= 3 * se, diff, 3 * se,
                                   detail=f"sampled={stats.mean:.3f} closed_form={form:.3f}"))
    return out


def _consistency_se(stats, timing: SlotTiming, scheme: str) -> float:
    """Standard error of (sampled mean - closed form at estimated rhos),
    combining the sample-mean SE with the delta-method SE of the plug-in
    closed form (the two are positively correlated, so the sum is
    conservative)."""
    n = len(stats.samples)
    se_mean = float(np.std(stats.samples, ddof=1) / math.sqrt(n))
    ru, rd = stats.empirical_rho_u, stats.empirical_rho_d
    cycle = timing.s_u + timing.w if scheme == "duda" else timing.t_d + timing.t_u
    # d(form)/d(rho) = -cycle / (ru^2 * rd) and -cycle / (ru * rd^2)
    var_u = ru * (1 - ru) / n
    var_d = rd * (1 - rd) / n
    se_form = cycle / (ru * rd) * math.sqrt(var_u / ru**2 + var_d / rd**2)
    return math.sqrt(se_mean**2 + se_form**2)


def run_validation(
    bundle: ConfigBundle,
    spatial_draws: int = 20000,
    gap_points: int = 10000,
    quadrature_tuples: int = 2000,
) -> ValidationReport:
    """Run the full invariant suite; every check reports its measured delta."""
    seed = bundle.trial.seed
    iters = min(bundle.trial.iterations, 4000)
    checks: List[ValidationCheck] = []
    checks.append(check_tail_closed_form(bundle.params.alpha, quadrature_tuples, seed))
    checks.extend(
        check_spatial_laws(bundle.params.lambda_b, bundle.trial.window_half_width, spatial_draws, seed)
    )
    checks.append(check_gap_identity(gap_points, seed))
    trial = replace(bundle.trial, iterations=iters)
    realized = realize(trial, ("duda", "duca"))
    campaigns = {
        scheme: run_campaign(replace(trial, scheme=scheme), realized[scheme])
        for scheme in ("duda", "duca")
    }
    checks.extend(check_analytic_vs_simulation(bundle, campaigns["duda"]))
    checks.extend(check_self_consistency(bundle, campaigns))
    return ValidationReport(checks)
