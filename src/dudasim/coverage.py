"""Analytical transmission success probabilities for the decoupled scheme.

Under Rayleigh fading, the probability that a link's SINR clears its
threshold beta is the Laplace functional of the interference at
s = beta * r^alpha / P_signal, times exp(-s*sigma^2) for a noise power
sigma^2 = ``params.noise_power``.  A Poisson field of density lambda' with
power ratio kappa to the signal, excluded within a, contributes
exp(-2*pi*lambda'*T), where T is the interference tail of the quadrature
module; it scales as T = r^2 * T(kappa, beta, a/r) with T(kappa, beta, a)
the tail at r = 1.  A pair serves one active link, so of the pair density
0.5*lambda_b a fraction delta transmits in DL and 1-delta in UL:

* UL data, received at the serving (nearest) BS at distance r: interference
  from other pairs' DL base stations (density 0.5*delta*lambda_b, power
  ratio p_b/p_m, excluded within the distance t to the second-nearest BS)
  and from active UL terminals (density 0.5*(1-delta)*lambda_b, excluded
  within r).
* DL ACK, received at the terminal from the pair's far BS: the serving
  distance follows the second-nearest-neighbour law; BS interferers are
  excluded within r, terminal interferers (power ratio p_m/p_b) are not
  excluded at all.  This direction is an approximation by construction
  (the exclusion argument is borrowed from nearest-BS association).

In u = pi*lambda_b*r^2 the nearest-distance law is exp(-u) du and the
second-nearest law u*exp(-u) du.  (The printed DL weight
2*pi*lambda^2*r^3*exp(-pi*lambda*r^2) is not normalized; the normalized law,
with an extra factor pi, is used so the result is a probability.)  Every
exponent is then a constant times u, so the distance expectations are Gamma
integrals, taken to infinity without truncation:

    rho_d = M_2(1 + K),  K = delta*T(1, beta_d, 1) + (1-delta)*T(p_m/p_b, beta_d, 0)
    rho_u = int_0^inf w * M_3(B(w)) dw,  w = (t/r)^2,
    B(w)  = 1 + (1-delta)*T(1, beta_u, 1) + w + delta*T(p_b/p_m, beta_u, sqrt(w))

with M_n(B) = int_0^inf u^(n-1) exp(-B*u - nu*u^(alpha/2)) du and
nu = beta*sigma^2/P_signal / (pi*lambda_b)^(alpha/2).  Noise is off by
default (sigma^2 = 0, so nu = 0), matching the interference-limited closed
forms: M_n(B) = Gamma(n)/B^n exactly, DL is closed form and UL is one
quadrature over w.  With noise, M_n becomes a quadrature too; at the default
powers thermal noise changes either probability by less than 1e-10.
"""

from __future__ import annotations

import math

import numpy as np

from .params import SystemParams
from .quadrature import integrate_finite, interference_tail_integral


def nearest_distance_cdf(r, lam: float):
    return _distance_cdf(1, r, lam)


def second_nearest_distance_cdf(d, lam: float):
    return _distance_cdf(2, d, lam)


def _distance_cdf(n: int, d, lam: float):
    """P(the n-th nearest station lies within d): in u = pi*lam*d^2 the
    regularized lower incomplete gamma P(n, u), exactly 1 at d = inf.
    scipy.special is imported here, not by ``import dudasim``."""
    from scipy.special import gammainc

    d = np.asarray(d, dtype=float)
    out = gammainc(n, np.pi * lam * d * d)
    return out if out.ndim else float(out)


def _noise_nu(params: SystemParams, beta: float, power: float) -> float:
    """Noise exponent nu of M_n: s*sigma^2 = nu*u^(alpha/2); 0 with noise off,
    and inf where (pi*lambda_b)^(alpha/2) underflows to 0."""
    if params.noise_power == 0.0:
        return 0.0
    scale = (math.pi * params.lambda_b) ** (params.alpha / 2)
    return beta * params.noise_power / power / scale if scale else math.inf


def _gamma_moment(n: int, b: float, nu: float, alpha: float) -> float:
    """M_n(b) = int_0^inf u^(n-1) exp(-b*u - nu*u^(alpha/2)) du: Gamma(n)/b^n
    for nu = 0, 0 for nu = inf, otherwise a quadrature in x, with
    b*u = n*x/(1-x)."""
    if nu == 0.0:
        return math.gamma(n) / b**n
    if nu == math.inf:
        return 0.0

    def integrand(x: float) -> float:
        s = n * x / (1.0 - x)
        return s ** (n - 1) * math.exp(-s - nu * (s / b) ** (alpha / 2)) * n / (1.0 - x) ** 2

    return integrate_finite(integrand, 0.0, 1.0, f"noise-on Gamma moment M_{n}") / b**n


def ul_success_probability(params: SystemParams) -> float:
    """Probability that a typical UL data transmission clears beta_u:
    int_0^inf w*M_3(B(w)) dw, one quadrature over the partner-distance
    ratio w, mapped onto [0, 1) by w = b0*x/(1-x)."""
    alpha, delta, beta = params.alpha, params.delta, params.beta_u
    kappa = params.p_b / params.p_m
    b0 = 1.0 + (1.0 - delta) * interference_tail_integral(1.0, beta, 1.0, alpha, 1.0)
    nu = _noise_nu(params, beta, params.p_m)

    def integrand(x: float) -> float:
        w = b0 * x / (1.0 - x)
        b = b0 + w + delta * interference_tail_integral(kappa, beta, 1.0, alpha, math.sqrt(w))
        return w * _gamma_moment(3, b, nu, alpha) * b0 / (1.0 - x) ** 2

    return integrate_finite(integrand, 0.0, 1.0, "UL success probability integral")


def dl_success_probability(params: SystemParams) -> float:
    """Probability that a typical DL ACK transmission clears beta_d:
    M_2(1 + K), which is 1/(1+K)^2 without noise."""
    alpha, delta, beta = params.alpha, params.delta, params.beta_d
    tail_bs = interference_tail_integral(1.0, beta, 1.0, alpha, 1.0)
    tail_ue = interference_tail_integral(params.p_m / params.p_b, beta, 1.0, alpha, 0.0)
    k = delta * tail_bs + (1.0 - delta) * tail_ue
    return _gamma_moment(2, 1.0 + k, _noise_nu(params, beta, params.p_b), alpha)
