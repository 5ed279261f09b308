"""Analytical transmission success probabilities for the decoupled scheme.

Under Rayleigh fading, the probability that a link's SINR clears its
threshold factorizes into Laplace functionals of the interfering fields
evaluated at s = beta * r^alpha / P_signal:

* UL data, received at the serving (nearest) BS: interference from other
  pairs' DL base stations (field density 0.5*delta*lambda_b, excluded
  within the second-nearest-BS distance, which is averaged over its own
  law) and from active UL terminals (density 0.5*(1-delta)*lambda_b,
  excluded within the serving distance r).
* DL ACK, received at the terminal from the pair's far BS: the serving
  distance follows the second-nearest-neighbour law; BS interferers are
  excluded within r, terminal interferers are not excluded at all.  This
  direction is an approximation by construction (the exclusion argument
  is borrowed from nearest-BS association).

The outer expectations over link distance integrate the functionals
against the nearest / second-nearest distance densities.  The printed DL
weight 2*pi*lambda^2*r^3*exp(-pi*lambda*r^2) is not normalized; the
normalized second-nearest density (an extra factor pi) is used so the
result is a probability.

Noise: the success-probability integrands here omit the thermal-noise
factor exp(-s*sigma^2) by default, matching the interference-limited
closed forms; ``include_noise=True`` restores it.  At the default powers
the factor differs from 1 by less than 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate_finite,
    interference_tail_integral,
)


@dataclass(frozen=True)
class InterfererDensities:
    """Densities of the two interfering fields seen by a typical link.

    A cooperating pair serves a single active link, so of the pair density
    0.5*lambda_b a fraction delta transmits in DL (the pair's DL-BS) and
    1-delta in UL (the pair's active terminal).
    """

    lambda_psi: float  # interfering DL base stations, per m^2
    lambda_phi: float  # interfering UL terminals, per m^2

    @classmethod
    def from_params(cls, params: SystemParams) -> "InterfererDensities":
        return cls(
            lambda_psi=0.5 * params.delta * params.lambda_b,
            lambda_phi=0.5 * (1.0 - params.delta) * params.lambda_b,
        )


@dataclass(frozen=True)
class SuccessProbabilityResult:
    value: float
    quadrature_error: float


def nearest_distance_pdf(r, lam: float):
    """Density of the distance from a uniform point to its nearest neighbour
    in a Poisson field of intensity lam."""
    r = np.asarray(r, dtype=float)
    out = 2.0 * np.pi * lam * r * np.exp(-np.pi * lam * r * r)
    return out if out.ndim else float(out)


def nearest_distance_cdf(r, lam: float):
    r = np.asarray(r, dtype=float)
    out = 1.0 - np.exp(-np.pi * lam * r * r)
    return out if out.ndim else float(out)


def second_nearest_distance_pdf(d, lam: float):
    """Density of the distance to the second-nearest point of a Poisson
    field of intensity lam."""
    d = np.asarray(d, dtype=float)
    x = np.pi * lam * d * d
    out = 2.0 * (np.pi * lam) ** 2 * d**3 * np.exp(-x)
    return out if out.ndim else float(out)


def second_nearest_distance_cdf(d, lam: float):
    d = np.asarray(d, dtype=float)
    x = np.pi * lam * d * d
    out = 1.0 - np.exp(-x) * (1.0 + x)
    return out if out.ndim else float(out)


def nearest_truncation_radius(lam: float, tail_mass: float) -> float:
    """Radius beyond which the nearest-distance law has at most tail_mass."""
    return math.sqrt(math.log(1.0 / tail_mass) / (math.pi * lam))


def second_nearest_truncation_radius(lam: float, tail_mass: float) -> float:
    """Radius beyond which the second-nearest law has at most tail_mass.

    Solves (1+x)*exp(-x) = tail_mass for x = pi*lam*R^2 by fixed point."""
    x = math.log(1.0 / tail_mass)
    for _ in range(20):
        x = math.log(1.0 / tail_mass) + math.log1p(x)
    return math.sqrt(x / (math.pi * lam))


def laplace_ul_from_dl_bs(
    r: float, params: SystemParams, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Laplace functional of DL-BS interference at the serving BS of a
    typical UL link of distance r.

    The nearest interfering DL-BS lies at the second-nearest-BS distance
    (the pair partner is the nearest), so the exclusion radius is averaged
    over the second-nearest law of the full BS field.
    """
    dens = InterfererDensities.from_params(params)
    kappa = params.p_b / params.p_m

    def integrand(t: float) -> float:
        tail = interference_tail_integral(kappa, params.beta_u, r, params.alpha, t).value
        return math.exp(-2.0 * math.pi * dens.lambda_psi * tail) * second_nearest_distance_pdf(
            t, params.lambda_b
        )

    upper = second_nearest_truncation_radius(params.lambda_b, spec.tail_cutoff_mass)
    return integrate_finite(integrand, 0.0, upper, spec).value


def laplace_ul_from_ul_ue(r: float, params: SystemParams) -> float:
    """Laplace functional of UL-terminal interference at the serving BS of a
    typical UL link of distance r; interferers are excluded within r."""
    dens = InterfererDensities.from_params(params)
    tail = interference_tail_integral(1.0, params.beta_u, r, params.alpha, r).value
    return math.exp(-2.0 * math.pi * dens.lambda_phi * tail)


def _dl_laplace_product(r: float, params: SystemParams) -> float:
    """Product of the two DL-side Laplace functionals at serving distance r:
    DL-BS interferers are excluded within r (none is closer than the serving
    station), UL-terminal interferers are not excluded at all."""
    dens = InterfererDensities.from_params(params)
    tail_bs = interference_tail_integral(1.0, params.beta_d, r, params.alpha, r).value
    tail_ue = interference_tail_integral(
        params.p_m / params.p_b, params.beta_d, r, params.alpha, 0.0
    ).value
    return math.exp(
        -2.0 * math.pi * (dens.lambda_psi * tail_bs + dens.lambda_phi * tail_ue)
    )


def ul_success_probability(
    params: SystemParams,
    spec: QuadratureSpec = DEFAULT_SPEC,
    include_noise: bool = False,
) -> SuccessProbabilityResult:
    """Probability that a typical UL data transmission clears beta_u.

    Integrates the UL Laplace functionals against the nearest-distance law
    of the serving link.
    """

    def integrand(r: float) -> float:
        val = (
            laplace_ul_from_dl_bs(r, params, spec)
            * laplace_ul_from_ul_ue(r, params)
            * nearest_distance_pdf(r, params.lambda_b)
        )
        if include_noise:
            s = params.beta_u * r**params.alpha / params.p_m
            val *= math.exp(-s * params.noise_power)
        return val

    upper = nearest_truncation_radius(params.lambda_b, spec.tail_cutoff_mass)
    res = integrate_finite(integrand, 0.0, upper, spec)
    return SuccessProbabilityResult(value=res.value, quadrature_error=res.error)


def dl_success_probability(
    params: SystemParams,
    spec: QuadratureSpec = DEFAULT_SPEC,
    include_noise: bool = False,
) -> SuccessProbabilityResult:
    """Probability that a typical DL ACK transmission clears beta_d.

    The serving DL-BS is the pair's far member, so the outer expectation
    runs over the (normalized) second-nearest distance law.
    """

    def integrand(r: float) -> float:
        val = _dl_laplace_product(r, params) * second_nearest_distance_pdf(
            r, params.lambda_b
        )
        if include_noise:
            s = params.beta_d * r**params.alpha / params.p_b
            val *= math.exp(-s * params.noise_power)
        return val

    upper = second_nearest_truncation_radius(params.lambda_b, spec.tail_cutoff_mass)
    res = integrate_finite(integrand, 0.0, upper, spec)
    return SuccessProbabilityResult(value=res.value, quadrature_error=res.error)
