"""Closed-form interference tail, and adaptive quadrature for the outer
expectations over link distance.

Every Laplace functional of a Poisson interference field reduces to one tail
integral, a Gauss hypergeometric function (the rho(T, alpha) of Andrews,
Baccelli and Ganti, IEEE TCOM 2011).  Its expectations over serving and
exclusion distances run on QUADPACK (scipy.integrate.quad: adaptive
Gauss-Kronrod with an error estimate) over truncated distance laws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

from scipy.integrate import IntegrationWarning, quad
from scipy.special import hyp2f1


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive integrator; ``tail_cutoff_mass``
    bounds the probability mass discarded when a density-weighted outer
    integral is truncated to a finite radius (see the coverage module)."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    tail_cutoff_mass: float = 1e-9

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if not 0 < self.tail_cutoff_mass < 1e-6:
            raise ValueError("tail_cutoff_mass must lie in (0, 1e-6)")


DEFAULT_SPEC = QuadratureSpec()


class IntegrationResult(NamedTuple):
    value: float
    error: float


class QuadratureConvergenceError(RuntimeError):
    """Raised when the subdivision budget is exhausted before the requested
    tolerance is met; carries the best value and its achieved error estimate."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(f"{message} (value={value!r}, error estimate={error!r})")
        self.value = value
        self.error = error


def integrate_finite(
    f: Callable[[float], float], a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> IntegrationResult:
    """Adaptive integral of f over [a, b] with its error estimate; raises
    QuadratureConvergenceError if max_subdivisions is exhausted first."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                   limit=spec.max_subdivisions, full_output=1)
    if len(out) > 3:  # an explanation message is appended on failure
        msg = "finite integral did not converge within max_subdivisions"
        raise QuadratureConvergenceError(msg, out[0], out[1])
    return IntegrationResult(out[0], out[1])


def interference_tail_integral(
    kappa: float, beta: float, r: float, alpha: float, a: float
) -> IntegrationResult:
    """Interference tail  integral_a^inf c x^(1-alpha) / (1 + c x^-alpha) dx,
    c = kappa*beta*r^alpha, for power ratio kappa, SINR threshold beta,
    serving distance r and exclusion radius a >= 0.  With q = a / c^(1/alpha)
    it equals, to rounding (error 0.0), c^(2/alpha) q^(2-alpha)/(alpha-2) *
    2F1(1, 1-2/alpha; 2-2/alpha; -q^-alpha), or c^(2/alpha) (pi/alpha) /
    sin(2 pi/alpha) at a = 0.  That a = 0 value is also used below q = 1e-8,
    where q^-alpha may overflow; it is too big by at most a^2/2, relative q^2."""
    if alpha <= 2:
        raise ValueError("alpha must exceed 2 (tail integral diverges)")
    if kappa < 0 or beta < 0 or r < 0 or a < 0:
        raise ValueError("kappa, beta, r must be positive and a non-negative")

    c = kappa * beta * r**alpha
    if c == 0.0:
        return IntegrationResult(0.0, 0.0)
    scale, q = c ** (2.0 / alpha), a / c ** (1.0 / alpha)
    if q < 1e-8:
        return IntegrationResult(scale * (math.pi / alpha) / math.sin(2.0 * math.pi / alpha), 0.0)
    b = 1.0 - 2.0 / alpha
    f21 = hyp2f1(1.0, b, b + 1.0, -(q**-alpha))
    return IntegrationResult(float(scale * q ** (2.0 - alpha) / (alpha - 2.0) * f21), 0.0)
