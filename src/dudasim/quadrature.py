"""Closed-form interference tail, and adaptive quadrature for the success
probabilities that have no closed form.

Every Laplace functional of a Poisson interference field reduces to one tail
integral, a Gauss hypergeometric function (the rho(T, alpha) of Andrews,
Baccelli and Ganti, IEEE TCOM 2011).  The expectations over link distance
are exact Gamma integrals except the UL average over the partner distance,
and the noise factor when noise is on; those run on QUADPACK
(scipy.integrate.quad: adaptive Gauss-Kronrod with an error estimate) over
a finite interval, with the tolerances below.  ``integrate_finite`` and
``interference_tail_integral`` return plain floats; a QUADPACK run that
exhausts its subdivisions raises QuadratureConvergenceError instead.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

# relative tolerance only: given an absolute one of 1e-12 as well, QUADPACK
# exhausts its subdivisions on some UL probabilities of 1e-6 and less that it
# resolves with the relative one alone
REL_TOL = 1e-8
ABS_TOL = 0.0
MAX_SUBDIVISIONS = 200


def _hyp2f1(a, b, c, z):
    """scipy.special.hyp2f1, imported on the first call: importing
    scipy.special costs most of a cold start that may never need it.  The
    call rebinds this global to the ufunc, so later calls cost one lookup."""
    global _hyp2f1
    from scipy.special import hyp2f1

    _hyp2f1 = hyp2f1
    return hyp2f1(a, b, c, z)


class QuadratureConvergenceError(RuntimeError):
    """Raised when the subdivision budget is exhausted before the requested
    tolerance is met; carries the best value and its achieved error estimate."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(f"{message} (value={value!r}, error estimate={error!r})")
        self.value = value
        self.error = error


def integrate_finite(
    f: Callable[[float], float], a: float, b: float, name: str = "finite integral"
) -> float:
    """Adaptive integral of f over [a, b]; raises QuadratureConvergenceError,
    naming the integral and carrying the best value and its error estimate,
    if MAX_SUBDIVISIONS is exhausted before the tolerance is met."""
    # imported here: most entry points never integrate, and the import is slow
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(f, a, b, epsabs=ABS_TOL, epsrel=REL_TOL,
                   limit=MAX_SUBDIVISIONS, full_output=1)
    if len(out) > 3:  # an explanation message is appended on failure
        msg = f"{name} did not converge within {MAX_SUBDIVISIONS} subdivisions"
        raise QuadratureConvergenceError(msg, out[0], out[1])
    return out[0]


def interference_tail_integral(
    kappa: float, beta: float, r: float, alpha: float, a: float
) -> float:
    """Interference tail  integral_a^inf c x^(1-alpha) / (1 + c x^-alpha) dx,
    c = kappa*beta*r^alpha, for power ratio kappa, SINR threshold beta,
    serving distance r and exclusion radius a >= 0.  With q = a / c^(1/alpha)
    it equals, to rounding, c^(2/alpha) q^(2-alpha)/(alpha-2) *
    2F1(1, 1-2/alpha; 2-2/alpha; -q^-alpha), or c^(2/alpha) (pi/alpha) /
    sin(2 pi/alpha) at a = 0.  That a = 0 value is also used below q = 1e-8,
    where q^-alpha may overflow; it is too big by at most a^2/2, relative q^2."""
    if alpha <= 2:
        raise ValueError("alpha must exceed 2 (tail integral diverges)")
    if kappa < 0 or beta < 0 or r < 0 or a < 0:
        raise ValueError("kappa, beta, r must be positive and a non-negative")

    c = kappa * beta * r**alpha
    if c == 0.0:
        return 0.0
    scale, q = c ** (2.0 / alpha), a / c ** (1.0 / alpha)
    if q < 1e-8:
        return float(scale * (math.pi / alpha) / math.sin(2.0 * math.pi / alpha))
    b = 1.0 - 2.0 / alpha
    f21 = _hyp2f1(1.0, b, b + 1.0, -(q**-alpha))
    return float(scale * q ** (2.0 - alpha) / (alpha - 2.0) * f21)
