import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dudasim
from dudasim import quadrature
from dudasim.quadrature import (
    QuadratureConvergenceError,
    integrate_finite,
    interference_tail_integral,
)


def arctan_closed_form(kappa, beta, r, a):
    """alpha = 4 reference, written without the pi/2 - arctan cancellation."""
    c = kappa * beta * r**4
    sc = math.sqrt(c)
    angle = math.pi / 2.0 if a == 0.0 else math.atan2(sc, a * a)
    return 0.5 * sc * angle


class TestTailIntegral:
    def test_reference_points(self):
        assert interference_tail_integral(1, 1, 1, 4.0, 1) == pytest.approx(
            math.pi / 8, rel=1e-10
        )
        # power ratio 100, no exclusion: (10/2)*(pi/2)
        assert interference_tail_integral(100, 1, 1, 4.0, 0) == pytest.approx(
            5 * math.pi / 2, rel=1e-10
        )

    def test_vanishes_with_threshold(self):
        assert interference_tail_integral(1.0, 0.0, 1.0, 4.0, 1.0) == 0.0
        small = interference_tail_integral(1.0, 1e-12, 1.0, 4.0, 1.0)
        assert 0 < small < 1e-11

    def test_rejects_alpha_at_most_two(self):
        for alpha in (2.0, 1.5, -1.0):
            with pytest.raises(ValueError):
                interference_tail_integral(1.0, 1.0, 1.0, alpha, 1.0)

    def test_rejects_negative_arguments(self):
        for kappa, beta, r, a in ((-1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0),
                                  (1.0, 1.0, -1.0, 1.0), (1.0, 1.0, 1.0, -1.0)):
            with pytest.raises(ValueError):
                interference_tail_integral(kappa, beta, r, 4.0, a)

    def test_zero_exclusion_radius_accepted(self):
        val = interference_tail_integral(1.0, 1.0, 1.0, 4.0, 0.0)
        assert val == pytest.approx(arctan_closed_form(1, 1, 1, 0), rel=1e-10)

    def test_closed_form_grid(self):
        # random tuples, components log-uniform across six decades
        rng = np.random.default_rng(23)
        for _ in range(500):
            kappa, beta, r, a = 10.0 ** rng.uniform(-3, 3, size=4)
            got = interference_tail_integral(kappa, beta, r, 4.0, a)
            want = arctan_closed_form(kappa, beta, r, a)
            assert got == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_monotonicity(self):
        base = dict(kappa=2.0, beta=0.7, r=3.0, alpha=3.5, a=2.0)

        def val(**kw):
            p = {**base, **kw}
            return interference_tail_integral(
                p["kappa"], p["beta"], p["r"], p["alpha"], p["a"]
            )

        assert val(beta=1.4) > val()
        assert val(kappa=4.0) > val()
        assert val(a=4.0) < val()

    def test_scale_covariance(self):
        # (r, a) -> (sigma r, sigma a) multiplies the value by sigma^2
        rng = np.random.default_rng(29)
        for _ in range(200):
            kappa, beta = 10.0 ** rng.uniform(-2, 2, size=2)
            r, a = 10.0 ** rng.uniform(-1, 1, size=2)
            sigma = 10.0 ** rng.uniform(-1, 1)
            alpha = rng.uniform(2.5, 6.0)
            base = interference_tail_integral(kappa, beta, r, alpha, a)
            scaled = interference_tail_integral(kappa, beta, sigma * r, alpha, sigma * a)
            assert scaled == pytest.approx(sigma**2 * base, rel=1e-8, abs=0.0)

    def test_general_alpha_against_dense_quadrature(self):
        # independent reference: transform x = a + u/(1-u) and evaluate a
        # very fine composite Simpson rule
        kappa, beta, r, alpha, a = 3.0, 0.4, 2.0, 3.2, 1.1
        c = kappa * beta * r**alpha

        u = np.linspace(0.0, 1.0, 200001)[:-1]
        x = a + u / (1 - u)
        g = c * x / (x**alpha + c) / (1 - u) ** 2
        from scipy.integrate import simpson

        want = simpson(g, x=u)
        got = interference_tail_integral(kappa, beta, r, alpha, a)
        assert got == pytest.approx(want, rel=1e-6)


class TestFinite:
    def test_polynomial(self):
        val = integrate_finite(lambda x: 3 * x * x, 0.0, 2.0)
        assert type(val) is float and val == pytest.approx(8.0, rel=1e-12)

    def test_non_convergence_reports_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureConvergenceError) as exc_info:
            integrate_finite(lambda x: math.sin(50 * x) * math.exp(-0.01 * x), 0.0, 100.0)
        assert math.isfinite(exc_info.value.value)
        assert exc_info.value.error > 0.0


def fresh_interpreter(code):
    """Run code in a new interpreter that imports this checkout's dudasim."""
    src = str(Path(dudasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestColdStart:
    def test_import_and_parse_load_no_scipy(self):
        # scipy.special is about 90% of a cold start that most commands never need
        loaded = fresh_interpreter(
            "import sys, dudasim\n"
            "dudasim.parse_config('alpha = 3.5\\nseed = 4\\n')\n"
            "print(' '.join(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        assert loaded.split() == []

    def test_import_and_parse_load_no_numpy_random(self):
        # numpy.random costs about 14 ms of CPU to import; only campaigns,
        # sweeps and snapshots draw random numbers
        loaded = fresh_interpreter(
            "import sys, dudasim\n"
            "dudasim.parse_config('alpha = 3.5\\nseed = 4\\n')\n"
            "print(' '.join(m for m in sys.modules if m.startswith('numpy.random')))\n"
        )
        assert loaded.split() == []

    def test_first_and_second_tail_calls_agree(self):
        # the first call imports hyp2f1 and rebinds the module global to the
        # ufunc, so the second (and every later) call skips the import
        out = fresh_interpreter(
            "from dudasim import quadrature as q\n"
            "first = q.interference_tail_integral(1, 1, 1, 4.0, 1)\n"
            "rebound = type(q._hyp2f1).__name__\n"
            "second = q.interference_tail_integral(1, 1, 1, 4.0, 1)\n"
            "print(repr(first), repr(second), rebound)\n"
        )
        first, second, rebound = out.split()
        assert float(first) == pytest.approx(math.pi / 8, rel=1e-15, abs=0.0)
        assert float(second) == pytest.approx(math.pi / 8, rel=1e-15, abs=0.0)
        assert rebound == "ufunc"


def mp_tail(kappa, beta, r, alpha, a):
    """The tail integral in 30-digit arithmetic: the hypergeometric closed
    form for a > 0 and the Beta-function value at a = 0."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        kappa, beta, r, alpha, a = (mp.mpf(x) for x in (kappa, beta, r, alpha, a))
        c = kappa * beta * r**alpha
        if a == 0:
            return float(c ** (2 / alpha) * (mp.pi / alpha) / mp.sin(2 * mp.pi / alpha))
        f21 = mp.hyp2f1(1, 1 - 2 / alpha, 2 - 2 / alpha, -c * a**-alpha)
        return float(c * a ** (2 - alpha) / (alpha - 2) * f21)


def assert_matches_oracle(kappa, beta, r, alpha, a):
    got = interference_tail_integral(kappa, beta, r, alpha, a)
    assert type(got) is float
    # abs=0: approx's default absolute slack would excuse every value below 1e-12
    assert got == pytest.approx(mp_tail(kappa, beta, r, alpha, a), rel=1e-12, abs=0.0)


class TestTailOracle:
    """The tail integral against mpmath at 30 digits over alpha in (2, 6]."""

    def test_random_tuples(self):
        rng = np.random.default_rng(31)
        for _ in range(600):
            alpha = 6.0 - rng.uniform(0.0, 4.0)  # (2, 6]
            kappa, beta, r, a = 10.0 ** rng.uniform(-3, 3, size=4)
            assert_matches_oracle(kappa, beta, r, alpha, a)

    def test_zero_exclusion_radius(self):
        rng = np.random.default_rng(37)
        for alpha in (2.0001, 2.05, 2.5, 2.7, 3.5, 4.0, 6.0):
            kappa, beta, r = 10.0 ** rng.uniform(-3, 3, size=3)
            assert_matches_oracle(kappa, beta, r, alpha, 0.0)

    def test_small_alpha_tiny_argument(self):
        # alpha near 2.7, small c and c a^-alpha between about 1e-20 and
        # 1e-8, so the value is far below 1: the region where an adaptive
        # quadrature of the mapped integrand lost up to three digits
        rng = np.random.default_rng(41)
        for _ in range(200):
            alpha = rng.uniform(2.5, 2.9)
            kappa, beta, r = 10.0 ** rng.uniform(-3, 0, size=3)
            a = (kappa * beta * r**alpha) ** (1 / alpha) * 10.0 ** rng.uniform(3, 7)
            assert_matches_oracle(kappa, beta, r, alpha, a)

    def test_extreme_exclusion_radii(self):
        for alpha in (2.05, 2.7, 4.0, 6.0):
            for a in (1e-300, 1e-30, 1e-6, 1e30):
                assert_matches_oracle(2.0, 0.5, 3.0, alpha, a)
