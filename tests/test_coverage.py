import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from dudasim.coverage import (
    InterfererDensities,
    dl_success_probability,
    laplace_ul_from_dl_bs,
    laplace_ul_from_ul_ue,
    nearest_distance_cdf,
    nearest_distance_pdf,
    nearest_truncation_radius,
    second_nearest_distance_cdf,
    second_nearest_distance_pdf,
    second_nearest_truncation_radius,
    ul_success_probability,
)
from dudasim.params import SystemParams, db_to_linear
from dudasim.quadrature import interference_tail_integral

from helpers import (
    field_log_products,
    mc_mean_and_se,
    sample_nearest_distance,
    sample_second_nearest_distance,
)

TABLE = SystemParams()
MEAN_LINK_DISTANCE = 0.5 / math.sqrt(TABLE.lambda_b)  # 7.071 m


def dl_functionals(r, params):
    """Laplace functionals of the two DL-side fields at the typical terminal,
    exp(-2 pi lambda tail), at serving distance r: DL-BS interferers are
    excluded within r, UL-terminal interferers are not excluded at all."""
    dens = InterfererDensities.from_params(params)
    tail_bs = interference_tail_integral(1.0, params.beta_d, r, params.alpha, r).value
    tail_ue = interference_tail_integral(
        params.p_m / params.p_b, params.beta_d, r, params.alpha, 0.0
    ).value
    return (
        math.exp(-2 * math.pi * dens.lambda_psi * tail_bs),
        math.exp(-2 * math.pi * dens.lambda_phi * tail_ue),
    )


class TestDensities:
    def test_from_params(self):
        d = InterfererDensities.from_params(TABLE)
        assert d.lambda_psi == pytest.approx(0.5 * 0.5 * 0.005)
        assert d.lambda_phi == pytest.approx(0.5 * 0.5 * 0.005)

    def test_traffic_split(self):
        d = InterfererDensities.from_params(replace(TABLE, delta=0.8))
        assert d.lambda_psi == pytest.approx(0.002)
        assert d.lambda_phi == pytest.approx(0.0005)


class TestDistanceLaws:
    def test_pdf_vanishes_at_origin(self):
        assert nearest_distance_pdf(0.0, 0.005) == 0.0
        assert second_nearest_distance_pdf(0.0, 0.005) == 0.0

    def test_normalization(self):
        for lam in (0.005, 0.08):
            v1, _ = quad(lambda r: nearest_distance_pdf(r, lam), 0, np.inf)
            v2, _ = quad(lambda d: second_nearest_distance_pdf(d, lam), 0, np.inf)
            assert v1 == pytest.approx(1.0, rel=1e-9)
            assert v2 == pytest.approx(1.0, rel=1e-9)

    def test_mean_nearest_distance(self):
        lam = 0.005
        mean, _ = quad(lambda r: r * nearest_distance_pdf(r, lam), 0, np.inf)
        assert mean == pytest.approx(0.5 / math.sqrt(lam), rel=1e-9)
        assert mean == pytest.approx(7.0710678, rel=1e-6)

    def test_cdf_consistency(self):
        lam = 0.005
        for d in (3.0, 8.0, 15.0):
            v, _ = quad(lambda x: second_nearest_distance_pdf(x, lam), 0, d)
            assert v == pytest.approx(second_nearest_distance_cdf(d, lam), rel=1e-9)
            v1, _ = quad(lambda x: nearest_distance_pdf(x, lam), 0, d)
            assert v1 == pytest.approx(nearest_distance_cdf(d, lam), rel=1e-9)

    def test_truncation_radii(self):
        lam, mass = 0.005, 1e-9
        r1 = nearest_truncation_radius(lam, mass)
        r2 = second_nearest_truncation_radius(lam, mass)
        assert 1.0 - nearest_distance_cdf(r1, lam) == pytest.approx(mass, rel=1e-6, abs=0.0)
        assert 1.0 - second_nearest_distance_cdf(r2, lam) == pytest.approx(mass, rel=1e-6, abs=0.0)
        assert r2 > r1


class TestLaplaceLimits:
    def test_zero_threshold_is_transparent(self):
        p = replace(TABLE, beta_u=1e-15, beta_d=1e-15)
        r = MEAN_LINK_DISTANCE
        assert laplace_ul_from_dl_bs(r, p) == pytest.approx(1.0, abs=1e-6)
        assert laplace_ul_from_ul_ue(r, p) == pytest.approx(1.0, abs=1e-6)
        dl_bs, dl_ue = dl_functionals(r, p)
        assert dl_bs == pytest.approx(1.0, abs=1e-6)
        assert dl_ue == pytest.approx(1.0, abs=1e-6)

    def test_empty_field_is_transparent(self):
        p = replace(TABLE, lambda_b=1e-12)
        assert laplace_ul_from_dl_bs(5.0, p) == pytest.approx(1.0, abs=1e-5)

    def test_all_downlink_silences_ul_terminals(self):
        p = replace(TABLE, delta=1.0 - 1e-12)
        assert laplace_ul_from_ul_ue(MEAN_LINK_DISTANCE, p) == pytest.approx(1.0, abs=1e-9)

    def test_all_uplink_silences_dl_stations(self):
        p = replace(TABLE, delta=1e-12)
        # floor set by the outer-law truncation mass (1e-9)
        assert laplace_ul_from_dl_bs(MEAN_LINK_DISTANCE, p) == pytest.approx(1.0, abs=1e-8)

    def test_outputs_in_unit_interval_and_monotone(self):
        r = MEAN_LINK_DISTANCE
        values = (laplace_ul_from_dl_bs(r, TABLE), laplace_ul_from_ul_ue(r, TABLE),
                  *dl_functionals(r, TABLE))
        for v in values:
            assert 0.0 < v <= 1.0
        # non-increasing in the threshold
        lo = laplace_ul_from_ul_ue(r, replace(TABLE, beta_u=2.0))
        assert lo < laplace_ul_from_ul_ue(r, TABLE)


class TestUlTerminalFunctionalClosedForm:
    def test_arctan_form(self):
        # kappa = 1, alpha = 4: exponent is
        # -2 pi lam_phi (r^2 sqrt(beta)/2)(pi/2 - arctan(1/sqrt(beta)))
        dens = InterfererDensities.from_params(TABLE)
        for beta_u in (0.5, 1.0, 3.0):
            p = replace(TABLE, beta_u=beta_u)
            for r in (3.0, 7.0, 12.0):
                sb = math.sqrt(beta_u)
                want = math.exp(
                    -2 * math.pi * dens.lambda_phi * (r * r * sb / 2)
                    * (math.pi / 2 - math.atan(1.0 / sb))
                )
                assert laplace_ul_from_ul_ue(r, p) == pytest.approx(want, rel=1e-8)


@pytest.mark.slow
class TestFieldOracles:
    """Laplace functionals against direct Poisson-field realizations."""

    N_REAL = 40000

    def test_ul_from_dl_bs(self):
        rng = np.random.default_rng(101)
        r = MEAN_LINK_DISTANCE
        dens = InterfererDensities.from_params(TABLE)
        c = (TABLE.p_b / TABLE.p_m) * TABLE.beta_u * r**TABLE.alpha
        t = sample_second_nearest_distance(rng, TABLE.lambda_b, self.N_REAL)
        logs = field_log_products(
            rng, dens.lambda_psi, t, np.full(self.N_REAL, c), TABLE.alpha
        )
        mean, se = mc_mean_and_se(np.exp(logs))
        got = laplace_ul_from_dl_bs(r, TABLE)
        assert abs(got - mean) < max(3 * se, 1e-4)
        assert abs(got - mean) < 0.01

    def test_ul_from_ul_ue(self):
        rng = np.random.default_rng(103)
        r = MEAN_LINK_DISTANCE
        dens = InterfererDensities.from_params(TABLE)
        c = TABLE.beta_u * r**TABLE.alpha
        logs = field_log_products(
            rng, dens.lambda_phi, np.full(self.N_REAL, r), np.full(self.N_REAL, c), TABLE.alpha
        )
        mean, se = mc_mean_and_se(np.exp(logs))
        got = laplace_ul_from_ul_ue(r, TABLE)
        assert abs(got - mean) < max(3 * se, 1e-4)

    def test_dl_functionals(self):
        rng = np.random.default_rng(105)
        r = 10.6
        dens = InterfererDensities.from_params(TABLE)
        c_bs = TABLE.beta_d * r**TABLE.alpha
        logs = field_log_products(
            rng, dens.lambda_psi, np.full(self.N_REAL, r), np.full(self.N_REAL, c_bs), TABLE.alpha
        )
        mean, se = mc_mean_and_se(np.exp(logs))
        dl_bs, dl_ue = dl_functionals(r, TABLE)
        assert abs(dl_bs - mean) < max(3 * se, 1e-4)

        c_ue = (TABLE.p_m / TABLE.p_b) * TABLE.beta_d * r**TABLE.alpha
        logs = field_log_products(
            rng, dens.lambda_phi, np.zeros(self.N_REAL), np.full(self.N_REAL, c_ue), TABLE.alpha
        )
        mean, se = mc_mean_and_se(np.exp(logs))
        assert abs(dl_ue - mean) < max(3 * se, 1e-4)


@pytest.mark.slow
class TestSuccessProbabilityOracles:
    """Full printed-model Monte Carlo: serving distance drawn from its law,
    both interference fields realized with their exclusions."""

    N_REAL = 40000

    def test_ul_success(self):
        rng = np.random.default_rng(107)
        dens = InterfererDensities.from_params(TABLE)
        r = sample_nearest_distance(rng, TABLE.lambda_b, self.N_REAL)
        t = sample_second_nearest_distance(rng, TABLE.lambda_b, self.N_REAL)
        c_psi = (TABLE.p_b / TABLE.p_m) * TABLE.beta_u * r**TABLE.alpha
        c_phi = TABLE.beta_u * r**TABLE.alpha
        logs = field_log_products(rng, dens.lambda_psi, t, c_psi, TABLE.alpha)
        logs += field_log_products(rng, dens.lambda_phi, r, c_phi, TABLE.alpha)
        mean, se = mc_mean_and_se(np.exp(logs))
        got = ul_success_probability(TABLE)
        assert got.quadrature_error < 1e-6
        assert 0.0 < got.value < 1.0
        assert abs(got.value - mean) < max(3 * se, 1e-3)

    def test_dl_success(self):
        rng = np.random.default_rng(109)
        dens = InterfererDensities.from_params(TABLE)
        r = sample_second_nearest_distance(rng, TABLE.lambda_b, self.N_REAL)
        c_psi = TABLE.beta_d * r**TABLE.alpha
        c_phi = (TABLE.p_m / TABLE.p_b) * TABLE.beta_d * r**TABLE.alpha
        logs = field_log_products(rng, dens.lambda_psi, r, c_psi, TABLE.alpha)
        logs += field_log_products(rng, dens.lambda_phi, np.zeros(self.N_REAL), c_phi, TABLE.alpha)
        mean, se = mc_mean_and_se(np.exp(logs))
        got = dl_success_probability(TABLE)
        assert 0.0 < got.value < 1.0
        assert abs(got.value - mean) < max(3 * se, 1e-3)


class TestSuccessProbabilityShape:
    def test_zero_threshold_limits(self):
        p = replace(TABLE, beta_u=1e-15, beta_d=1e-15)
        assert ul_success_probability(p).value == pytest.approx(1.0, abs=1e-5)
        assert dl_success_probability(p).value == pytest.approx(1.0, abs=1e-5)

    def test_monotone_in_threshold(self):
        base = ul_success_probability(TABLE).value
        doubled = ul_success_probability(replace(TABLE, beta_u=2.0)).value
        assert doubled < base

    def test_monotone_in_density(self):
        # Without noise the model is scale-invariant: every distance law and
        # interferer density scales with lambda_b, so both probabilities are
        # independent of it (monotone only in the weak sense, with equality).
        base = ul_success_probability(TABLE).value
        base_d = dl_success_probability(TABLE).value
        for lam in (0.0025, 0.01, 0.02):
            p = replace(TABLE, lambda_b=lam)
            assert ul_success_probability(p).value == pytest.approx(base, rel=1e-12, abs=0.0)
            assert dl_success_probability(p).value == pytest.approx(base_d, rel=1e-12, abs=0.0)

    def test_silent_terminals_help_dl(self):
        base = dl_success_probability(TABLE).value
        quiet = dl_success_probability(replace(TABLE, p_m=1e-12)).value
        assert quiet > base
        # with terminals silenced, only the BS field attenuates
        dens = InterfererDensities.from_params(TABLE)
        want, _ = quad(
            lambda r: dl_functionals(r, TABLE)[0]
            * second_nearest_distance_pdf(r, TABLE.lambda_b),
            0.0,
            second_nearest_truncation_radius(TABLE.lambda_b, 1e-9),
        )
        assert quiet == pytest.approx(want, abs=1e-6)

    def test_noise_factor_negligible_at_table_powers(self):
        plain = ul_success_probability(TABLE).value
        noisy = ul_success_probability(TABLE, include_noise=True).value
        assert abs(plain - noisy) < 1e-10
        plain_d = dl_success_probability(TABLE).value
        noisy_d = dl_success_probability(TABLE, include_noise=True).value
        assert abs(plain_d - noisy_d) < 1e-10

    def test_table_values_pinned(self):
        # frozen reference values of the analytic model at the standard
        # parameter table (regression anchors, cross-checked by the field
        # oracles above)
        assert ul_success_probability(TABLE).value == pytest.approx(0.2615106, abs=2e-6)
        assert dl_success_probability(TABLE).value == pytest.approx(0.8353827, abs=2e-6)


class TestHighPrecisionOracle:
    """Success probabilities at small and large path-loss exponents, noise
    off, against 30-digit mpmath values copied from the benchmark's
    perfbench/refs.json (written by `perfbench/make_refs.py analytic`): the
    DL probability in closed form, 1/(1+K)^2 in u = pi lambda r^2; the UL
    probability as a tanh-sinh double integral over the serving and partner
    distances; the interference tail as the 2F1 closed form; no truncation
    of the outer laws.  Parameters are the standard table with alpha and
    beta_u changed."""

    RHO_U = {  # alpha -> {beta_u_db: rho_u}
        2.05: {-5: 0.003599945886739409, 5: 0.00038187221856424917},
        2.5: {-5: 0.06703219332470597, 5: 0.01112784728760678},
        3.5: {-5: 0.2967281942604785, 5: 0.09522275802901925},
        6.0: {-5: 0.6567488373565838, 5: 0.4152856158607587},
    }
    RHO_D = {  # alpha -> rho_d (independent of beta_u)
        2.05: 0.05728656026880078,
        2.5: 0.5803921674694427,
        3.5: 0.8056689820226471,
        6.0: 0.8578060506647491,
    }

    @pytest.mark.parametrize("alpha", sorted(RHO_D))
    def test_ul_and_dl(self, alpha):
        pytest.importorskip("mpmath")  # skipped with the other mpmath oracle tests
        for beta_u_db, want in self.RHO_U[alpha].items():
            p = replace(TABLE, alpha=alpha, beta_u=db_to_linear(beta_u_db))
            got = ul_success_probability(p).value
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-7, abs=0.0)
        got_d = dl_success_probability(replace(TABLE, alpha=alpha)).value
        assert math.isfinite(got_d)
        assert got_d == pytest.approx(self.RHO_D[alpha], rel=1e-7, abs=0.0)
