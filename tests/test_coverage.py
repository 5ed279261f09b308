import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from dudasim import coverage
from dudasim.coverage import (
    dl_success_probability,
    nearest_distance_cdf,
    second_nearest_distance_cdf,
    ul_success_probability,
)
from dudasim.params import THERMAL_NOISE_DBM, SystemParams, db_to_linear, dbm_to_watts
from dudasim.quadrature import interference_tail_integral

from helpers import (
    field_log_products,
    mc_mean_and_se,
    nearest_distance_pdf,
    oracle_rho_u,
    sample_nearest_distance,
    sample_second_nearest_distance,
    second_nearest_distance_pdf,
)

TABLE = SystemParams()
MEAN_LINK_DISTANCE = 0.5 / math.sqrt(TABLE.lambda_b)  # 7.071 m


def field_densities(params):
    """(DL-BS, UL-terminal) interferer densities: a pair serves one active
    link, so of the pair density 0.5*lambda_b a fraction delta transmits in
    DL and 1-delta in UL."""
    return 0.5 * params.delta * params.lambda_b, 0.5 * (1.0 - params.delta) * params.lambda_b


def dl_functionals(r, params, densities=None):
    """Laplace functionals of the two DL-side fields at the typical terminal,
    exp(-2 pi lambda tail), at serving distance r: DL-BS interferers are
    excluded within r, UL-terminal interferers are not excluded at all."""
    lam_psi, lam_phi = densities or field_densities(params)
    tail_bs = interference_tail_integral(1.0, params.beta_d, r, params.alpha, r)
    tail_ue = interference_tail_integral(
        params.p_m / params.p_b, params.beta_d, r, params.alpha, 0.0
    )
    return (
        math.exp(-2 * math.pi * lam_psi * tail_bs),
        math.exp(-2 * math.pi * lam_phi * tail_ue),
    )


def ul_functionals(r, t, params, densities=None):
    """Laplace functionals of the two UL-side fields at the serving BS at
    distance r: DL-BS interferers (power ratio p_b/p_m) are excluded within
    the partner distance t, UL terminals within r."""
    lam_psi, lam_phi = densities or field_densities(params)
    tail_bs = interference_tail_integral(
        params.p_b / params.p_m, params.beta_u, r, params.alpha, t
    )
    tail_ue = interference_tail_integral(1.0, params.beta_u, r, params.alpha, r)
    return (
        math.exp(-2 * math.pi * lam_psi * tail_bs),
        math.exp(-2 * math.pi * lam_phi * tail_ue),
    )


def ul_dl_bs_functional(r, params, densities=None):
    """DL-BS functional at the serving BS averaged over the partner distance
    t, which follows the second-nearest law: the nested inner integral over
    the exclusion radius, taken to infinity in v = pi lambda t^2 (law
    v exp(-v) dv), so that it holds at any density."""
    scale = 1.0 / math.sqrt(math.pi * params.lambda_b)
    value, _ = quad(
        lambda v: ul_functionals(r, scale * math.sqrt(v), params, densities)[0]
        * v * math.exp(-v),
        0.0, np.inf, epsabs=1e-14, epsrel=1e-11, limit=200,
    )
    return value


def nested_success_probabilities(params, densities=None):
    """(rho_u, rho_d) as nested integrals, serving distance r outside (over
    its distance law) and partner distance t inside, untruncated, with the
    noise factor exp(-beta r^alpha sigma^2 / P): an independent reference
    for the package's Gamma-integral forms."""
    lam, alpha = params.lambda_b, params.alpha

    def noise(beta, power, r):
        return math.exp(-beta * r**alpha / power * params.noise_power)

    def ul(r):
        _, ue = ul_functionals(r, r, params, densities)
        return (ul_dl_bs_functional(r, params, densities) * ue
                * noise(params.beta_u, params.p_m, r) * nearest_distance_pdf(r, lam))

    def dl(r):
        bs, ue = dl_functionals(r, params, densities)
        return bs * ue * noise(params.beta_d, params.p_b, r) * second_nearest_distance_pdf(r, lam)

    opts = dict(epsabs=1e-14, epsrel=1e-10, limit=200)
    return quad(ul, 0.0, np.inf, **opts)[0], quad(dl, 0.0, np.inf, **opts)[0]


class TestDensities:
    """The interfering fields' densities, checked through the success
    probabilities against nested references with the densities as literals."""

    def test_from_params(self):
        want_u, want_d = nested_success_probabilities(TABLE, (0.5 * 0.5 * 0.005, 0.5 * 0.5 * 0.005))
        assert ul_success_probability(TABLE) == pytest.approx(want_u, rel=1e-8, abs=0.0)
        assert dl_success_probability(TABLE) == pytest.approx(want_d, rel=1e-8, abs=0.0)

    def test_traffic_split(self):
        p = replace(TABLE, delta=0.8)
        want_u, want_d = nested_success_probabilities(p, (0.002, 0.0005))
        assert ul_success_probability(p) == pytest.approx(want_u, rel=1e-8, abs=0.0)
        assert dl_success_probability(p) == pytest.approx(want_d, rel=1e-8, abs=0.0)


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


    def test_cdfs_are_one_at_infinity(self):
        # an empty window's missing distances are +inf in validate's KS tests
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cdf in (nearest_distance_cdf, second_nearest_distance_cdf):
                assert cdf(np.inf, 0.005) == 1.0
                assert cdf(np.array([0.0, np.inf]), 0.005).tolist() == [0.0, 1.0]


class TestLaplaceLimits:
    def test_zero_threshold_is_transparent(self):
        p = replace(TABLE, beta_u=1e-15, beta_d=1e-15)
        r = MEAN_LINK_DISTANCE
        assert ul_dl_bs_functional(r, p) == pytest.approx(1.0, abs=1e-6)
        assert ul_functionals(r, r, p)[1] == pytest.approx(1.0, abs=1e-6)
        dl_bs, dl_ue = dl_functionals(r, p)
        assert dl_bs == pytest.approx(1.0, abs=1e-6)
        assert dl_ue == pytest.approx(1.0, abs=1e-6)

    def test_empty_field_is_transparent(self):
        p = replace(TABLE, lambda_b=1e-12)
        assert ul_dl_bs_functional(5.0, p) == pytest.approx(1.0, abs=1e-5)

    def test_all_downlink_silences_ul_terminals(self):
        p = replace(TABLE, delta=1.0 - 1e-12)
        assert ul_functionals(MEAN_LINK_DISTANCE, MEAN_LINK_DISTANCE, p)[1] == pytest.approx(
            1.0, abs=1e-9
        )

    def test_all_uplink_silences_dl_stations(self):
        p = replace(TABLE, delta=1e-12)
        assert ul_dl_bs_functional(MEAN_LINK_DISTANCE, p) == pytest.approx(1.0, abs=1e-9)

    def test_outputs_in_unit_interval_and_monotone(self):
        r = MEAN_LINK_DISTANCE
        values = (ul_dl_bs_functional(r, TABLE), ul_functionals(r, r, TABLE)[1],
                  *dl_functionals(r, TABLE))
        for v in values:
            assert 0.0 < v <= 1.0
        # non-increasing in the threshold
        lo = ul_functionals(r, r, replace(TABLE, beta_u=2.0))[1]
        assert lo < ul_functionals(r, r, TABLE)[1]


class TestUlTerminalFunctionalClosedForm:
    def test_arctan_form(self):
        # kappa = 1, alpha = 4: exponent is
        # -2 pi lam_phi (r^2 sqrt(beta)/2)(pi/2 - arctan(1/sqrt(beta)))
        lam_phi = 0.5 * 0.5 * 0.005
        for beta_u in (0.5, 1.0, 3.0):
            p = replace(TABLE, beta_u=beta_u)
            sb = math.sqrt(beta_u)
            tail = (sb / 2) * (math.pi / 2 - math.atan(1.0 / sb))  # at r = 1
            for r in (3.0, 7.0, 12.0):
                want = math.exp(-2 * math.pi * lam_phi * r * r * tail)
                assert ul_functionals(r, r, p)[1] == pytest.approx(want, rel=1e-12, abs=0.0)
            # with the DL stations silenced, rho_u = int w 2/(b0 + w)^3 dw = 1/b0,
            # b0 = 1 + (1-delta) tail
            quiet = replace(p, p_b=1e-300)
            assert ul_success_probability(quiet) == pytest.approx(
                1.0 / (1.0 + 0.5 * tail), rel=1e-10, abs=0.0
            )


@pytest.mark.slow
class TestFieldOracles:
    """Laplace functionals against direct Poisson-field realizations."""

    N_REAL = 40000

    def test_ul_from_dl_bs(self):
        rng = np.random.default_rng(101)
        r = MEAN_LINK_DISTANCE
        lam_psi, _ = field_densities(TABLE)
        c = (TABLE.p_b / TABLE.p_m) * TABLE.beta_u * r**TABLE.alpha
        t = sample_second_nearest_distance(rng, TABLE.lambda_b, self.N_REAL)
        logs = field_log_products(
            rng, lam_psi, t, np.full(self.N_REAL, c), TABLE.alpha
        )
        mean, se = mc_mean_and_se(np.exp(logs))
        got = ul_dl_bs_functional(r, TABLE)
        assert abs(got - mean) < max(3 * se, 1e-4)
        assert abs(got - mean) < 0.01

    def test_ul_from_ul_ue(self):
        rng = np.random.default_rng(103)
        r = MEAN_LINK_DISTANCE
        _, lam_phi = field_densities(TABLE)
        c = TABLE.beta_u * r**TABLE.alpha
        logs = field_log_products(
            rng, lam_phi, np.full(self.N_REAL, r), np.full(self.N_REAL, c), TABLE.alpha
        )
        mean, se = mc_mean_and_se(np.exp(logs))
        got = ul_functionals(r, r, TABLE)[1]
        assert abs(got - mean) < max(3 * se, 1e-4)

    def test_dl_functionals(self):
        rng = np.random.default_rng(105)
        r = 10.6
        lam_psi, lam_phi = field_densities(TABLE)
        c_bs = TABLE.beta_d * r**TABLE.alpha
        logs = field_log_products(
            rng, lam_psi, np.full(self.N_REAL, r), np.full(self.N_REAL, c_bs), TABLE.alpha
        )
        mean, se = mc_mean_and_se(np.exp(logs))
        dl_bs, dl_ue = dl_functionals(r, TABLE)
        assert abs(dl_bs - mean) < max(3 * se, 1e-4)

        c_ue = (TABLE.p_m / TABLE.p_b) * TABLE.beta_d * r**TABLE.alpha
        logs = field_log_products(
            rng, lam_phi, np.zeros(self.N_REAL), np.full(self.N_REAL, c_ue), TABLE.alpha
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
        lam_psi, lam_phi = field_densities(TABLE)
        r = sample_nearest_distance(rng, TABLE.lambda_b, self.N_REAL)
        t = sample_second_nearest_distance(rng, TABLE.lambda_b, self.N_REAL)
        c_psi = (TABLE.p_b / TABLE.p_m) * TABLE.beta_u * r**TABLE.alpha
        c_phi = TABLE.beta_u * r**TABLE.alpha
        logs = field_log_products(rng, lam_psi, t, c_psi, TABLE.alpha)
        logs += field_log_products(rng, lam_phi, r, c_phi, TABLE.alpha)
        mean, se = mc_mean_and_se(np.exp(logs))
        got = ul_success_probability(TABLE)
        assert 0.0 < got < 1.0
        assert abs(got - mean) < max(3 * se, 1e-3)

    def test_dl_success(self):
        rng = np.random.default_rng(109)
        lam_psi, lam_phi = field_densities(TABLE)
        r = sample_second_nearest_distance(rng, TABLE.lambda_b, self.N_REAL)
        c_psi = TABLE.beta_d * r**TABLE.alpha
        c_phi = (TABLE.p_m / TABLE.p_b) * TABLE.beta_d * r**TABLE.alpha
        logs = field_log_products(rng, lam_psi, r, c_psi, TABLE.alpha)
        logs += field_log_products(rng, lam_phi, np.zeros(self.N_REAL), c_phi, TABLE.alpha)
        mean, se = mc_mean_and_se(np.exp(logs))
        got = dl_success_probability(TABLE)
        assert 0.0 < got < 1.0
        assert abs(got - mean) < max(3 * se, 1e-3)


class TestSuccessProbabilityShape:
    def test_zero_threshold_limits(self):
        p = replace(TABLE, beta_u=1e-15, beta_d=1e-15)
        assert ul_success_probability(p) == pytest.approx(1.0, abs=1e-5)
        assert dl_success_probability(p) == pytest.approx(1.0, abs=1e-5)

    def test_monotone_in_threshold(self):
        base = ul_success_probability(TABLE)
        doubled = ul_success_probability(replace(TABLE, beta_u=2.0))
        assert doubled < base

    def test_monotone_in_density(self):
        # Without noise the model is scale-invariant: every distance law and
        # interferer density scales with lambda_b, so both probabilities are
        # independent of it (monotone only in the weak sense, with equality).
        base = ul_success_probability(TABLE)
        base_d = dl_success_probability(TABLE)
        for lam in (0.0025, 0.01, 0.02):
            p = replace(TABLE, lambda_b=lam)
            assert ul_success_probability(p) == pytest.approx(base, rel=1e-12, abs=0.0)
            assert dl_success_probability(p) == pytest.approx(base_d, rel=1e-12, abs=0.0)

    def test_silent_terminals_help_dl(self):
        base = dl_success_probability(TABLE)
        quiet = dl_success_probability(replace(TABLE, p_m=1e-12))
        assert quiet > base
        # with terminals silenced, only the BS field attenuates
        want, _ = quad(
            lambda r: dl_functionals(r, TABLE)[0]
            * second_nearest_distance_pdf(r, TABLE.lambda_b),
            0.0, np.inf, epsabs=1e-14, epsrel=1e-11,
        )
        # (p_m = 1e-12 leaves a terminal-field term of about 1e-7)
        assert quiet == pytest.approx(want, abs=1e-6)

    def test_noise_factor_negligible_at_table_powers(self):
        thermal = replace(TABLE, noise_power=dbm_to_watts(THERMAL_NOISE_DBM))
        plain = ul_success_probability(TABLE)
        noisy = ul_success_probability(thermal)
        assert abs(plain - noisy) < 1e-10
        plain_d = dl_success_probability(TABLE)
        noisy_d = dl_success_probability(thermal)
        assert abs(plain_d - noisy_d) < 1e-10

    def test_table_values_pinned(self):
        # frozen reference values of the analytic model at the standard
        # parameter table (regression anchors, cross-checked by the field
        # oracles above)
        assert ul_success_probability(TABLE) == pytest.approx(0.2615106, abs=2e-6)
        assert dl_success_probability(TABLE) == pytest.approx(0.8353827, abs=2e-6)


class TestNoise:
    # -30 dBm noise and a 10 dBm BS: noise lowers rho_u by ~5% and rho_d by ~18%
    NOISY = replace(TABLE, noise_power=dbm_to_watts(-30.0), p_b=dbm_to_watts(10.0))

    def test_noise_on_against_nested_reference(self):
        want_u, want_d = nested_success_probabilities(self.NOISY)
        got_u = ul_success_probability(self.NOISY)
        got_d = dl_success_probability(self.NOISY)
        assert got_u == pytest.approx(want_u, rel=1e-7, abs=0.0)
        assert got_d == pytest.approx(want_d, rel=1e-7, abs=0.0)
        # the configuration is one where noise matters
        quiet = replace(self.NOISY, noise_power=0.0)
        assert got_u < 0.99 * ul_success_probability(quiet)
        assert got_d < 0.99 * dl_success_probability(quiet)

    def test_quadrature_only_where_no_closed_form(self, monkeypatch):
        """Noise off: UL is one quadrature over the partner distance and DL
        none; noise on, the Gamma integral over the serving distance is a
        quadrature too (one for DL, one per partner-distance node for UL)."""
        calls = []
        real = coverage.integrate_finite

        def counted(f, a, b, name):
            calls.append((a, b))
            return real(f, a, b, name)

        monkeypatch.setattr(coverage, "integrate_finite", counted)
        ul_success_probability(TABLE)
        assert len(calls) == 1
        calls.clear()
        dl_success_probability(TABLE)
        assert calls == []
        dl_success_probability(self.NOISY)
        assert len(calls) == 1
        calls.clear()
        ul_success_probability(self.NOISY)
        assert len(calls) > 1


class TestHighPrecisionOracle:
    """Success probabilities at every path-loss exponent of the benchmark's
    analytic grid, noise off, against 30-digit mpmath values copied from
    perfbench/refs.json (written by `perfbench/make_refs.py analytic`): the
    DL probability in closed form, 1/(1+K)^2 in u = pi lambda r^2; the UL
    probability as a tanh-sinh double integral over the serving and partner
    distances; the interference tail as the 2F1 closed form; no truncation
    of the outer laws.  Parameters are the standard table with alpha and
    beta_u changed."""

    RHO_U = {  # alpha -> {beta_u_db: rho_u}
        2.05: {-5: 0.003599945886739409, 5: 0.00038187221856424917},
        2.2: {-5: 0.018960720098079364, 5: 0.00237080078628998},
        2.5: {-5: 0.06703219332470597, 5: 0.01112784728760678},
        2.7: {-5: 0.10860290705484316, 5: 0.021211312798699297},
        3.0: {-5: 0.17840971557904653, 5: 0.04308055370830324},
        3.5: {-5: 0.2967281942604785, 5: 0.09522275802901925},
        4.0: {-5: 0.40175375970172333, 5: 0.15999534921724473},
        5.0: {-5: 0.5575005972107241, 5: 0.29656150293270755},
        6.0: {-5: 0.6567488373565838, 5: 0.4152856158607587},
    }
    RHO_D = {  # alpha -> rho_d (independent of beta_u)
        2.05: 0.05728656026880078,
        2.2: 0.31346343263740967,
        2.5: 0.5803921674694427,
        2.7: 0.6668740425513441,
        3.0: 0.7425286989955456,
        3.5: 0.8056689820226471,
        4.0: 0.8353827392161778,
        5.0: 0.8565765819351454,
        6.0: 0.8578060506647491,
    }

    @pytest.mark.parametrize("alpha", sorted(RHO_D))
    def test_ul_and_dl(self, alpha):
        pytest.importorskip("mpmath")  # skipped with the other mpmath oracle tests
        for beta_u_db, want in self.RHO_U[alpha].items():
            p = replace(TABLE, alpha=alpha, beta_u=db_to_linear(beta_u_db))
            got = ul_success_probability(p)
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        got_d = dl_success_probability(replace(TABLE, alpha=alpha))
        assert math.isfinite(got_d)
        assert got_d == pytest.approx(self.RHO_D[alpha], rel=1e-10, abs=0.0)


class TestOracleAtQuadratureCorners:
    """UL configurations where QUADPACK exhausts its subdivisions if it is
    also given an absolute tolerance of 1e-12, and converges with a relative
    one only.  The values are 30-digit mpmath results of
    ``helpers.oracle_rho_u`` (alpha, beta_u_db, delta, kappa), copied here
    because each takes up to a minute; a slow test recomputes one.  The
    standard table holds otherwise; p_m_dbm = -30 makes kappa 1e7."""

    @pytest.mark.parametrize("alpha, beta_u_db, delta, p_m_dbm, want", [
        (2.0001, 0.0, 0.999999999, 20.0, 1.0006899908726924766e-6),
        (2.05, 20.0, 0.01, -30.0, 8.337339959007502698e-9),
        (4.0, 80.0, 0.99, -30.0, 6.7818318310360384798e-8),
    ])
    def test_ul(self, alpha, beta_u_db, delta, p_m_dbm, want):
        p = replace(TABLE, alpha=alpha, beta_u=db_to_linear(beta_u_db), delta=delta,
                    p_m=dbm_to_watts(p_m_dbm))
        assert ul_success_probability(p) == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.slow
    def test_copied_value_is_the_oracle(self):
        pytest.importorskip("mpmath")
        # the fastest of the three, about 30 s
        got = oracle_rho_u(4.0, 80.0, 0.99, 1e7)
        assert got == pytest.approx(6.7818318310360384798e-8, rel=1e-12, abs=0.0)
