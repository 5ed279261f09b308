import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from dudasim import montecarlo
from dudasim.deployment import Deployment, RngStream, generate_deployment, seed_words
from dudasim.latency import latency_duca, latency_duda
from dudasim.montecarlo import (
    TrialConfig,
    cluster_se,
    draw_attempts,
    latency_samples,
    realize,
    run_campaign,
    run_synthetic_campaign,
    samples_csv,
    success_probabilities,
)
from dudasim.params import THERMAL_NOISE_DBM, LinkSuccess, SlotTiming, SystemParams, dbm_to_watts

from helpers import deploy, deploy_guarded, reference_probe_probs, reference_synthetic_campaign

# the standard table with thermal noise on, as `noise = on` sets it
TABLE = SystemParams(noise_power=dbm_to_watts(THERMAL_NOISE_DBM))
QUIET = replace(TABLE, noise_power=0.0)


class MidpointRng:
    """Stand-in for a Generator whose uniforms sit mid-range."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.full(size, 0.5 * (low + high))


def one_probe(bs_positions, units, active_dl, ues, probe_ue=(0.0, 0.0), probe_unit=0):
    """A deployment whose one probe, at ``probe_ue``, is served on the UL by
    the first station of unit ``probe_unit``, with nothing masked."""
    return Deployment(
        bs_positions=np.asarray(bs_positions, dtype=float), units=np.asarray(units),
        active_dl=np.asarray(active_dl), ues=np.asarray(ues, dtype=float),
        probe_bs=np.array([units[probe_unit][0]]), probe_units=np.array([probe_unit]),
        probe_ues=np.array([probe_ue], dtype=float), anchors=np.zeros((1, 2)),
        mask_half_width=math.inf,
    )


def probe_probs(dep, params, direction_redraw=False):
    """(p_ul, p_dl, p_retry) of a one-probe deployment."""
    return tuple(success_probabilities(dep, params, direction_redraw)[:, 0].tolist())


def isolated_pair_deployment(scheme="duda"):
    """Two cooperating stations, no interferers: the probe pair alone."""
    if scheme == "duda":
        return one_probe([[5.0, 0.0], [12.0, 0.0]], [[0, 1]], [False], [[8.0, 0.0]])
    return one_probe([[5.0, 0.0]], [[0, 0]], [False], [[5.0, 1.0]])


def with_interferer(dep, bs, ue, active_dl):
    """The duda deployment plus one interfering pair: a far UL member, its
    DL member at ``bs`` and its terminal at ``ue``."""
    n = len(dep.bs_positions)
    return replace(
        dep,
        bs_positions=np.vstack([dep.bs_positions, [[500.0, 500.0], bs]]),
        units=np.vstack([dep.units, [[n, n + 1]]]),
        active_dl=np.append(dep.active_dl, active_dl),
        ues=np.vstack([dep.ues, [ue]]),
    )


def gain(power, tx, rx, alpha=4.0):
    return power * float(np.linalg.norm(np.asarray(tx) - np.asarray(rx))) ** (-alpha)


def brute_force(dep, params, rng, draws, redraw=False, chunk=10_000):
    """Pass frequencies of UL, DL, and both in a retry of the first probe of
    an unmasked deployment, from per-attempt exponential fading on every
    link; with ``redraw`` each attempt draws every unit's direction afresh,
    shared by its UL and DL phases.  Returns [(hits, draws)] for p_ul, p_dl
    and p_retry."""
    probe = dep.probe_units[0]
    units = [
        (dep.bs_positions[dl], dep.ues[g], dep.active_dl[g])
        for g, (_, dl) in enumerate(dep.units.tolist()) if g != probe
    ]
    ul_bs = dep.probe_bs[0]
    dl_bs = dep.units[probe].sum() - ul_bs
    ue = dep.probe_ues[0]
    rx_ul, rx_dl = dep.bs_positions[ul_bs], ue
    a = params.alpha
    bs_ul = np.array([gain(params.p_b, b, rx_ul, a) for b, _, _ in units])
    ue_ul = np.array([gain(params.p_m, u, rx_ul, a) for _, u, _ in units])
    bs_dl = np.array([gain(params.p_b, b, rx_dl, a) for b, _, _ in units])
    ue_dl = np.array([gain(params.p_m, u, rx_dl, a) for _, u, _ in units])
    own = np.array([act for _, _, act in units], dtype=bool)
    s_ul = gain(params.p_m, ue, rx_ul, a)
    s_dl = gain(params.p_b, dep.bs_positions[dl_bs], rx_dl, a)
    hits = np.zeros(3, dtype=np.int64)
    for lo in range(0, draws, chunk):
        m = min(chunk, draws - lo)
        bits = rng.uniform(size=(m, len(units))) < params.delta if redraw else own

        def passes(s, beta, bs, ue):
            itf = (rng.exponential(size=(m, len(units))) * np.where(bits, bs, ue)).sum(axis=1)
            return s * rng.exponential(size=m) >= beta * (params.noise_power + itf)

        ul = passes(s_ul, params.beta_u, bs_ul, ue_ul)
        dl = passes(s_dl, params.beta_d, bs_dl, ue_dl)
        hits += [ul.sum(), dl.sum(), (ul & dl).sum()]
    return hits / draws


class TestSuccessProbabilities:
    def test_constructed_equality(self):
        # noise equal to the received UL power over the UL threshold: the
        # UL pass probability is exactly exp(-1)
        dep = isolated_pair_deployment()
        s_ul = gain(TABLE.p_m, [0.0, 0.0], [5.0, 0.0])
        p_ul, p_dl, p_retry = probe_probs(
            dep, replace(TABLE, noise_power=s_ul / TABLE.beta_u)
        )
        assert p_ul == pytest.approx(math.exp(-1.0), rel=1e-12)
        s_dl = gain(TABLE.p_b, [0.0, 0.0], [12.0, 0.0])
        assert p_dl == pytest.approx(math.exp(-TABLE.beta_d * s_ul / TABLE.beta_u / s_dl), rel=1e-12)
        assert p_retry == p_ul * p_dl

    def test_isolated_pair_no_interferer(self):
        for scheme in ("duda", "duca"):
            dep = isolated_pair_deployment(scheme)
            assert probe_probs(dep, QUIET) == (1.0, 1.0, 1.0)
            assert probe_probs(dep, QUIET, direction_redraw=True) == (1.0, 1.0, 1.0)
            p_ul, p_dl, _ = probe_probs(dep, TABLE)
            r_dl = 12.0 if scheme == "duda" else 5.0
            want_ul = math.exp(-TABLE.beta_u * TABLE.noise_power / gain(TABLE.p_m, [0, 0], [5, 0]))
            want_dl = math.exp(-TABLE.beta_d * TABLE.noise_power / gain(TABLE.p_b, [0, 0], [r_dl, 0]))
            assert p_ul == pytest.approx(want_ul, rel=1e-12)
            assert p_dl == pytest.approx(want_dl, rel=1e-12)

    def test_symmetric_interferer(self):
        # an interfering terminal with the probe terminal's power and
        # distance: SIR 1, so P(pass) = 1/(1 + beta_u)
        dep = with_interferer(isolated_pair_deployment(), [0.0, 300.0], [10.0, 0.0], False)
        p_ul, _, _ = probe_probs(dep, replace(QUIET, beta_u=2.0))
        assert p_ul == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_hand_example(self):
        # 0.1 W at sqrt(50) m against a 10 W station at 30 m: SIR 3.24
        dep = with_interferer(
            replace(isolated_pair_deployment(), probe_ues=np.array([[10.0, 5.0]])),
            [35.0, 0.0], [400.0, 0.0], True,
        )
        p_ul, _, _ = probe_probs(dep, replace(QUIET, beta_u=1.62))
        assert p_ul == pytest.approx(1.0 / 1.5, rel=1e-12)

    def test_one_interferer(self):
        # each direction of the unit, and the retry mixture over both
        base = isolated_pair_deployment()
        bs, ue, delta = [20.0, 10.0], [-3.0, 8.0], 0.3
        params = replace(TABLE, delta=delta)
        s_ul = gain(params.p_m, [0, 0], [5, 0])
        s_dl = gain(params.p_b, [0, 0], [12, 0])

        def f(beta, c, s):
            return 1.0 / (1.0 + beta * c / s)

        f_ul_b = f(params.beta_u, gain(params.p_b, bs, [5, 0]), s_ul)
        f_ul_u = f(params.beta_u, gain(params.p_m, ue, [5, 0]), s_ul)
        f_dl_b = f(params.beta_d, gain(params.p_b, bs, [0, 0]), s_dl)
        f_dl_u = f(params.beta_d, gain(params.p_m, ue, [0, 0]), s_dl)
        noise_ul = math.exp(-params.noise_power * params.beta_u / s_ul)
        noise_dl = math.exp(-params.noise_power * params.beta_d / s_dl)
        noise = noise_ul * noise_dl
        for active_dl, (f_ul, f_dl) in ((True, (f_ul_b, f_dl_b)), (False, (f_ul_u, f_dl_u))):
            dep = with_interferer(base, bs, ue, active_dl)
            p_ul, p_dl, p_retry = probe_probs(dep, params)
            assert p_ul == pytest.approx(noise_ul * f_ul, rel=1e-12)
            assert p_dl == pytest.approx(noise_dl * f_dl, rel=1e-12)
            assert p_retry == p_ul * p_dl
            _, _, shared = probe_probs(dep, params, direction_redraw=True)
            want = noise * (delta * f_ul_b * f_dl_b + (1 - delta) * f_ul_u * f_dl_u)
            assert shared == pytest.approx(want, rel=1e-12)

    def test_retry_directions_are_shared_by_both_phases(self):
        # the interferer's station sits next to the probe terminal (kills the
        # DL when it transmits) and its terminal next to the serving station
        # (kills the UL when it transmits): every retry fails one direction,
        # while the product of the per-direction mixtures is delta*(1-delta)
        delta = 0.3
        params = replace(QUIET, delta=delta, beta_u=1e-4, beta_d=1.0)
        base = replace(
            isolated_pair_deployment(), bs_positions=np.array([[1.0, 0.0], [-1.0, 0.0]])
        )
        dep = with_interferer(base, [0.0, 0.1], [1.0, 0.01], True)
        p_ul_b, p_dl_b, shared = probe_probs(dep, params, direction_redraw=True)
        p_ul_u, p_dl_u, _ = probe_probs(
            with_interferer(base, [0.0, 0.1], [1.0, 0.01], False), params
        )
        marginals = (delta * p_ul_b + (1 - delta) * p_ul_u) * (delta * p_dl_b + (1 - delta) * p_dl_u)
        assert shared < 1e-3
        assert marginals == pytest.approx(delta * (1 - delta), rel=0.03)

    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_matches_brute_force_fading(self, scheme):
        draws = 40_000
        rng = np.random.default_rng([7, scheme == "duca"])
        for it in range(3):
            dep, _ = deploy(
                TABLE.lambda_b, TABLE.delta, 75.0, RngStream(91, it), scheme=scheme
            )
            p_ul, p_dl, p_retry = probe_probs(dep, TABLE)
            _, _, shared = probe_probs(dep, TABLE, direction_redraw=True)
            freq = brute_force(dep, TABLE, rng, draws)
            freq_redraw = brute_force(dep, TABLE, rng, draws, redraw=True)
            for name, got, want in (
                ("p_ul", freq[0], p_ul), ("p_dl", freq[1], p_dl),
                ("p_retry", freq[2], p_retry), ("p_retry redraw", freq_redraw[2], shared),
            ):
                # a one-count floor: the normal bound misleads at p near 0
                se = math.sqrt(max(want * (1 - want), 1.0 / draws) / draws)
                assert abs(got - want) <= 4 * se, f"{scheme} #{it} {name}: {got} vs {want}"


class TestMaskedProbes:
    """The guarded deployments of the campaigns: probe k hears every other
    unit's transmitter inside its mask, and nothing of its own unit."""

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_mask_equals_moving_unheard_transmitters_away(self, scheme, mode):
        # an unmasked one-probe deployment whose unheard transmitters sit
        # 1e12 m away, where they deliver nothing a double can hold
        params = replace(TABLE, delta=0.4)
        for it in range(3):
            dep = deploy_guarded(TABLE.lambda_b, 0.4, 75.0, RngStream(95, it), scheme, mode)
            got = success_probabilities(dep, params, direction_redraw=True)
            for k in range(0, len(dep.probe_bs), 5):
                g = dep.probe_units[k]
                far = np.array([1e12, 1e12])
                bs, ues = dep.bs_positions.copy(), dep.ues.copy()
                for h, (_, dl) in enumerate(dep.units.tolist()):
                    if h == g:
                        continue
                    if np.abs(bs[dl] - dep.anchors[k]).max() > 75.0:
                        bs[dl] = far
                    if np.abs(ues[h] - dep.anchors[k]).max() > 75.0:
                        ues[h] = far
                units = dep.units.copy()
                units[g] = [dep.probe_bs[k], units[g].sum() - dep.probe_bs[k]]
                want = probe_probs(one_probe(bs, units, dep.active_dl, ues,
                                             dep.probe_ues[k], g), params, True)
                assert got[:, k] == pytest.approx(want, rel=1e-12, abs=1e-300)
                assert got[:2, k] == pytest.approx(reference_probe_probs(dep, params, k),
                                                   rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_default_path_matches_reference(self, scheme, mode):
        # the campaigns' own path: lean deployments, no direction_redraw
        for lam, count in ((0.005, 4), (0.01, 2)):
            params = replace(TABLE, lambda_b=lam)
            for it in range(count):
                dep = deploy_guarded(lam, TABLE.delta, 75.0, RngStream(96, it), scheme, mode,
                                     all_terminals=False)
                got = success_probabilities(dep, params)
                assert np.array_equal(got[2], got[0] * got[1])
                for k in range(len(dep.probe_bs)):
                    assert got[:2, k] == pytest.approx(reference_probe_probs(dep, params, k),
                                                       rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_silent_terminals_are_not_heard(self, scheme, mode):
        # without direction_redraw a DL-active unit's terminal only receives:
        # blanking it, or moving it 1e-3 m from a probe's UL or DL receiver,
        # changes no bit of any probe
        for it in range(2):
            dep = deploy_guarded(TABLE.lambda_b, TABLE.delta, 75.0, RngStream(97, it), scheme,
                                 mode)
            want = success_probabilities(dep, TABLE)
            silent = dep.active_dl
            near = [dep.bs_positions[dep.probe_bs[0]], dep.probe_ues[-1]]
            for spot in [np.full(2, np.nan)] + near:
                ues = dep.ues.copy()
                ues[silent] = spot + [1e-3, 0.0]
                got = success_probabilities(replace(dep, ues=ues), TABLE)
                assert np.array_equal(got, want)


class TestPalmEstimand:
    """Many probes per guarded realization estimate what one probe at the
    origin does: mean p_ul and p_dl of the campaigns' realization stage
    against draws of one probe at the origin of the unguarded window, for
    both schemes, directions and typical modes at lambda_b 0.005.  The
    one-probe side is evaluated by ``helpers.reference_probe_probs``, so a
    fault of the kernel shows as well as one of the guarded draws.

    Eight z-scores, each with the cluster-robust SE over realizations of the
    many-probe mean and the i.i.d. SE of the one-probe mean.  At |z| <= 4
    each, the false-alarm rate is at most 8 x 6.3e-5 = 5.1e-4 per run under
    normality.  Two planted mutants fail it: the probe's own unit left
    interfering, and probes uniform in the whole window with no guard."""

    N_MULTI, N_SINGLE = 16000, 8000

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", ["dl", "ul"])
    def test_multi_probe_matches_origin_probe(self, mode):
        params, schemes = SystemParams(), ("duda", "duca")
        multi = realize(TrialConfig(params=params, iterations=self.N_MULTI, seed=2101,
                                    typical_mode=mode), schemes)
        single = {s: np.empty((3, self.N_SINGLE)) for s in schemes}
        for it in range(self.N_SINGLE):
            for s in schemes:
                dep, _ = deploy(params.lambda_b, params.delta, 75.0, RngStream(2102, it), s,
                                mode, all_terminals=False)
                single[s][:2, it] = reference_probe_probs(dep, params)
        z = {}
        for s in schemes:
            r = multi[s]
            for d, name in enumerate(("p_ul", "p_dl")):
                one = single[s][d]
                se = math.hypot(cluster_se(r.probs[d], r.clusters),
                                one.std() / math.sqrt(len(one)))
                z[s, name] = (r.probs[d].mean() - one.mean()) / se
        print(mode, {k: round(v, 2) for k, v in z.items()})
        assert max(map(abs, z.values())) <= 4.0, z


class TestSkipRule:
    """A realization that gives a scheme no usable probe adds no trials to
    it and leaves the other scheme's realizations as they are."""

    def test_unmatched_realizations_add_no_trials(self, monkeypatch):
        from dudasim import deployment

        pair_bs = deployment.pair_bs

        def odd_only(points, indptr, indices, gen):
            # the matching's generator is stream (seed, r)'s draw 0
            _, r, _ = gen.bit_generator.seed_seq.entropy.tolist()
            pairs, unpaired = pair_bs(points, indptr, indices, gen)
            if r % 2:
                return pairs, unpaired
            return np.empty((0, 2), dtype=int), np.arange(len(points))

        cfg = TrialConfig(iterations=100, seed=53)
        plain = realize(cfg, ("duda", "duca"))
        more = realize(replace(cfg, iterations=300), ("duda",))["duda"]
        monkeypatch.setattr(deployment, "pair_bs", odd_only)
        patched = realize(cfg, ("duda", "duca"))
        duda = patched["duda"]
        assert duda.error is None
        assert (duda.clusters % 2 == 1).all()
        assert len(np.unique(duda.clusters)) >= 2
        # the same probes, in order, as the odd realizations of a plain run
        assert more.clusters.max() >= duda.clusters.max()
        odd = more.clusters % 2 == 1
        assert np.array_equal(more.clusters[odd][:100], duda.clusters)
        assert np.array_equal(more.probs[:, odd][:, :100], duda.probs)
        duca, alone = patched["duca"], plain["duca"]
        assert duca.probs.tobytes() == alone.probs.tobytes()
        assert duca.clusters.tobytes() == alone.clusters.tobytes()
        assert (duca.key, duca.error) == (alone.key, None)


class TestKernel:
    def test_zero_retry_probability_censors(self):
        attempts, censored, ul, dl = draw_attempts(
            np.array([0.0, 0.0, 1.0]), np.ones(3), np.array([0.0, 1.0, 0.0]), 5,
            np.random.default_rng(0),
        )
        assert attempts.tolist() == [5, 2, 1]
        assert censored.tolist() == [True, False, False]
        assert ul.tolist() == [False, False, True]
        assert dl.all()

    def test_single_attempt_cap(self):
        p = np.array([0.0, 1.0, 0.5, 0.5])
        attempts, censored, ul, dl = draw_attempts(p, np.ones(4), 1.0, 1, np.random.default_rng(1))
        assert np.all(attempts == 1)
        assert np.array_equal(censored, ~ul)

    def test_certain_success(self):
        attempts, censored, ul, dl = draw_attempts(
            np.ones(1000), np.ones(1000), 0.0, 10, np.random.default_rng(2)
        )
        assert np.all(attempts == 1)
        assert not censored.any()
        assert ul.all() and dl.all()

    def test_geometric_retries(self):
        n, p, cap = 40_000, 0.3, 6
        attempts, censored, _, _ = draw_attempts(
            np.zeros(n), np.ones(n), p, cap, np.random.default_rng(3)
        )
        for k in range(1, cap):
            surv = float(np.mean(attempts > k))
            want = (1 - p) ** (k - 1)
            assert abs(surv - want) <= 4 * math.sqrt(want * (1 - want) / n)
        assert np.all(attempts[censored] == cap)
        want = (1 - p) ** (cap - 1)  # still failing after the first attempt and cap - 1 retries
        assert abs(censored.mean() - want) <= 4 * math.sqrt(want * (1 - want) / n)


class TestTrial:
    def test_guaranteed_first_attempt(self):
        # zero-ish thresholds: success on attempt 1, latency s_u + s_d
        params = replace(TABLE, beta_u=1e-15, beta_d=1e-15)
        dep, _ = deploy(TABLE.lambda_b, TABLE.delta, 75.0, RngStream(1, 0))
        assert success_probabilities(dep, params).min() > 1.0 - 1e-9
        st = run_campaign(TrialConfig(params=params, timing=SlotTiming(), iterations=20))
        assert np.all(st.attempts == 1)
        assert not st.censored.any()
        assert np.allclose(st.samples, 1.0)

    def test_scripted_alternating_pattern(self):
        # fail (UL), then succeed: attempts = 2,
        # latency = (s_u + w) + s_u + s_d
        attempts, censored, ul, dl = draw_attempts(
            np.zeros(1), np.ones(1), 1.0, 1000, np.random.default_rng(0)
        )
        assert attempts.tolist() == [2]
        assert not censored[0]
        assert not ul[0]
        assert dl[0]
        lat = latency_samples(SlotTiming(), "duda", attempts, np.random.default_rng(0))
        assert lat[0] == pytest.approx((0.5 + 1.0) + 0.5 + 0.5)

    def test_scripted_duca_latency_uses_frame_offset(self):
        lat = latency_samples(SlotTiming(), "duca", np.array([2, 1]), MidpointRng())
        # the frame offset sits at the midpoint: t = 1.0
        t = 1.0
        lp = (1.0 - t) * 0.5 + (3.0 - t) * 0.25
        assert lat[0] == pytest.approx(lp + (2 - 1) * 2.0 + 1.0 + 0.5)
        assert lat[1] == pytest.approx(lp + 1.0 + 0.5)

    def test_censoring_at_cap(self):
        # a hopeless threshold: every trial of either attempt model runs to the cap
        params = replace(TABLE, beta_u=1e12)
        for model in ("independent", "fixed"):
            cfg = TrialConfig(params=params, iterations=30, max_attempts=3, attempt_model=model)
            st = run_campaign(cfg)
            assert np.all(st.attempts == 3)
            assert st.censored.all()
            assert np.allclose(st.samples, 2 * (0.5 + 1.0) + 0.5 + 0.5)

    def test_scheme_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(scheme="dudu")
        with pytest.raises(ValueError):
            TrialConfig(attempt_model="frozen")
        assert run_campaign(TrialConfig(scheme="duca", iterations=2)).scheme == "duca"


class TestCampaign:
    def test_single_iteration_reproducible(self):
        cfg = TrialConfig(iterations=1, seed=77, scheme="duda")
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a.samples[0] == b.samples[0]
        assert a.attempts[0] == b.attempts[0]
        assert a.empirical_rho_u == b.empirical_rho_u

    def test_full_campaign_deterministic(self):
        cfg = TrialConfig(iterations=200, seed=5, scheme="duda")
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.attempts, b.attempts)
        assert samples_csv(a) == samples_csv(b)

    def test_stats_fields(self):
        cfg = TrialConfig(iterations=300, seed=8, scheme="duda")
        st = run_campaign(cfg)
        assert st.mean == pytest.approx(float(np.mean(st.samples)))
        assert st.censored_count <= cfg.iterations
        assert 0.0 <= st.empirical_rho_u <= 1.0
        assert 0.0 <= st.empirical_rho_d <= 1.0
        assert len(st.samples) == cfg.iterations
        assert st.censored_count == 0  # independent attempts at these rates

    @pytest.mark.slow
    def test_geometric_attempt_distribution(self):
        # given the realizations, trials are independent and both sides
        # estimate (1 - p_retry)^k, so the binomial errors hold.  Five
        # Bonferroni bounds at 3.72 SE: at most 1e-3 false alarms per run
        # under normality.  Retries at 0.8 p_retry fail it.
        cfg = TrialConfig(iterations=10000, seed=13, scheme="duda")
        st = run_campaign(cfg)
        n = cfg.iterations
        p_hat = st.empirical_rho_u * st.empirical_rho_d
        se_u = math.sqrt(st.empirical_rho_u * (1 - st.empirical_rho_u) / n)
        se_d = math.sqrt(st.empirical_rho_d * (1 - st.empirical_rho_d) / n)
        for k in range(1, 6):
            surv = float(np.mean(st.attempts > k))
            want = (1.0 - p_hat) ** k
            se_surv = math.sqrt(max(surv * (1 - surv), 1e-9) / n)
            # delta-method noise of the plug-in (1-p)^k
            dp = k * (1 - p_hat) ** (k - 1)
            se_want = dp * math.sqrt(
                (st.empirical_rho_d * se_u) ** 2 + (st.empirical_rho_u * se_d) ** 2
            )
            assert abs(surv - want) < 3.72 * math.sqrt(se_surv**2 + se_want**2)

    @pytest.mark.slow
    def test_self_consistency_both_schemes(self):
        # two Bonferroni bounds at 3.29 SE: at most 1e-3 false alarms per run
        # under normality, and less, as the two errors added in quadrature
        # are positively correlated.  Retries at 0.8 p_retry fail it.
        timing = SlotTiming()
        for scheme in ("duda", "duca"):
            cfg = TrialConfig(timing=timing, iterations=8000, seed=21, scheme=scheme)
            st = run_campaign(cfg)
            link = LinkSuccess(st.empirical_rho_u, st.empirical_rho_d)
            form = (
                latency_duda(timing, link) if scheme == "duda" else latency_duca(timing, link)
            ).total
            n = cfg.iterations
            se_mean = float(np.std(st.samples, ddof=1)) / math.sqrt(n)
            cycle = timing.s_u + timing.w if scheme == "duda" else timing.t_d + timing.t_u
            ru, rd = link.rho_u, link.rho_d
            se_form = cycle / (ru * rd) * math.sqrt(
                (1 - ru) / (ru * n) + (1 - rd) / (rd * n)
            )
            tol = 3.29 * math.hypot(se_mean, se_form)
            assert abs(st.mean - form) < tol, f"{scheme}: {st.mean} vs {form} (tol {tol})"

    def test_fixed_attempt_model_is_heavy_tailed(self):
        cfg = TrialConfig(
            iterations=400, seed=31, scheme="duda", attempt_model="fixed", max_attempts=50
        )
        realized = realize(cfg, ("duda",))["duda"]
        st = run_campaign(cfg, realized)
        # a frozen geometry leaves some trials with near-zero conditional
        # success probability; the cap bites visibly
        assert st.censored_count > 10
        # the independent model censors a trial with probability about
        # (1 - p)^50, p the ensemble's retry probability: 0.2 of 400 trials
        # expected at the defaults, so "none" would fail about 18% of correct
        # runs.  A Poisson bound, 1e-4 false alarms per run; independent
        # retries at each trial's own p_retry censor about 200.
        p_retry = realized.probs[0].mean() * realized.probs[1].mean()
        bound = sps.poisson.isf(1e-4, cfg.iterations * (1 - p_retry) ** cfg.max_attempts)
        ind = run_campaign(replace(cfg, attempt_model="independent"), realized)
        assert ind.censored_count <= bound
        assert st.attempts.mean() > ind.attempts.mean()

    def test_direction_redraw_toggle_runs(self):
        cfg = TrialConfig(
            iterations=100, seed=43, scheme="duda",
            attempt_model="fixed", direction_redraw=True, max_attempts=30,
        )
        st = run_campaign(cfg)
        assert len(st.samples) == 100

    def test_realizations_serve_only_their_configuration(self):
        cfg = TrialConfig(iterations=5, seed=9, scheme="duda")
        realized = realize(cfg, ("duda", "duca"))
        # the attempt model (without direction_redraw) and the timing leave
        # the realizations as they are
        fixed = replace(cfg, attempt_model="fixed", timing=SlotTiming(s_u=0.2))
        assert samples_csv(run_campaign(fixed, realized["duda"])) == samples_csv(
            run_campaign(fixed))
        for other in (replace(cfg, seed=10), replace(cfg, scheme="duca"),
                      replace(cfg, attempt_model="fixed", direction_redraw=True)):
            with pytest.raises(ValueError, match="another campaign configuration"):
                run_campaign(other, realized["duda"])

    def test_generation_abandons_hopeless_intensity(self):
        with pytest.raises(RuntimeError):
            deploy(1e-9, 0.5, 10.0, RngStream(0, 0))


class TestTransmittingTerminals:
    """Campaigns without direction_redraw place only the terminals that
    transmit; nothing they compute may change."""

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_lean_deployment_matches_full(self, scheme, mode):
        # one-probe draws, and the guarded many-probe draws of the campaigns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam, count, guarded in ((0.005, 300, False), (0.04, 40, False),
                                        (0.005, 30, True), (0.04, 3, True)):
                params = replace(TABLE, lambda_b=lam)
                for it in range(count):
                    stream = RngStream(48, it)
                    if guarded:
                        full = deploy_guarded(lam, TABLE.delta, 75.0, stream, scheme, mode)
                        lean = deploy_guarded(lam, TABLE.delta, 75.0, stream, scheme, mode,
                                              all_terminals=False)
                        assert isinstance(full, Deployment)
                    else:
                        full, rs_full = deploy(lam, TABLE.delta, 75.0, stream, scheme, mode)
                        lean, rs_lean = deploy(lam, TABLE.delta, 75.0, stream, scheme, mode,
                                               all_terminals=False)
                        assert rs_lean == rs_full
                    # blank rows: exactly the DL-active unmatched stations' terminals
                    blank = np.isnan(lean.ues).any(axis=1)
                    single = full.units[:, 0] == full.units[:, 1]
                    assert np.array_equal(blank, full.active_dl & single)
                    assert not np.isnan(full.ues).any()
                    assert np.array_equal(lean.ues[~blank], full.ues[~blank])
                    for name in ("bs_positions", "units", "active_dl", "probe_bs",
                                 "probe_units", "probe_ues", "anchors"):
                        assert np.array_equal(getattr(lean, name), getattr(full, name)), name
                    for name in ("mask_half_width", "degenerate"):
                        assert getattr(lean, name) == getattr(full, name), name
                    # bit for bit, as each campaign builds its deployments
                    lean_p = success_probabilities(lean, params)
                    assert np.array_equal(lean_p, success_probabilities(full, params))
                    redraw = success_probabilities(full, params, direction_redraw=True)
                    assert np.array_equal(redraw[:2], lean_p[:2])

    @pytest.mark.parametrize("mode", ["dl", "ul"])
    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    def test_redraw_leaves_first_attempts_alone(self, scheme, mode):
        # direction_redraw adds inactive transmitters to p_retry only: p_ul
        # and p_dl come from the same computation, bit for bit
        for lam in (0.0025, 0.01):
            dep = deploy_guarded(lam, TABLE.delta, 75.0, RngStream(50), scheme, mode)
            assert isinstance(dep, Deployment) and not np.isnan(dep.ues).any()
            for alpha in (2.5, 4.0):
                for noise in (0.0, 1e-13):
                    params = replace(TABLE, lambda_b=lam, alpha=alpha, noise_power=noise)
                    off = success_probabilities(dep, params)
                    on = success_probabilities(dep, params, direction_redraw=True)
                    assert np.array_equal(on[:2], off[:2])

    def test_redraw_needs_every_terminal(self):
        # a direction_redraw retry reads every unit's terminal: a NaN one is
        # refused, not taken as unheard
        dep = deploy_guarded(TABLE.lambda_b, TABLE.delta, 75.0, RngStream(4), "duca",
                             all_terminals=False)
        assert np.isnan(dep.ues).any()
        with pytest.raises(ValueError, match="every unit's terminal"):
            success_probabilities(dep, TABLE, direction_redraw=True)

    def test_campaign_places_the_terminals_it_reads(self, monkeypatch):
        # a direction_redraw retry lets every unit transmit from its terminal
        seen = []

        def record(*args, **kwargs):
            got = generate_deployment(*args, **kwargs)
            seen.extend(dep for dep in got.values() if isinstance(dep, Deployment))
            return got

        monkeypatch.setattr(montecarlo, "generate_deployment", record)
        for scheme in ("duda", "duca"):
            for redraw in (True, False):
                seen.clear()
                run_campaign(TrialConfig(
                    iterations=60, seed=49, scheme=scheme,
                    attempt_model="fixed", direction_redraw=redraw,
                ))
                # at most 28 probes per realization at the default density
                blank = [bool(np.isnan(dep.ues).any()) for dep in seen]
                assert len(blank) >= 3
                assert all(blank) != redraw and any(blank) != redraw


class TestSyntheticCampaign:
    def test_perfect_links(self):
        st = run_synthetic_campaign(1.0, 1.0, SlotTiming(), "duda", 200, seed=3)
        assert np.all(st.attempts == 1)
        assert np.allclose(st.samples, 1.0)
        assert st.empirical_rho_u == 1.0

    def test_geometric_mean_attempts(self):
        rho = 0.7
        st = run_synthetic_campaign(rho, rho, SlotTiming(), "duda", 20000, seed=5)
        p = rho * rho
        se = math.sqrt((1 - p) / p**2 / 20000)
        assert abs(st.attempts.mean() - 1 / p) < 3 * se

    def test_duca_mean_matches_closed_form(self):
        timing = SlotTiming()
        link = LinkSuccess(0.8, 0.9)
        st = run_synthetic_campaign(0.8, 0.9, timing, "duca", 20000, seed=7)
        se = float(np.std(st.samples, ddof=1)) / math.sqrt(20000)
        # true probabilities are known here, no plug-in noise
        assert abs(st.mean - latency_duca(timing, link).total) < 3.5 * se


class TestSyntheticMatchesReference:
    """The block-reading campaign against the per-attempt loop it replaced."""

    @staticmethod
    def _assert_same(rho_u, rho_d, scheme, iterations, seed, max_attempts):
        args = (rho_u, rho_d, SlotTiming(), scheme, iterations, seed, max_attempts)
        got, want = run_synthetic_campaign(*args), reference_synthetic_campaign(*args)
        assert np.array_equal(got.attempts, want.attempts)
        assert np.array_equal(got.censored, want.censored)
        assert got.empirical_rho_u == want.empirical_rho_u
        assert got.empirical_rho_d == want.empirical_rho_d
        assert np.array_equal(got.samples, want.samples)
        return want

    @pytest.mark.parametrize("scheme", ["duda", "duca"])
    @pytest.mark.parametrize("max_attempts", [1, 2, 7, 1000])
    @pytest.mark.parametrize("rho_product", [1e-5, 0.3, 0.55, 1.0])
    def test_grid(self, rho_product, max_attempts, scheme):
        rho = math.sqrt(rho_product)
        iterations = 60 if rho_product < 0.01 and max_attempts > 100 else 400
        self._assert_same(rho, rho, scheme, iterations, 29, max_attempts)

    def test_trials_spanning_several_blocks(self):
        # blocks of 1024 attempts, the third cut to 452 by max_attempts
        want = self._assert_same(0.02, 0.005, "duda", 60, 2**40 + 3, 2500)
        ended = want.attempts[~want.censored]
        assert (ended > 1024).any() and (ended > 2048).any() and want.censored.any()

    def test_unequal_rhos_with_long_tails(self):
        # blocks of 16 attempts (5 mean attempts at rho_u*rho_d = 0.315)
        want = self._assert_same(0.9, 0.35, "duca", 3000, 31, 1000)
        assert (want.attempts > 16).any()


class TestSeedHash:
    """The block hash of the trials' SeedSequence states and its hand-off."""

    SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**70, 2**100 + 5]  # 3 to 6 entropy words
    IDS = [0, 1, 2**32 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_match_seed_sequence(self, seed):
        words = np.tile(seed_words(seed, 0, 0x5E7), (len(self.IDS), 1))
        words[:, -2] = self.IDS
        states = montecarlo._seed_states(words)
        assert states.dtype == np.uint64 and states.shape == (len(self.IDS), 4)
        for row, state in zip(words, states):
            want = np.random.SeedSequence(row).generate_state(4, np.uint64)
            assert np.array_equal(state, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_campaign_trial_generators(self, seed, monkeypatch):
        # every Generator the campaign builds, before it draws
        seen, real = [], np.random.Generator

        def spy(bit_generator):
            seen.append(bit_generator.state)
            return real(bit_generator)

        monkeypatch.setattr(np.random, "Generator", spy)
        run_synthetic_campaign(0.5, 0.5, SlotTiming(), "duda", 3, seed, 10)
        monkeypatch.undo()
        assert seen == [np.random.default_rng([seed, it, 0x5E7]).bit_generator.state
                        for it in range(3)]

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_row_seed_serves_only_pcg64(self, n_words, dtype):
        seq = montecarlo._row_seed()(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError, match=r"only \(4, uint64\)"):
            seq.generate_state(n_words, dtype)

    def test_campaign_across_hash_blocks(self, monkeypatch):
        # blocks of 3 trials: 7 trials span two full blocks and a short one
        monkeypatch.setattr(montecarlo, "_SEED_BLOCK", 3)
        args = (0.6, 0.45, SlotTiming(), "duca", 7, 2**33 + 1, 50)
        got, want = run_synthetic_campaign(*args), reference_synthetic_campaign(*args)
        assert np.array_equal(got.attempts, want.attempts)
        assert np.array_equal(got.samples, want.samples)
        assert (got.empirical_rho_u, got.empirical_rho_d) == (
            want.empirical_rho_u, want.empirical_rho_d)

    def test_more_than_2_32_trials_rejected_before_allocation(self):
        # the trial index is one entropy word; past it streams would repeat
        with pytest.raises(ValueError, match=r"at most 2\*\*32 trials, got 4294967297"):
            run_synthetic_campaign(0.5, 0.5, SlotTiming(), "duda", 2**32 + 1, seed=0)


class TestCsvSink:
    def test_schema_and_determinism(self):
        st = run_synthetic_campaign(0.9, 0.9, SlotTiming(), "duda", 20, seed=11)
        text = samples_csv(st)
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,scheme,attempts,latency,censored"
        assert len(lines) == 21
        cells = lines[1].split(",")
        assert cells[1] == "duda"
        int(cells[0]), int(cells[2]), float(cells[3]), int(cells[4])
