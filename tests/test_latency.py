import math
from dataclasses import replace

import numpy as np
import pytest

from dudasim.latency import (
    latency_duca,
    latency_duda,
    latency_gap,
    n_shot_success,
    protocol_delay_sample,
)
from dudasim.params import LinkSuccess, SlotTiming

from helpers import slot_wait_time


def timing(t_d=1.0, t_u=1.0, s_u=0.5, s_d=0.5, w=None):
    return SlotTiming(t_d=t_d, t_u=t_u, s_u=s_u, s_d=s_d, w=w)


class TestNShotSuccess:
    def test_perfect_links(self):
        assert n_shot_success(LinkSuccess(1.0, 1.0), 1) == 1.0

    def test_half_product_two_shots(self):
        # rho_u * rho_d = 0.5 -> 1 - 0.5^2
        assert n_shot_success(LinkSuccess(1.0, 0.5), 2) == pytest.approx(0.75)

    def test_geometric_series_oracle(self):
        # brute-force sum of the truncated geometric series
        rho_u, rho_d, n = 0.9, 0.8, 3
        p = rho_u * rho_d
        expected = sum((1 - p) ** i * p for i in range(n))
        assert expected == pytest.approx(0.978048)
        assert n_shot_success(LinkSuccess(rho_u, rho_d), n) == pytest.approx(expected, rel=1e-12)

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            n_shot_success(LinkSuccess(0.5, 0.5), 0)

    def test_increasing_in_n_to_one(self):
        link = LinkSuccess(0.6, 0.7)
        vals = [n_shot_success(link, n) for n in range(1, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)


def protocol_delay_expected(tm):
    """The coupled scheme's protocol delay, read from its latency breakdown."""
    return latency_duca(tm, LinkSuccess(1.0, 1.0)).protocol


class TestProtocolDelay:
    def test_symmetric_half_packet(self):
        assert protocol_delay_expected(timing()) == pytest.approx(0.5, rel=1e-12)

    def test_vanishes_for_tiny_packet(self):
        assert protocol_delay_expected(timing(s_u=1e-12)) == pytest.approx(0.0, abs=1e-11)

    def test_asymmetric_slots(self):
        # (t_d=2, t_u=1, s_u=0.5): (4 + 5*0.5)/3 - 2.5/2
        want = (4 + 5 * 0.5) / 3 - 2.5 / 2
        assert want == pytest.approx(0.9166666666666666)
        assert protocol_delay_expected(timing(t_d=2.0)) == pytest.approx(want, rel=1e-12)

    def test_sampler_mean_matches_closed_form(self):
        # per-arrival sampler averaged over a uniform offset reproduces the
        # closed form (Monte Carlo, 3 sigma)
        rng = np.random.default_rng(7)
        for t_d, t_u, s_u in [(1.0, 1.0, 0.5), (2.0, 1.0, 0.3), (0.7, 1.3, 1.1)]:
            tm = timing(t_d, t_u, s_u)
            t = rng.uniform(0.0, t_d + t_u, size=1_000_000)
            samples = protocol_delay_sample(tm, t)
            se = samples.std() / math.sqrt(len(samples))
            assert abs(samples.mean() - protocol_delay_expected(tm)) < 3 * se

    def test_sampler_is_vectorizable_and_linear(self):
        tm = timing()
        ts = np.linspace(0.0, 2.0, 9)
        vals = protocol_delay_sample(tm, ts)
        diffs = np.diff(vals)
        assert np.allclose(diffs, diffs[0])

    def test_strict_timeline_offset(self):
        # the literal wait-until-slot timeline exceeds the closed form by
        # (t_d-s_u)(t_u-s_u)/(2(t_d+t_u)); quadrature over the uniform offset
        for t_d, t_u, s_u in [(1.0, 1.0, 0.5), (2.0, 1.5, 0.4), (1.0, 1.0, 0.9)]:
            tm = timing(t_d, t_u, s_u)
            ts = np.linspace(0.0, t_d + t_u, 200001)
            strict_mean = np.trapezoid(
                [slot_wait_time(tm, t) for t in ts], ts
            ) / (t_d + t_u)
            offset = (t_d - s_u) * (t_u - s_u) / (2 * (t_d + t_u))
            # trapezoid error is O(h) at the timeline's jump discontinuity
            assert strict_mean - protocol_delay_expected(tm) == pytest.approx(offset, abs=1e-4)


class TestRetransmissionDelay:
    """Retried cycles: t_d + t_u for the coupled scheme, s_u + w decoupled."""

    def test_perfect_links_no_delay(self):
        assert latency_duca(timing(), LinkSuccess(1.0, 1.0)).retransmission == 0.0
        assert latency_duda(timing(), LinkSuccess(1.0, 1.0)).retransmission == 0.0

    def test_half_product(self):
        assert latency_duca(timing(), LinkSuccess(1.0, 0.5)).retransmission == pytest.approx(2.0)
        assert latency_duda(timing(), LinkSuccess(1.0, 0.5)).retransmission == pytest.approx(1.5)

    def test_monte_carlo_oracle(self):
        # sample geometric attempt counts, average (attempts-1)*cycle
        rho_u, rho_d, cycle = 0.9, 0.9, 1.5
        want = cycle * (1 / (rho_u * rho_d) - 1)
        assert want == pytest.approx(0.35185185185, rel=1e-9)
        rng = np.random.default_rng(11)
        attempts = rng.geometric(rho_u * rho_d, size=1_000_000)
        samples = (attempts - 1) * cycle
        se = samples.std() / math.sqrt(len(samples))
        assert abs(samples.mean() - want) < 3 * se
        got = latency_duda(timing(s_u=0.5, w=1.0), LinkSuccess(rho_u, rho_d)).retransmission
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_zero_success(self):
        for latency in (latency_duca, latency_duda):
            with pytest.raises(ValueError):
                latency(timing(), LinkSuccess(1.0, 0.0))


class TestSchemeLatencies:
    def test_duca_perfect(self):
        b = latency_duca(timing(), LinkSuccess(1.0, 1.0))
        assert b.protocol == pytest.approx(0.5)
        assert b.retransmission == 0.0
        assert b.fundamental == pytest.approx(1.5)
        assert b.total == pytest.approx(2.0)

    def test_duca_half_product(self):
        b = latency_duca(timing(), LinkSuccess(1.0, 0.5))
        assert b.total == pytest.approx(4.0)

    def test_duca_full_slot_packets(self):
        b = latency_duca(timing(s_u=1.0, s_d=1.0), LinkSuccess(1.0, 1.0))
        assert b.total == pytest.approx(3.0)

    def test_duda_perfect(self):
        b = latency_duda(timing(), LinkSuccess(1.0, 1.0))
        assert b.protocol == 0.0
        assert b.total == pytest.approx(1.0)

    def test_duda_half_product(self):
        b = latency_duda(timing(), LinkSuccess(1.0, 0.5))
        assert b.total == pytest.approx(2.5)

    def test_duda_tiny_packets_leave_ack_wait(self):
        link = LinkSuccess(0.8, 0.9)
        b = latency_duda(timing(s_u=1e-12, s_d=1e-12), LinkSuccess(0.8, 0.9))
        want = 1.0 * (1 / link.product - 1)
        assert b.total == pytest.approx(want, abs=1e-9)

    def test_total_is_component_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tm = timing(s_u=rng.uniform(0.01, 1.0), s_d=rng.uniform(0.01, 1.0))
            link = LinkSuccess(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
            for b in (latency_duca(tm, link), latency_duda(tm, link)):
                assert b.total == b.protocol + b.retransmission + b.fundamental

    def test_decreasing_in_success_product(self):
        products = np.linspace(0.1, 1.0, 30)
        duca = [latency_duca(timing(), LinkSuccess(1.0, p)).total for p in products]
        duda = [latency_duda(timing(), LinkSuccess(1.0, p)).total for p in products]
        assert all(b < a for a, b in zip(duca, duca[1:]))
        assert all(b < a for a, b in zip(duda, duda[1:]))


class TestGap:
    def test_perfect(self):
        assert latency_gap(timing(), LinkSuccess(1.0, 1.0)) == pytest.approx(1.0)
        duca = latency_duca(timing(), LinkSuccess(1.0, 1.0)).total
        duda = latency_duda(timing(), LinkSuccess(1.0, 1.0)).total
        assert duca - duda == pytest.approx(1.0)

    def test_half_product(self):
        assert latency_gap(timing(), LinkSuccess(1.0, 0.5)) == pytest.approx(1.5)

    def test_full_slot_packet(self):
        for rho in (0.3, 0.8, 1.0):
            assert latency_gap(timing(s_u=1.0), LinkSuccess(rho, 1.0)) == pytest.approx(1.0)

    def test_gap_consistency_grid(self):
        # closed form equals the difference of totals on a randomized grid
        rng = np.random.default_rng(5)
        for _ in range(1000):
            t = rng.uniform(0.2, 3.0)
            tm = timing(t_d=t, t_u=t, s_u=rng.uniform(1e-6, 1.0) * t,
                        s_d=rng.uniform(1e-6, 1.0) * t)
            link = LinkSuccess(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
            gap = latency_gap(tm, link)
            direct = latency_duca(tm, link).total - latency_duda(replace(tm, w=t), link).total
            assert gap > 0.0
            assert gap == pytest.approx(direct, rel=1e-12)

    def test_asymmetric_falls_back_to_difference(self):
        tm = timing(t_d=2.0, t_u=1.0)
        link = LinkSuccess(0.9, 0.7)
        want = latency_duca(tm, link).total - latency_duda(replace(tm, w=2.0), link).total
        assert latency_gap(tm, link) == pytest.approx(want, rel=1e-12)


class TestDiscreteEventOracle:
    @pytest.mark.slow
    def test_duca_slot_timeline_simulator(self):
        # draw arrival offsets, replay the coupled slot structure with
        # geometric retransmissions, compare against the closed form
        rng = np.random.default_rng(17)
        tm = timing()
        link = LinkSuccess(0.85, 0.75)
        n = 1_000_000
        t = rng.uniform(0.0, tm.t_d + tm.t_u, size=n)
        attempts = rng.geometric(link.product, size=n)
        samples = (
            protocol_delay_sample(tm, t)
            + (attempts - 1) * (tm.t_d + tm.t_u)
            + tm.t_u
            + tm.s_d
        )
        se = samples.std() / math.sqrt(n)
        assert abs(samples.mean() - latency_duca(tm, link).total) < 3 * se

    @pytest.mark.slow
    def test_duda_retry_simulator(self):
        rng = np.random.default_rng(19)
        tm = timing()
        link = LinkSuccess(0.7, 0.9)
        n = 1_000_000
        attempts = rng.geometric(link.product, size=n)
        samples = (attempts - 1) * (tm.s_u + tm.w) + tm.s_u + tm.s_d
        se = samples.std() / math.sqrt(n)
        assert abs(samples.mean() - latency_duda(tm, link).total) < 3 * se
