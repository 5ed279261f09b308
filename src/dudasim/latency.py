"""Closed-form two-way latency model for coupled (DUCA) and decoupled
(DUDA) access.

A two-way transaction sends data on the UL and its ACK on the DL.  The
expected latency decomposes into three parts:

* protocol delay  -- waiting for the transmission slot in a fixed TDD frame
  (zero for the decoupled scheme);
* retransmission delay -- expected extra cycles under geometric retry with
  per-attempt success probability rho_u * rho_d;
* fundamental delay -- irreducible transmit plus receive time.

Protocol-delay fine print: for a packet of size s_u generated at offset t
(uniform over one DL+UL frame), the per-arrival delay used throughout is

    (t_d - t) * t_d/(t_d+t_u) + (2*t_d + t_u - t) * s_u/(t_d+t_u),

whose expectation is exactly the protocol delay of ``latency_duca``.  The
strict wait-until-the-next-usable-slot timeline has a larger mean, by
(t_d-s_u)*(t_u-s_u)/(2*(t_d+t_u)); the closed-form convention is kept as
the single source of truth so that analytic results and sampled trials
agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .params import LinkSuccess, SlotTiming


@dataclass(frozen=True)
class LatencyBreakdown:
    """Expected latency split into protocol/retransmission/fundamental parts.

    ``total`` is the exact sum of the three components.
    """

    protocol: float
    retransmission: float
    fundamental: float

    @property
    def total(self) -> float:
        return self.protocol + self.retransmission + self.fundamental


def n_shot_success(link: LinkSuccess, n: int) -> float:
    """Probability that a two-way transaction succeeds within n attempts.

    Each attempt succeeds with probability rho_u * rho_d, independently,
    so the n-shot success probability is 1 - (1 - rho_u*rho_d)^n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return 1.0 - (1.0 - link.rho_u * link.rho_d) ** n


def _protocol_delay_expected(timing: SlotTiming) -> float:
    """Expected protocol delay of the coupled TDD scheme, in slots.

    Under the closed-form convention this mean is itself negative wherever
    t_u*(t_d - s_u) > t_d*(t_d + 3*s_u), e.g. -0.0833 at t_d 1, t_u 2,
    s_u 0.1; the total latency stays positive.
    """
    t_d, t_u, s_u = timing.t_d, timing.t_u, timing.s_u
    return (t_d * t_d + (2.0 * t_d + t_u) * s_u) / (t_d + t_u) - (t_d + s_u) / 2.0


def protocol_delay_sample(timing: SlotTiming, t: float) -> float:
    """Per-arrival protocol delay at frame offset t in [0, t_d + t_u).

    Linear in t; averaging over a uniform offset reproduces the protocol
    delay of ``latency_duca`` exactly.  Individual draws may be slightly
    negative for late arrivals (a quirk of the closed-form convention, see
    the module docstring); totals remain positive.
    """
    t_d, t_u, s_u = timing.t_d, timing.t_u, timing.s_u
    frame = t_d + t_u
    return (t_d - t) * t_d / frame + (2.0 * t_d + t_u - t) * s_u / frame


def _retransmission_delay(link: LinkSuccess, cycle: float) -> float:
    """Expected retransmission delay for a retry cycle of given duration.

    The number of attempts until the first two-way success is geometric
    with parameter rho_u * rho_d, so the expected number of extra cycles is
    1/(rho_u*rho_d) - 1.
    """
    p = link.rho_u * link.rho_d
    if p <= 0.0:
        raise ValueError("rho_u * rho_d must be positive (expected delay diverges)")
    if cycle <= 0.0:
        raise ValueError("cycle must be positive")
    return cycle * (1.0 / p - 1.0)


def latency_duca(timing: SlotTiming, link: LinkSuccess) -> LatencyBreakdown:
    """Expected two-way latency of the coupled baseline (one half-duplex BS).

    Retransmissions repeat on the full DL+UL frame; the fundamental delay is
    the UL slot plus the ACK size.
    """
    return LatencyBreakdown(
        protocol=_protocol_delay_expected(timing),
        retransmission=_retransmission_delay(link, timing.t_d + timing.t_u),
        fundamental=timing.t_u + timing.s_d,
    )


def latency_duda(timing: SlotTiming, link: LinkSuccess) -> LatencyBreakdown:
    """Expected two-way latency of the decoupled scheme (cooperating BS pair).

    The UE may transmit immediately (no protocol delay); a failed attempt
    costs the data size plus the ACK wait ``timing.w`` (defaults to t_d).
    """
    return LatencyBreakdown(
        protocol=0.0,
        retransmission=_retransmission_delay(link, timing.s_u + timing.w),
        fundamental=timing.s_u + timing.s_d,
    )


def latency_gap(timing: SlotTiming, link: LinkSuccess) -> float:
    """Expected DUCA minus DUDA latency (with w = t_d).

    For symmetric slots (t_d == t_u) this collapses to the closed form
    (t_u - s_u)/(rho_u*rho_d) + s_u, strictly positive for every valid
    input; asymmetric slots fall back to differencing the two totals.
    """
    if timing.t_d == timing.t_u:
        p = link.rho_u * link.rho_d
        if p <= 0.0:
            raise ValueError("rho_u * rho_d must be positive")
        return (timing.t_u - timing.s_u) / p + timing.s_u
    duca = latency_duca(timing, link)
    duda = latency_duda(replace(timing, w=timing.t_d), link)
    return duca.total - duda.total
