"""TCP throughput analysis under an AIMD-based PDoS attack (Section 2).

Implements, in order:

* Eq. (1)  -- the converged congestion window ``W_c``;
* Prop. 1 / Eq. (2) -- the exact per-flow throughput, transient phase
  included;
* Lemma 1 / Eq. (8) -- the aggregate no-attack throughput Ψ_normal;
* Lemma 2 / Eq. (9) -- the aggregate under-attack throughput Ψ_attack
  (steady-state approximation, ``W_n ≈ W_c``);
* Prop. 2 / Eq. (10)-(11) -- the normalized degradation
  ``Γ = 1 − C_ψ / γ`` and the constant ``C_ψ``;
* Corollary 4 / Eq. (18) -- the victim constant ``C_victim`` with
  ``C_ψ = C_victim · T_extent · C_attack``.

Unit conventions: times in seconds, rates in bits/s, packet size
``s_packet`` in bytes, windows in packets.  Throughputs Ψ are in bytes,
matching the paper (Lemma 1 divides the bit rate by 8).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

from repro.sim.packet import FULL_PACKET_BYTES
from repro.sim.tcp.params import AIMDParams
from repro.util.errors import ValidationError
from repro.util.validate import check_positive

__all__ = [
    "converged_window",
    "window_after_pulses",
    "pulses_to_converge",
    "per_flow_attack_throughput_exact",
    "aggregate_attack_throughput",
    "normal_throughput",
    "c_psi",
    "c_victim",
    "degradation",
    "VictimPopulation",
]

#: Relative tolerance used to declare the window converged to W_c.
_CONVERGENCE_RTOL = 0.05


@dataclasses.dataclass(frozen=True)
class VictimPopulation:
    """The victim TCP flows sharing the bottleneck.

    Attributes:
        rtts: per-flow round-trip times, seconds.
        aimd: AIMD(a, b) parameters of the flows.
        delayed_ack: the receiver delayed-ACK factor ``d``.
        s_packet: packet size in bytes (the paper's ``S_packet``).
    """

    rtts: Sequence[float]
    aimd: AIMDParams = dataclasses.field(default_factory=AIMDParams.standard_tcp)
    delayed_ack: int = 1
    s_packet: float = FULL_PACKET_BYTES

    def __post_init__(self) -> None:
        if len(self.rtts) == 0:
            raise ValidationError("need at least one victim flow")
        for i, rtt in enumerate(self.rtts):
            check_positive(f"rtts[{i}]", rtt)
        if self.delayed_ack < 1:
            raise ValidationError(
                f"delayed_ack must be >= 1, got {self.delayed_ack}"
            )
        check_positive("s_packet", self.s_packet)

    @property
    def n_flows(self) -> int:
        return len(self.rtts)

    def inverse_rtt_square_sum(self) -> float:
        """``Σ 1 / RTT_i²`` -- the victim-population factor in Eq. (9)/(11)."""
        return sum(1.0 / (rtt * rtt) for rtt in self.rtts)


# ----------------------------------------------------------------------
# Eq. (1): the converged window
# ----------------------------------------------------------------------
def converged_window(aimd: AIMDParams, delayed_ack: int, period: float,
                     rtt: float) -> float:
    """``W_c = a/(1-b) · T_AIMD / (d · RTT)`` (Eq. 1), in packets.

    The fixed point of the per-period map ``W ← b·W + (a/d)·T_AIMD/RTT``:
    each pulse multiplies the window by ``b`` and the free-of-attack
    interval restores ``a/d`` packets per RTT.
    """
    check_positive("period", period)
    check_positive("rtt", rtt)
    a, b = aimd.increase, aimd.decrease
    return (a / (1.0 - b)) * period / (delayed_ack * rtt)


def window_after_pulses(aimd: AIMDParams, delayed_ack: int, period: float,
                        rtt: float, w_initial: float, n: int) -> float:
    """Window just before the ``(n+1)``-th attack epoch, starting from W_1.

    Closed form of n applications of ``W ← b·W + (a/d)·T_AIMD/RTT``::

        W_{n+1} = b^n · W_1 + (1 - b^n) · W_c
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    w_c = converged_window(aimd, delayed_ack, period, rtt)
    decay = aimd.decrease ** n
    return decay * w_initial + (1.0 - decay) * w_c


def pulses_to_converge(aimd: AIMDParams, delayed_ack: int, period: float,
                       rtt: float, w_initial: float,
                       rtol: float = _CONVERGENCE_RTOL) -> int:
    """``N_attack``: pulses needed to bring the window within *rtol* of W_c.

    The paper reports fewer than 10 pulses suffice for standard TCP
    (Section 3.1, proof of Lemma 2); this computes the exact count for
    any AIMD pair by solving ``b^n |W_1 - W_c| <= rtol · W_c``.
    """
    check_positive("rtol", rtol)
    w_c = converged_window(aimd, delayed_ack, period, rtt)
    gap = abs(w_initial - w_c)
    if gap <= rtol * w_c:
        return 1
    n = math.log(rtol * w_c / gap) / math.log(aimd.decrease)
    return max(1, int(math.ceil(n)))


# ----------------------------------------------------------------------
# Proposition 1 (Eq. 2): exact per-flow throughput
# ----------------------------------------------------------------------
def per_flow_attack_throughput_exact(
    *,
    aimd: AIMDParams,
    delayed_ack: int,
    period: float,
    rtt: float,
    n_pulses: int,
    w_initial: float,
    s_packet: float = FULL_PACKET_BYTES,
) -> float:
    """Proposition 1: one victim flow's throughput in bytes over N pulses.

    The transient phase sums the actual window trajectory ``W_i``; the
    steady phase uses the sawtooth around ``W_c``.  This is the exact
    Eq. (2); :func:`aggregate_attack_throughput` is the Lemma-2
    approximation of its sum over flows.
    """
    check_positive("period", period)
    check_positive("rtt", rtt)
    check_positive("s_packet", s_packet)
    if n_pulses < 1:
        raise ValidationError(f"n_pulses must be >= 1, got {n_pulses}")
    a, b = aimd.increase, aimd.decrease
    d = delayed_ack
    rounds = period / rtt  # RTTs per attack period

    n_attack = pulses_to_converge(aimd, d, period, rtt, w_initial)
    n_attack = min(n_attack, n_pulses)

    # Transient phase: N_attack - 1 free-of-attack intervals.
    packets = 0.0
    w_i = w_initial
    for _ in range(n_attack - 1):
        packets += (b * w_i + (a / (2.0 * d)) * rounds) * rounds
        w_i = b * w_i + (a / d) * rounds

    # Steady phase: N - N_attack sawtooth periods around W_c.
    steady_per_period = (
        a * (1.0 + b) / (2.0 * d * (1.0 - b)) * rounds * rounds
    )
    packets += steady_per_period * (n_pulses - n_attack)
    return packets * s_packet


# ----------------------------------------------------------------------
# Lemmas 1 and 2 (Eqs. 8, 9)
# ----------------------------------------------------------------------
def normal_throughput(bottleneck_bps: float, period: float,
                      n_pulses: int) -> float:
    """Lemma 1 (Eq. 8): Ψ_normal = R_bottle · (N−1) · T_AIMD / 8 bytes.

    Absent attack, the aggregated TCP flows saturate the bottleneck, so
    over the attack's (N−1) full periods the delivered volume is the
    bottleneck capacity times the duration.
    """
    check_positive("bottleneck_bps", bottleneck_bps)
    check_positive("period", period)
    if n_pulses < 2:
        raise ValidationError(f"n_pulses must be >= 2, got {n_pulses}")
    return bottleneck_bps * (n_pulses - 1) * period / 8.0


def aggregate_attack_throughput(victims: VictimPopulation, period: float,
                                n_pulses: int) -> float:
    """Lemma 2 (Eq. 9): aggregate Ψ_attack in bytes.

    Approximates every flow as already converged (``W_n ≈ W_c``), valid
    because standard TCP converges in under 10 pulses::

        Ψ_attack = a(1+b) T_AIMD² S_packet / (2d(1−b)) · (N−1) · Σ 1/RTT_i²
    """
    check_positive("period", period)
    if n_pulses < 2:
        raise ValidationError(f"n_pulses must be >= 2, got {n_pulses}")
    a, b = victims.aimd.increase, victims.aimd.decrease
    d = victims.delayed_ack
    return (
        a * (1.0 + b) * period * period * victims.s_packet
        / (2.0 * d * (1.0 - b))
        * (n_pulses - 1)
        * victims.inverse_rtt_square_sum()
    )


# ----------------------------------------------------------------------
# Proposition 2 (Eqs. 10, 11) and Corollary 4 (Eq. 18)
# ----------------------------------------------------------------------
def c_victim(victims: VictimPopulation, bottleneck_bps: float) -> float:
    """Eq. (18): C_victim = 4a(1+b) S_packet / ((1−b) d R_bottle) · Σ 1/RTT_i²."""
    check_positive("bottleneck_bps", bottleneck_bps)
    a, b = victims.aimd.increase, victims.aimd.decrease
    d = victims.delayed_ack
    return (
        4.0 * a * (1.0 + b) * victims.s_packet
        / ((1.0 - b) * d * bottleneck_bps)
        * victims.inverse_rtt_square_sum()
    )


def c_psi(victims: VictimPopulation, *, extent: float, rate_bps: float,
          bottleneck_bps: float) -> float:
    """Eq. (11): C_ψ = C_victim · T_extent · C_attack.

    The single constant through which the victim population, the pulse
    width, and the pulse-rate ratio enter the degradation Γ = 1 − C_ψ/γ.
    """
    check_positive("extent", extent)
    check_positive("rate_bps", rate_bps)
    check_positive("bottleneck_bps", bottleneck_bps)
    c_attack = rate_bps / bottleneck_bps
    return c_victim(victims, bottleneck_bps) * extent * c_attack


def degradation(gamma: float, c_psi_value: float) -> float:
    """Proposition 2 (Eq. 10): Γ = 1 − C_ψ / γ.

    Γ ∈ (0, 1) requires C_ψ < γ; for weaker attacks (γ ≤ C_ψ) the model
    predicts no degradation and this returns a non-positive value, which
    callers may clamp for display.
    """
    check_positive("gamma", gamma)
    check_positive("c_psi_value", c_psi_value)
    return 1.0 - c_psi_value / gamma

