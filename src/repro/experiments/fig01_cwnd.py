"""Figure 1: the cwnd trajectory under a fixed-period AIMD attack.

Reproduces the schematic of Fig. 1 with real dynamics: a single TCP flow
whose window is sampled just before each attack epoch, compared against
the analytical trajectory ``W_{n+1} = b^n W_1 + (1 − b^n) W_c`` and the
converged window ``W_c`` of Eq. (1).  The transient/steady split
(N_attack) is also reported.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Tuple

from repro.core.attack import PulseTrain
from repro.core.throughput import (
    converged_window,
    pulses_to_converge,
    window_after_pulses,
)
from repro.runner import Cell, PlatformSpec, get_default_runner
from repro.sim.packet import FULL_PACKET_BYTES
from repro.sim.tcp import AIMDParams, TCPConfig, TCPVariant
from repro.util.units import mbps, ms

__all__ = ["CwndExperiment", "run_fig01"]


@dataclasses.dataclass(frozen=True)
class CwndExperiment:
    """Result of the Fig.-1 experiment.

    Attributes:
        epochs: list of (epoch time, measured W_n, analytic W_n).
        w_converged: the Eq.-1 converged window, packets.
        n_attack_analytic: the analytic transient length N_attack.
        measured_steady_mean: mean measured pre-epoch window in the
            steady phase.
    """

    epochs: List[Tuple[float, float, float]]
    w_converged: float
    n_attack_analytic: int
    measured_steady_mean: float

    def render(self) -> str:
        lines = [
            "Fig. 1 -- cwnd under a fixed-period AIMD attack",
            f"W_c (Eq. 1) = {self.w_converged:.2f} pkts, "
            f"N_attack = {self.n_attack_analytic} pulses",
            f"{'epoch t(s)':>10} {'W_n measured':>13} {'W_n analytic':>13}",
        ]
        for t, measured, analytic in self.epochs:
            lines.append(f"{t:10.2f} {measured:13.2f} {analytic:13.2f}")
        lines.append(
            f"steady-phase measured mean = {self.measured_steady_mean:.2f} pkts"
        )
        return "\n".join(lines)


def run_fig01(
    *,
    rtt: float = ms(200),
    period: float = 2.0,
    extent: float = ms(150),
    rate_bps: float = mbps(20),
    n_pulses: int = 12,
    delayed_ack: int = 2,
) -> CwndExperiment:
    """Run the single-flow cwnd experiment.

    A lone flow on the dumbbell, started without jitter, is given time
    to open its window, then attacked with *n_pulses* identical pulses
    of period T_AIMD.  The window is sampled just before each epoch
    from the cell's cwnd rows.
    """
    tcp = TCPConfig(
        variant=TCPVariant.NEWRENO,
        delayed_ack=delayed_ack,
        aimd=AIMDParams.standard_tcp(),
        min_rto=1.0,
        initial_ssthresh=40.0,
    )
    # A small bottleneck buffer (60 full packets) so every pulse reliably
    # overflows it and induces the per-epoch loss the schematic assumes.
    platform = PlatformSpec(
        kind="dumbbell", n_flows=1, seed=3, tcp=tcp,
        extra=(("rtt_min", rtt), ("rtt_max", rtt),
               ("buffer_bytes", 60 * FULL_PACKET_BYTES), ("stagger", 0.0)),
    )
    attack_start = 8.0
    train = PulseTrain.uniform(extent, rate_bps, period - extent, n_pulses)
    [result] = get_default_runner().measure_many([Cell(
        platform=platform, warmup=attack_start,
        window=n_pulses * period + 1.0, train=train, cwnd_series=True,
    )])
    (_t, _flow_id, w_initial), *trace = result.cwnd_rows

    aimd = tcp.aimd
    w_c = converged_window(aimd, delayed_ack, period, rtt)
    n_attack = pulses_to_converge(aimd, delayed_ack, period, rtt, w_initial)

    # Sample the trace just before each pulse start.
    epochs: List[Tuple[float, float, float]] = []
    for n, (begin, _end) in enumerate(train.pulse_intervals(attack_start)):
        before = [w for (t, _flow_id, w) in trace if t < begin]
        measured = before[-1] if before else w_initial
        analytic = window_after_pulses(aimd, delayed_ack, period, rtt,
                                       w_initial, n)
        epochs.append((begin, measured, analytic))

    steady = [m for (_t, m, _a) in epochs[max(n_attack, 1):]]
    steady_mean = sum(steady) / len(steady) if steady else math.nan
    return CwndExperiment(
        epochs=epochs,
        w_converged=w_c,
        n_attack_analytic=n_attack,
        measured_steady_mean=steady_mean,
    )
