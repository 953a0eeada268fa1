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
from repro.sim.packet import FULL_PACKET_BYTES
from repro.sim.tcp import AIMDParams, TCPConfig, TCPVariant
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.util.errors import SimulationError
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

    A lone flow on the dumbbell is given time to open its window, then
    attacked with *n_pulses* identical pulses of period T_AIMD.  The
    window is sampled just before each epoch from the ``tcp.cwnd``
    series of a flight recorder attached before the flow starts.
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
    config = DumbbellConfig(
        n_flows=1, rtt_min=rtt, rtt_max=rtt, tcp=tcp, seed=3,
        buffer_bytes=60 * FULL_PACKET_BYTES,
    )
    # Imported here so CLI start-up does not load the recorder module.
    from repro.obs.recorder import FlightRecorder

    net = build_dumbbell(config)
    sender = net.senders[0]
    attack_start = 8.0
    horizon = attack_start + n_pulses * period + 1.0
    recorder = FlightRecorder()
    recorder.attach(net, horizon=horizon)
    net.start_flows(stagger=0.0)

    net.run(until=attack_start)
    w_initial = sender.cwnd

    train = PulseTrain.uniform(extent, rate_bps, period - extent, n_pulses)
    source = net.add_attack(train, start_time=attack_start)
    source.start()
    net.run(until=horizon)
    cwnd = {s.name: s for s in recorder.harvest()}["tcp.cwnd"]
    if cwnd.evicted:
        raise SimulationError(
            "the cwnd trace overflowed the flight recorder "
            f"({cwnd.evicted} samples evicted); lower n_pulses"
        )

    aimd = tcp.aimd
    w_c = converged_window(aimd, delayed_ack, period, rtt)
    n_attack = pulses_to_converge(aimd, delayed_ack, period, rtt, w_initial)

    # Sample the trace just before each pulse start.
    trace = [(t, w) for t, flow_id, w in cwnd.data.tolist()
             if flow_id == sender.flow_id]
    epochs: List[Tuple[float, float, float]] = []
    for n, (begin, _end) in enumerate(train.pulse_intervals(attack_start)):
        before = [w for (t, w) in trace if t < begin]
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
