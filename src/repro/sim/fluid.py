"""Fluid-model backend: coupled AIMD window / bottleneck-queue ODEs.

The packet engine resolves every segment, ACK, and RED coin flip, which
is exact but makes wall time scale with simulated packets.  The gain
framework (``G = Γ·(1−γ)^κ``, Propositions 2-4) only depends on the
AIMD window dynamics and the bottleneck backlog, and those admit the
classic fluid formulation (Avrachenkov-Ayesta-Piunovskiy; Misra-Gong-
Towsley): per-flow congestion windows evolve as ODEs, the bottleneck
queue integrates the rate imbalance, and congestion events apply
discrete jumps to the windows.

This module integrates that hybrid system directly:

* **Windows.**  Flow *i* sends at ``w_i · S_pkt / rtt_i`` bytes/s while
  unfrozen.  Below ``ssthresh`` the window grows geometrically per RTT
  (slow start, base ``1 + 1/d`` with delayed ACKs); above it grows
  additively by ``a/d`` packets per RTT (AIMD(a, b), the paper's
  Section 2.1 parameters).  The RTT used everywhere is the propagation
  RTT plus the current queueing delay ``q/S``.
* **Queue.**  A two-class fluid FIFO backlog: TCP bytes and attack
  bytes share one buffer, drain in proportion to their share of the
  backlog, and overflow once the backlog reaches the loss threshold
  (``max_th = 0.8·B`` for RED/CHOKe -- the deterministic edge of the
  paper's Section-4.2 RED configuration -- or the full buffer for
  drop-tail).
* **Attacker.**  The pulse train is a piecewise-constant forcing term:
  each pulse contributes ``R_attack`` bytes/s between its edges, and
  every edge is an integration breakpoint, so pulses are resolved
  exactly regardless of step size.
* **Loss events.**  An overflow signals every unfrozen flow at most
  once per RTT (the per-window loss response of real TCP).  During a
  pulse-driven overflow, flows whose RTT is short enough that the pulse
  wipes a substantial fraction of their in-flight window take an RTO
  freeze (``w → 1``, slow-start restart after ``max(minRTO, 2·rtt)``) --
  the paper's Section-2.2 timeout mechanism; all other signalled flows
  take a multiplicative decrease.  Ambient (self-congestion) overflows
  are always multiplicative decreases, which yields the usual AIMD
  sawtooth in the unattacked baseline.

Validity limits: the model has no per-packet granularity, so it cannot
express RED's probabilistic early drops, flow-start jitter, delayed-ACK
timer beats, or exponential RTO backoff, and it synchronizes ambient
loss events across flows where RED would desynchronize them.  It is a
γ-landscape localizer -- relative goodput across γ, not absolute bytes
-- which is exactly what the planner pre-pass and the model-accuracy
bench hold it to (see ``benchmarks/test_bench_model_accuracy.py``).

Everything here is deterministic: no RNG is consumed, so the scenario
seed does not influence a fluid result, and repeated runs are
bit-identical.  The module touches no packet-engine state (no
``Simulator``, no ``Packet`` uids), so merely importing or running it
cannot perturb a packet-backend measurement.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.sim.packet import FULL_PACKET_BYTES
from repro.sim.tcp import TCPConfig
from repro.util.errors import ValidationError
from repro.util.validate import check_non_negative, check_positive

__all__ = ["FluidScenario", "FluidResult", "scenario_from_config",
           "simulate_fluid"]

#: Wire size of a full data segment -- the shared constant, aliased
#: under the fluid model's historical name.
WIRE_BYTES = FULL_PACKET_BYTES

#: Default integration step cap, seconds.  Pulse edges, the window
#: opening, and RTO expiries always break a step exactly; the cap only
#: bounds the drift accumulated between events.
DEFAULT_MAX_STEP = 0.025

#: A pulse-driven overflow freezes a flow (RTO) when the pulse spans at
#: least this many of the flow's RTTs -- i.e. several whole windows of
#: in-flight data are lost, so dup-ACK recovery cannot proceed
#: (Section 2.2).  Longer-RTT flows only lose a sliver of their window
#: and recover with a multiplicative decrease, which is the
#: RTT-dependence behind the paper's Fig. 6-9 extent gradient.  The
#: value 2.0 is calibrated against the archived packet-engine fig06
#: panel (see ``benchmarks/test_bench_model_accuracy.py``).
RTO_COVERAGE = 2.0


@dataclasses.dataclass(frozen=True)
class FluidScenario:
    """The fluid model's view of a measurement environment.

    Attributes:
        rtts: two-way propagation delay per flow, seconds.
        service_bps: bottleneck service rate, bits/s.
        buffer_bytes: physical bottleneck buffer.
        loss_threshold_bytes: backlog at which the fluid queue signals
            loss (``0.8·B`` for RED/CHOKe, ``B`` for drop-tail).
        tcp: the victim stack (MSS, AIMD(a, b), delayed ACKs, minRTO).
    """

    rtts: Tuple[float, ...]
    service_bps: float
    buffer_bytes: float
    loss_threshold_bytes: float
    tcp: TCPConfig

    def __post_init__(self) -> None:
        if not self.rtts:
            raise ValidationError("a fluid scenario needs at least one flow")
        for i, rtt in enumerate(self.rtts):
            check_positive(f"rtts[{i}]", rtt)
        check_positive("service_bps", self.service_bps)
        check_positive("buffer_bytes", self.buffer_bytes)
        check_positive("loss_threshold_bytes", self.loss_threshold_bytes)
        if self.loss_threshold_bytes > self.buffer_bytes + 1e-9:
            raise ValidationError(
                f"loss threshold ({self.loss_threshold_bytes}) exceeds the "
                f"buffer ({self.buffer_bytes})"
            )


@dataclasses.dataclass(frozen=True)
class FluidResult:
    """What one fluid integration measured.

    Attributes:
        goodput_bytes: TCP payload bytes delivered in the window.
        loss_events: queue-overflow episodes over the whole run
            (warm-up included).
        rto_events: per-flow RTO freezes those episodes triggered.
        steps: integration steps taken (a cost diagnostic).
    """

    goodput_bytes: float
    loss_events: int
    rto_events: int
    steps: int


def scenario_from_config(config) -> FluidScenario:
    """Map a platform config dataclass onto the fluid model's inputs.

    Accepts a :class:`~repro.sim.topology.DumbbellConfig` or a
    :class:`~repro.testbed.dummynet.TestbedConfig` through the accessors
    both share: ``flow_rtts()``, ``contested_rate_bps()``,
    ``buffer_bytes`` and the ``queue`` name.  RED and CHOKe drop early,
    so their loss threshold is ``0.8·B``; drop-tail loses at ``B``.
    """
    buffer_bytes = config.buffer_bytes
    loss_fraction = 1.0 if config.queue == "droptail" else 0.8
    return FluidScenario(
        rtts=tuple(float(r) for r in config.flow_rtts()),
        service_bps=config.contested_rate_bps(),
        buffer_bytes=buffer_bytes,
        loss_threshold_bytes=loss_fraction * buffer_bytes,
        tcp=config.tcp,
    )


def _forcing_edges(
    sources: Sequence[Tuple], at: float,
) -> Tuple[List[Tuple[float, float]], float]:
    """Flatten (train, offset) sources into sorted rate-delta edges.

    Returns ``(edges, max_extent)`` where each edge is ``(time,
    delta_bytes_per_s)`` and *max_extent* is the longest single pulse --
    the episode length the RTO-severity rule compares RTTs against.
    """
    edges: List[Tuple[float, float]] = []
    max_extent = 0.0
    for train, offset in sources:
        intervals = train.pulse_intervals(at + float(offset))
        for (begin, end), rate_bps in zip(intervals, train.rates_bps):
            edges.append((begin, rate_bps / 8.0))
            edges.append((end, -rate_bps / 8.0))
            max_extent = max(max_extent, end - begin)
    edges.sort()
    return edges, max_extent


def simulate_fluid(
    scenario: FluidScenario,
    *,
    warmup: float,
    window: float,
    sources: Sequence[Tuple] = (),
    max_step: float = DEFAULT_MAX_STEP,
) -> FluidResult:
    """Integrate the hybrid AIMD/queue system and measure windowed goodput.

    *sources* is a sequence of ``(PulseTrain, start_offset)`` pairs; the
    first pulse of each train begins at ``warmup + offset``, matching
    how the packet backend launches attacks after the attack-free
    warm-up.  Goodput is accumulated over ``[warmup, warmup + window]``
    only, exactly like :func:`repro.runner.cells.execute_cell`.
    """
    check_non_negative("warmup", warmup)
    check_positive("window", window)
    check_positive("max_step", max_step)

    tcp = scenario.tcp
    n = len(scenario.rtts)
    rtt = np.asarray(scenario.rtts, dtype=float)
    service = scenario.service_bps / 8.0  # bytes/s
    b_loss = scenario.loss_threshold_bytes
    payload_fraction = tcp.mss / WIRE_BYTES
    add_per_rtt = tcp.aimd.increase / tcp.delayed_ack
    ss_base = 1.0 + 1.0 / tcp.delayed_ack
    horizon = warmup + window
    edges, pulse_extent = _forcing_edges(sources, warmup)
    rto_eligible = pulse_extent >= RTO_COVERAGE * rtt

    w = np.full(n, float(tcp.initial_cwnd))
    ssthresh = np.full(n, float(tcp.initial_ssthresh))
    frozen_until = np.full(n, -math.inf)
    last_cut = np.full(n, -math.inf)
    q = 0.0        # total backlog, bytes
    q_tcp = 0.0    # the TCP-owned share of the backlog
    attack_rate = 0.0
    edge_index = 0
    goodput = 0.0
    loss_events = 0
    rto_events = 0
    steps = 0
    t = 0.0
    tiny = 1e-9
    n_edges = len(edges)

    # Incrementally tracked flow state.  The frozen mask changes only
    # when an RTO fires or ``t`` crosses the earliest thaw time, and a
    # flow can sit below ``ssthresh`` only after a window cut (or at
    # start-up), so both masks are recomputed lazily; between events the
    # hot loop runs a branch-free all-active, all-additive fast path
    # whose float operations are bit-identical to the masked ones.
    frozen = frozen_until > tiny
    active = ~frozen
    n_frozen = 0
    next_thaw = math.inf
    ss_possible = True

    while t < horizon - tiny:
        while edge_index < n_edges and edges[edge_index][0] <= t + tiny:
            attack_rate += edges[edge_index][1]
            edge_index += 1
        if abs(attack_rate) < 1e-6:
            attack_rate = 0.0  # wash float accumulation across many edges

        if n_frozen and t + tiny >= next_thaw:
            frozen = frozen_until > t + tiny
            active = ~frozen
            n_frozen = int(np.count_nonzero(frozen))
            next_thaw = (float(frozen_until[frozen].min())
                         if n_frozen else math.inf)

        next_break = horizon
        if edge_index < n_edges:
            next_break = min(next_break, edges[edge_index][0])
        if t < warmup:
            next_break = min(next_break, warmup)
        if n_frozen:
            next_break = min(next_break, next_thaw)
        h = min(max_step, next_break - t)
        if h <= tiny:
            t = next_break
            continue
        steps += 1

        rtt_eff = rtt + q / service
        sent = w * WIRE_BYTES / rtt_eff
        rates = sent if not n_frozen else np.where(active, sent, 0.0)
        in_tcp = float(rates.sum())
        inflow = in_tcp + attack_rate
        out = service if q > tiny else min(inflow, service)
        if q > tiny:
            tcp_share = q_tcp / q
        else:
            tcp_share = in_tcp / inflow if inflow > 0.0 else 0.0
        out_tcp = out * tcp_share

        q_new = q + (inflow - out) * h
        q_tcp_new = q_tcp + (in_tcp - out_tcp) * h
        overflow = q_new > b_loss + tiny
        if overflow:
            # The spill is dropped at admission, shared by the classes
            # in proportion to their arrival rates (fluid drop-tail).
            spill = q_new - b_loss
            if inflow > 0.0:
                q_tcp_new -= spill * (in_tcp / inflow)
            q_new = b_loss
        if q_new < 0.0:
            q_new = 0.0
        q_tcp_new = min(max(q_tcp_new, 0.0), q_new)

        if t >= warmup - tiny:
            goodput += out_tcp * payload_fraction * h

        if ss_possible:
            slow_start = w < ssthresh
            if slow_start.any():
                # One fused update instead of two masked ones: the
                # per-element math matches the masked form bit for bit,
                # and np.where routes each flow to its regime.
                grown = np.minimum(
                    w * ss_base ** (h / rtt_eff), ssthresh,
                )
                opened = np.minimum(
                    w + add_per_rtt * h / rtt_eff, tcp.max_cwnd,
                )
                w = np.where(
                    frozen, w, np.where(slow_start, grown, opened),
                )
            else:
                if not n_frozen:
                    # No flow below ssthresh and none hiding in a
                    # freeze: slow start is over until the next cut.
                    ss_possible = False
                w_next = np.minimum(
                    w + add_per_rtt * h / rtt_eff, tcp.max_cwnd,
                )
                w = w_next if not n_frozen else np.where(frozen, w, w_next)
        elif not n_frozen:
            w = np.minimum(w + add_per_rtt * h / rtt_eff, tcp.max_cwnd)
        else:
            w = np.where(
                frozen, w,
                np.minimum(w + add_per_rtt * h / rtt_eff, tcp.max_cwnd),
            )

        now = t + h
        if overflow:
            loss_events += 1
            cut = active & (now - last_cut >= rtt_eff)
            if cut.any():
                # A pulse-driven episode: the attacker alone (or nearly
                # alone) saturates the service rate.  Ambient episodes
                # are TCP self-congestion and never freeze a flow.
                if attack_rate > 0.5 * service:
                    rto_mask = cut & rto_eligible
                    md_mask = cut & ~rto_eligible
                else:
                    # RED drops in proportion to a flow's arrival rate,
                    # so an ambient episode signals the fat flows and
                    # spares the thin ones.  Cutting only windows at or
                    # above the active mean reproduces that: windows
                    # equalize, so steady-state rates go as 1/rtt (the
                    # packet engine's RED sharing) instead of the
                    # 1/rtt^2 a fully synchronized cut would produce.
                    rto_mask = np.zeros(n, dtype=bool)
                    md_mask = cut & (w >= float(w[active].mean()))
                if rto_mask.any():
                    rto_events += int(rto_mask.sum())
                    ssthresh[rto_mask] = np.maximum(
                        w[rto_mask] * tcp.aimd.decrease, 2.0,
                    )
                    w[rto_mask] = 1.0
                    frozen_until[rto_mask] = now + np.maximum(
                        tcp.min_rto, 2.0 * rtt[rto_mask],
                    )
                    frozen = frozen_until > now + tiny
                    active = ~frozen
                    n_frozen = int(np.count_nonzero(frozen))
                    next_thaw = (float(frozen_until[frozen].min())
                                 if n_frozen else math.inf)
                if md_mask.any():
                    w[md_mask] = np.maximum(
                        w[md_mask] * tcp.aimd.decrease, 1.0,
                    )
                    ssthresh[md_mask] = np.maximum(w[md_mask], 2.0)
                last_cut[cut] = now
                ss_possible = True

        q, q_tcp = q_new, q_tcp_new
        t = now

    return FluidResult(
        goodput_bytes=goodput,
        loss_events=loss_events,
        rto_events=rto_events,
        steps=steps,
    )
