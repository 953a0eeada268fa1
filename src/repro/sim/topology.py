"""Scenario topologies.

:func:`build_dumbbell` constructs the paper's simulation topology
(Fig. 5): ``M`` TCP sender/receiver pairs on 50 Mb/s access links, a
15 Mb/s RED bottleneck between routers S and R, flow RTTs spread over
20-460 ms, and an attacker whose pulses cross the bottleneck toward a
sink behind router R.

Node id layout (M flows)::

    0            router S
    1            router R
    2 .. M+1     TCP sender hosts
    M+2 .. 2M+1  TCP receiver hosts
    2M+2         attacker host
    2M+3         attack sink host

:func:`build_parking_lot` generalizes beyond the dumbbell onto a chain
of routers with per-segment bottlenecks (the "parking lot" of the
multi-bottleneck literature): long flows traverse every segment, local
cross traffic loads individual segments, per-link buffers follow the
AIMD buffer-sizing rule (:func:`repro.sim.routing.aimd_buffer_bytes`),
and the pulse attacker's path may span one or several bottleneck
links.  Both scenarios are expressed on
:class:`~repro.sim.routing.GraphTopology`, which compiles static
shortest-path routes into the forwarding plane.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.attack import PulseTrain
from repro.obs import metrics as _obs_metrics
from repro.obs.instrument import publish_network
from repro.sim.attacker import PulseAttackSource
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import FULL_PACKET_BYTES, Packet
from repro.sim.queues import DropTailQueue, QueueDiscipline, REDQueue
from repro.sim.routing import GraphTopology, aimd_buffer_bytes
from repro.sim.tcp import TCPConfig, TCPReceiver, TCPSender
from repro.util.errors import ConfigurationError
from repro.util.units import mbps, ms
from repro.util.validate import check_positive

__all__ = ["DumbbellConfig", "DumbbellNetwork", "build_dumbbell",
           "ParkingLotConfig", "ParkingLotNetwork", "build_parking_lot",
           "make_red_queue", "make_droptail_queue", "make_choke_queue",
           "QUEUE_FACTORIES", "FULL_PACKET_BYTES"]


def make_red_queue(
    capacity_bytes: float,
    *,
    rng: Optional[random.Random] = None,
    service_rate_bps: Optional[float] = None,
    mean_pkt_bytes: float = FULL_PACKET_BYTES,
    byte_mode: bool = False,
) -> REDQueue:
    """A RED queue configured like the paper's test-bed (Section 4.2).

    Thresholds at 20% / 80% of the buffer, ``w_q = 0.002``,
    ``max_p = 0.1``, ``gentle_ = true``.  In packet mode (the ns-2
    default) the byte fractions are converted to packet counts using the
    mean packet size.
    """
    if byte_mode:
        min_th, max_th = 0.2 * capacity_bytes, 0.8 * capacity_bytes
    else:
        capacity_pkts = capacity_bytes / mean_pkt_bytes
        min_th, max_th = 0.2 * capacity_pkts, 0.8 * capacity_pkts
    return REDQueue(
        capacity_bytes,
        min_th=min_th,
        max_th=max_th,
        max_p=0.1,
        w_q=0.002,
        gentle=True,
        byte_mode=byte_mode,
        mean_pkt_bytes=mean_pkt_bytes,
        service_rate_bps=service_rate_bps,
        rng=rng,
    )


def make_droptail_queue(capacity_bytes: float, **_ignored) -> DropTailQueue:
    """A drop-tail queue of the same physical capacity (ablation baseline)."""
    return DropTailQueue(capacity_bytes)


def make_choke_queue(
    capacity_bytes: float,
    *,
    rng: Optional[random.Random] = None,
    service_rate_bps: Optional[float] = None,
    mean_pkt_bytes: float = FULL_PACKET_BYTES,
    byte_mode: bool = False,
) -> "CHOKeQueue":
    """A CHOKe queue with the same thresholds as :func:`make_red_queue`.

    The pulse-resistant AQM evaluated by the RED-hardening defense
    experiment (the direction the paper's conclusion motivates).
    """
    from repro.sim.queues import CHOKeQueue

    if byte_mode:
        min_th, max_th = 0.2 * capacity_bytes, 0.8 * capacity_bytes
    else:
        capacity_pkts = capacity_bytes / mean_pkt_bytes
        min_th, max_th = 0.2 * capacity_pkts, 0.8 * capacity_pkts
    return CHOKeQueue(
        capacity_bytes,
        min_th=min_th,
        max_th=max_th,
        max_p=0.1,
        w_q=0.002,
        gentle=True,
        byte_mode=byte_mode,
        mean_pkt_bytes=mean_pkt_bytes,
        service_rate_bps=service_rate_bps,
        rng=rng,
    )


#: Queue-discipline name -> factory.  The names are what experiment
#: platforms and runner cells use to reference a discipline: a name
#: serializes into a cache key and pickles to a worker, a callable does
#: not (reliably).
QUEUE_FACTORIES = {
    "red": make_red_queue,
    "droptail": make_droptail_queue,
    "choke": make_choke_queue,
}


@dataclasses.dataclass(frozen=True)
class DumbbellConfig:
    """Parameters of the Fig. 5 dumbbell.

    Defaults reproduce the paper's ns-2 setup: 50 Mb/s access links,
    15 Mb/s bottleneck with RED, TCP NewReno, RTTs evenly spread over
    20-460 ms.  The bottleneck buffer defaults to 180 full-size packets
    (about half the bandwidth-delay product at the mean RTT) -- large
    enough that a 50 ms pulse is partially absorbed (the paper's
    under-gain regime) while a 100 ms pulse overflows it (normal/over
    gain), which is the gradient Section 4.1.1 describes.

    Frozen (hashable and picklable) so a config can key the experiment
    runner's result cache and ship to worker processes unchanged.
    """

    n_flows: int = 15
    access_rate_bps: float = mbps(50)
    bottleneck_rate_bps: float = mbps(15)
    rtt_min: float = ms(20)
    rtt_max: float = ms(460)
    bottleneck_delay: float = ms(4)
    receiver_access_delay: float = ms(1)
    buffer_bytes: float = 180 * FULL_PACKET_BYTES
    queue_factory: Callable[..., QueueDiscipline] = None  # type: ignore[assignment]
    tcp: TCPConfig = dataclasses.field(default_factory=TCPConfig)
    attacker_access_rate_bps: float = mbps(1000)
    seed: int = 1
    #: scheduler backend for the engine ("heap"/"calendar"/"auto").
    #: ``compare=False``: backends dispatch bit-identically, so the
    #: choice must not split the runner's result-cache keys.
    scheduler: str = dataclasses.field(default="auto", compare=False)

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ConfigurationError(f"n_flows must be >= 1, got {self.n_flows}")
        check_positive("access_rate_bps", self.access_rate_bps)
        check_positive("bottleneck_rate_bps", self.bottleneck_rate_bps)
        check_positive("buffer_bytes", self.buffer_bytes)
        if not 0 < self.rtt_min <= self.rtt_max:
            raise ConfigurationError(
                f"need 0 < rtt_min <= rtt_max, got [{self.rtt_min}, {self.rtt_max}]"
            )
        if self.queue_factory is None:
            object.__setattr__(self, "queue_factory", make_red_queue)

    def flow_rtts(self) -> np.ndarray:
        """Per-flow propagation RTTs, evenly spread over [rtt_min, rtt_max]."""
        if self.n_flows == 1:
            return np.array([(self.rtt_min + self.rtt_max) / 2.0])
        return np.linspace(self.rtt_min, self.rtt_max, self.n_flows)


class DumbbellNetwork:
    """A built dumbbell scenario: nodes, links, agents, and helpers."""

    def __init__(self, config: DumbbellConfig) -> None:
        self.config = config
        self.sim = Simulator(scheduler=config.scheduler)
        self.rng = random.Random(config.seed)
        # Fresh uid stream per scenario: identical reruns trace identically.
        Packet.reset_uids()

        m = config.n_flows
        self.topo = GraphTopology(self.sim)
        self.router_s = self.topo.add_node("routerS")
        self.router_r = self.topo.add_node("routerR")
        self.sender_nodes = [
            self.topo.add_node(f"sender{i}") for i in range(m)
        ]
        self.receiver_nodes = [
            self.topo.add_node(f"receiver{i}") for i in range(m)
        ]
        self.attacker_node = self.topo.add_node("attacker")
        self.attack_sink_node = self.topo.add_node("attackSink")

        self._build_links()
        # Static shortest-path compilation makes exactly the decisions
        # the historical per-flow add_route() calls installed: hosts
        # default through their access link, routers route data across
        # the bottleneck and ACKs back.
        self.topo.compile_routes()
        self._build_flows()
        self.attack_sources: List[PulseAttackSource] = []
        self._next_attack_flow_id = 10_000
        self._next_node_id = 4 + 2 * m

    # ------------------------------------------------------------------
    def _build_links(self) -> None:
        cfg = self.config
        topo = self.topo
        rtts = cfg.flow_rtts()
        # One-way fixed components of the path: sender access + bottleneck
        # + receiver access.  All flow-specific delay goes on the sender
        # access link so the configured RTT spread is achieved exactly.
        fixed_one_way = cfg.bottleneck_delay + cfg.receiver_access_delay
        access_buffer = 4_000_000.0  # generous; only the bottleneck drops

        self.sender_links: List[Link] = []
        self.sender_return_links: List[Link] = []
        for i, (sender, rtt) in enumerate(zip(self.sender_nodes, rtts)):
            one_way = rtt / 2.0
            access_delay = one_way - fixed_one_way
            if access_delay <= 0:
                raise ConfigurationError(
                    f"flow {i}: RTT {rtt * 1e3:.0f}ms too small for the fixed "
                    f"path delay {2 * fixed_one_way * 1e3:.0f}ms"
                )
            self.sender_links.append(topo.add_link(
                sender, self.router_s, rate_bps=cfg.access_rate_bps,
                delay=access_delay, queue=DropTailQueue(access_buffer),
                name=f"sender{i}->S",
            ))
            self.sender_return_links.append(topo.add_link(
                self.router_s, sender, rate_bps=cfg.access_rate_bps,
                delay=access_delay, queue=DropTailQueue(access_buffer),
                name=f"S->sender{i}",
            ))

        self.receiver_links: List[Link] = []
        self.receiver_return_links: List[Link] = []
        for i, receiver in enumerate(self.receiver_nodes):
            self.receiver_links.append(topo.add_link(
                self.router_r, receiver, rate_bps=cfg.access_rate_bps,
                delay=cfg.receiver_access_delay,
                queue=DropTailQueue(access_buffer),
                name=f"R->receiver{i}",
            ))
            self.receiver_return_links.append(topo.add_link(
                receiver, self.router_r, rate_bps=cfg.access_rate_bps,
                delay=cfg.receiver_access_delay,
                queue=DropTailQueue(access_buffer),
                name=f"receiver{i}->R",
            ))

        # The contested bottleneck S->R, plus the (ACK-carrying) reverse path.
        self.bottleneck_queue = cfg.queue_factory(
            cfg.buffer_bytes,
            rng=self.rng,
            service_rate_bps=cfg.bottleneck_rate_bps,
        )
        self.bottleneck = topo.add_link(
            self.router_s, self.router_r, rate_bps=cfg.bottleneck_rate_bps,
            delay=cfg.bottleneck_delay, queue=self.bottleneck_queue,
            name="bottleneck",
        )
        self.reverse_bottleneck = topo.add_link(
            self.router_r, self.router_s, rate_bps=cfg.bottleneck_rate_bps,
            delay=cfg.bottleneck_delay, queue=DropTailQueue(4_000_000.0),
            name="bottleneck-reverse",
        )

        # Attacker and attack sink attachment.
        self.attacker_link = topo.add_link(
            self.attacker_node, self.router_s,
            rate_bps=cfg.attacker_access_rate_bps,
            delay=ms(1), queue=DropTailQueue(16_000_000.0), name="attacker->S",
        )
        self.attack_sink_link = topo.add_link(
            self.router_r, self.attack_sink_node,
            rate_bps=cfg.attacker_access_rate_bps,
            delay=ms(1), queue=DropTailQueue(16_000_000.0), name="R->attackSink",
        )

    def _build_flows(self) -> None:
        cfg = self.config
        m = cfg.n_flows
        self.senders: List[TCPSender] = []
        self.receivers: List[TCPReceiver] = []
        for i in range(m):
            flow_id = i
            sender = TCPSender(
                self.sim, self.sender_nodes[i], flow_id,
                receiver_node_id=2 + m + i, config=cfg.tcp,
            )
            receiver = TCPReceiver(
                self.sim, self.receiver_nodes[i], flow_id,
                sender_node_id=2 + i, config=cfg.tcp,
            )
            self.senders.append(sender)
            self.receivers.append(receiver)

    # ------------------------------------------------------------------
    # scenario control
    # ------------------------------------------------------------------
    def start_flows(self, *, stagger: float = 0.1) -> None:
        """Start all TCP flows, staggered to avoid a synchronized start."""
        for i, sender in enumerate(self.senders):
            jitter = self.rng.uniform(0.0, stagger)
            sender.start(at=self.sim.now + jitter)

    def add_attack(self, train: PulseTrain, *,
                   packet_bytes: float = FULL_PACKET_BYTES,
                   start_time: float = 0.0) -> PulseAttackSource:
        """Attach (but do not start) a pulse-train attack source."""
        flow_id = self._next_attack_flow_id
        self._next_attack_flow_id += 1
        self.attack_sink_node.register_agent(flow_id, _discard_packet)
        source = PulseAttackSource(
            self.sim, self.attacker_node, flow_id,
            self.attack_sink_node.node_id, train,
            packet_bytes=packet_bytes, start_time=start_time,
        )
        self.attack_sources.append(source)
        return source

    def add_host_pair(self, *, rtt: float = ms(100)):
        """Attach an extra sender/receiver host pair across the bottleneck.

        Used by short-flow ("mice") workloads that coexist with the main
        long-lived flows.  Returns ``(sender_host, receiver_host)`` with
        two-way routes installed.  All flow-specific delay goes on the
        sender's access link, as for the primary flows.
        """
        cfg = self.config
        fixed_one_way = cfg.bottleneck_delay + cfg.receiver_access_delay
        access_delay = rtt / 2.0 - fixed_one_way
        if access_delay <= 0:
            raise ConfigurationError(
                f"rtt {rtt * 1e3:.0f}ms too small for the fixed path delay"
            )
        buffer = 4_000_000.0
        topo = self.topo
        sender_host = topo.add_node(f"host{self._next_node_id}",
                                    node_id=self._next_node_id)
        self._next_node_id += 1
        receiver_host = topo.add_node(f"host{self._next_node_id}",
                                      node_id=self._next_node_id)
        self._next_node_id += 1
        topo.add_link(sender_host, self.router_s,
                      rate_bps=cfg.access_rate_bps, delay=access_delay,
                      queue=DropTailQueue(buffer))
        topo.add_link(self.router_s, sender_host,
                      rate_bps=cfg.access_rate_bps, delay=access_delay,
                      queue=DropTailQueue(buffer))
        topo.add_link(self.router_r, receiver_host,
                      rate_bps=cfg.access_rate_bps,
                      delay=cfg.receiver_access_delay,
                      queue=DropTailQueue(buffer))
        topo.add_link(receiver_host, self.router_r,
                      rate_bps=cfg.access_rate_bps,
                      delay=cfg.receiver_access_delay,
                      queue=DropTailQueue(buffer))
        # Mid-scenario attachment: the hosts are single-homed (default
        # route through their access link); only the routers learn the
        # new destinations.
        sender_host.set_default_route(self.router_s.node_id)
        receiver_host.set_default_route(self.router_r.node_id)
        self.router_s.add_route(receiver_host.node_id, self.router_r.node_id)
        self.router_r.add_route(sender_host.node_id, self.router_s.node_id)
        return sender_host, receiver_host

    def add_attacker_host(self) -> Node:
        """Attach an additional attack-source host (for DDoS scenarios)."""
        cfg = self.config
        node = self.topo.add_node(f"attacker{self._next_node_id}",
                                  node_id=self._next_node_id)
        self._next_node_id += 1
        self.topo.add_link(
            node, self.router_s, rate_bps=cfg.attacker_access_rate_bps,
            delay=ms(1), queue=DropTailQueue(16_000_000.0),
            name=f"{node.name}->S",
        )
        node.set_default_route(self.router_s.node_id)
        return node

    def launch_distributed(self, attack, *,
                           packet_bytes: float = FULL_PACKET_BYTES,
                           start_time: float = 0.0) -> List[PulseAttackSource]:
        """Launch a :class:`~repro.core.distributed.DistributedAttack`.

        Each per-source train runs from its own attacker host (distinct
        flow ids, distinct ingress links), offset per the split strategy.
        Sources are started immediately.
        """
        sources: List[PulseAttackSource] = []
        for train, offset in zip(attack.trains, attack.offsets):
            host = self.add_attacker_host()
            flow_id = self._next_attack_flow_id
            self._next_attack_flow_id += 1
            self.attack_sink_node.register_agent(flow_id, _discard_packet)
            source = PulseAttackSource(
                self.sim, host, flow_id, self.attack_sink_node.node_id,
                train, packet_bytes=packet_bytes,
                start_time=start_time + offset,
            )
            source.start()
            sources.append(source)
            self.attack_sources.append(source)
        return sources

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time *until*.

        When metrics are enabled, the contested links and the TCP flock
        are snapshotted into the active registry after each run segment
        (warm-up, measurement window) -- once per segment, never per
        event, so the disabled path is a single ``is None`` check.
        """
        self.sim.run(until=until)
        registry = _obs_metrics.active()
        if registry is not None:
            publish_network(registry, links={
                "bottleneck": self.bottleneck,
                "bottleneck_reverse": self.reverse_bottleneck,
                "attacker": self.attacker_link,
            }, senders=self.senders, nodes=self.topo.nodes.values())

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    def state_digest(self) -> tuple:
        """Fingerprint of the whole scenario's dynamic state.

        Combines the engine calendar, every link and queue, every TCP
        agent, the scenario RNG, and the process-global packet uid
        stream.  Warm-start checkpointing asserts a forked network's
        digest matches the original's -- equal digests mean the two
        evolve identically from here.
        """
        links = [*self.sender_links, *self.sender_return_links,
                 *self.receiver_links, *self.receiver_return_links,
                 self.bottleneck, self.reverse_bottleneck,
                 self.attacker_link, self.attack_sink_link]
        return (
            self.sim.state_digest(),
            self.rng.getstate(),
            Packet.peek_uid(),
            tuple(link.state_digest() for link in links),
            tuple(s.state_digest() for s in self.senders),
            tuple(r.state_digest() for r in self.receivers),
            self._next_attack_flow_id,
            self._next_node_id,
        )

    def flow_rtts(self) -> np.ndarray:
        """Propagation RTT of each flow, seconds (as configured)."""
        return self.config.flow_rtts()

    def aggregate_goodput_bytes(self) -> float:
        """Total payload bytes delivered across all TCP flows so far."""
        return float(sum(sender.goodput_bytes() for sender in self.senders))

    def goodput_snapshot(self) -> np.ndarray:
        """Per-flow delivered payload bytes (for windowed measurements)."""
        return np.array([sender.goodput_bytes() for sender in self.senders])


def _discard_packet(_packet) -> None:
    """Attack-sink agent: attack datagrams terminate here."""


def build_dumbbell(config: Optional[DumbbellConfig] = None) -> DumbbellNetwork:
    """Construct the Fig. 5 dumbbell scenario."""
    return DumbbellNetwork(config if config is not None else DumbbellConfig())


# ======================================================================
# parking-lot / multi-bottleneck scenarios
# ======================================================================
@dataclasses.dataclass(frozen=True)
class ParkingLotConfig:
    """Parameters of an N-bottleneck parking-lot chain.

    ``n_segments`` chain links connect routers ``R_0 .. R_K``.  *Long*
    flows enter at ``R_0`` and exit behind ``R_K`` (crossing every
    segment); *cross* flows load exactly one segment each.  Segment
    rates may be heterogeneous (``segment_rates_bps``), per-link
    buffers follow the AIMD buffer-sizing rule
    (:func:`repro.sim.routing.aimd_buffer_bytes`, arXiv cs/0703063),
    and flow RTTs are numpy-drawn uniformly over
    ``[rtt_min, rtt_max]`` (heterogeneous, unlike the dumbbell's even
    spread).  The pulse attacker's path spans the contiguous
    ``attack_segments`` -- one segment reproduces the single-bottleneck
    question, several reproduce the converging-attack-path scenarios
    the optimal-filtering literature motivates.

    Frozen (hashable and picklable) so a config can key the experiment
    runner's result cache and ship to worker processes unchanged.
    """

    n_segments: int = 2
    long_flows: int = 8
    cross_flows: int = 4
    bottleneck_rate_bps: float = mbps(15)
    segment_rates_bps: Tuple[float, ...] = ()
    access_rate_bps: float = mbps(50)
    segment_delay: float = ms(4)
    receiver_access_delay: float = ms(1)
    rtt_min: float = ms(60)
    rtt_max: float = ms(460)
    buffer_beta: float = 0.5
    attack_segments: Tuple[int, ...] = (0,)
    queue_factory: Callable[..., QueueDiscipline] = None  # type: ignore[assignment]
    tcp: TCPConfig = dataclasses.field(default_factory=TCPConfig)
    attacker_access_rate_bps: float = mbps(1000)
    seed: int = 1
    scheduler: str = dataclasses.field(default="auto", compare=False)

    def __post_init__(self) -> None:
        if self.n_segments < 1:
            raise ConfigurationError(
                f"n_segments must be >= 1, got {self.n_segments}"
            )
        if self.long_flows < 1:
            raise ConfigurationError(
                f"long_flows must be >= 1, got {self.long_flows}"
            )
        if self.cross_flows < 0:
            raise ConfigurationError(
                f"cross_flows must be >= 0, got {self.cross_flows}"
            )
        check_positive("bottleneck_rate_bps", self.bottleneck_rate_bps)
        check_positive("access_rate_bps", self.access_rate_bps)
        if self.segment_rates_bps and (
                len(self.segment_rates_bps) != self.n_segments):
            raise ConfigurationError(
                f"segment_rates_bps needs {self.n_segments} entries, "
                f"got {len(self.segment_rates_bps)}"
            )
        segments = self.attack_segments
        if not segments:
            raise ConfigurationError("attack_segments must not be empty")
        if list(segments) != list(range(segments[0], segments[-1] + 1)):
            raise ConfigurationError(
                f"attack_segments must be a contiguous ascending span "
                f"(the attack path crosses them in order), got {segments}"
            )
        if segments[0] < 0 or segments[-1] >= self.n_segments:
            raise ConfigurationError(
                f"attack_segments {segments} outside 0..{self.n_segments - 1}"
            )
        fixed = 2.0 * (self.n_segments * self.segment_delay
                       + self.receiver_access_delay)
        if not fixed < self.rtt_min <= self.rtt_max:
            raise ConfigurationError(
                f"need rtt_min > fixed path delay {fixed * 1e3:.0f}ms and "
                f"rtt_min <= rtt_max, got [{self.rtt_min}, {self.rtt_max}]"
            )
        if self.long_flows + self.n_segments * self.cross_flows >= 10_000:
            raise ConfigurationError(
                "TCP flow ids must stay below the attack id range (10000)"
            )
        if self.queue_factory is None:
            object.__setattr__(self, "queue_factory", make_red_queue)

    def segment_rates(self) -> Tuple[float, ...]:
        """Per-segment chain rates (resolved heterogeneous list)."""
        if self.segment_rates_bps:
            return tuple(float(r) for r in self.segment_rates_bps)
        return (float(self.bottleneck_rate_bps),) * self.n_segments

    def attacked_rate_bps(self) -> float:
        """The tightest attacked segment's rate: the γ normalizer."""
        rates = self.segment_rates()
        return min(rates[j] for j in self.attack_segments)

    def draw_rtts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Numpy-drawn flow RTTs: ``(long[L], cross[K, X])``, seconds.

        A pure function of the seed, so experiment platforms can
        recompute the victim population without building the network.
        """
        rng = np.random.default_rng(self.seed)
        long_rtts = rng.uniform(self.rtt_min, self.rtt_max, self.long_flows)
        cross_rtts = rng.uniform(
            self.rtt_min, self.rtt_max,
            (self.n_segments, self.cross_flows),
        )
        return long_rtts, cross_rtts


class ParkingLotNetwork:
    """A built parking-lot chain: routers, per-segment bottlenecks, flows.

    Exposes the same measurement interface as
    :class:`DumbbellNetwork` (``start_flows`` / ``add_attack`` /
    ``run`` / ``aggregate_goodput_bytes`` / ``state_digest``), so
    runner cells, warm-start snapshots, the convergence monitor, and
    the flight recorder work unchanged.  The *victim population* is
    the long flows (they cross every attacked link);
    :meth:`aggregate_goodput_bytes` measures exactly those, keeping
    gain curves comparable across topologies with different cross
    traffic.
    """

    def __init__(self, config: ParkingLotConfig) -> None:
        self.config = config
        self.sim = Simulator(scheduler=config.scheduler)
        self.rng = random.Random(config.seed)
        #: vectorized start-jitter stream (distinct from the RED rng).
        self.np_rng = np.random.default_rng((config.seed, 1))
        Packet.reset_uids()

        self.long_rtts, self.cross_rtts = config.draw_rtts()
        self.topo = GraphTopology(self.sim)
        self._build_nodes()
        self._build_links()
        self.topo.compile_routes()
        self._build_flows()
        self.attack_sources: List[PulseAttackSource] = []
        self._next_attack_flow_id = 10_000

    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        cfg = self.config
        topo = self.topo
        k, l, x = cfg.n_segments, cfg.long_flows, cfg.cross_flows
        self.routers = [topo.add_node(f"R{j}") for j in range(k + 1)]
        self.long_sender_nodes = [
            topo.add_node(f"longSender{i}") for i in range(l)
        ]
        self.long_receiver_nodes = [
            topo.add_node(f"longReceiver{i}") for i in range(l)
        ]
        self.cross_sender_nodes = [
            [topo.add_node(f"crossSender{j}_{i}") for i in range(x)]
            for j in range(k)
        ]
        self.cross_receiver_nodes = [
            [topo.add_node(f"crossReceiver{j}_{i}") for i in range(x)]
            for j in range(k)
        ]
        first = cfg.attack_segments[0]
        last = cfg.attack_segments[-1]
        self.attacker_node = topo.add_node("attacker")
        self.attack_sink_node = topo.add_node("attackSink")
        self._attack_entry = self.routers[first]
        self._attack_exit = self.routers[last + 1]

    def _build_links(self) -> None:
        cfg = self.config
        topo = self.topo
        k, x = cfg.n_segments, cfg.cross_flows
        rates = cfg.segment_rates()
        access_buffer = 4_000_000.0
        long_fixed = (k * cfg.segment_delay + cfg.receiver_access_delay)
        cross_fixed = (cfg.segment_delay + cfg.receiver_access_delay)

        def host_pair(sender, receiver, entry, exit_, rtt, fixed, label):
            """Duplex access wiring for one sender/receiver host pair."""
            access_delay = rtt / 2.0 - fixed
            topo.add_duplex_link(
                sender, entry, rate_bps=cfg.access_rate_bps,
                delay=access_delay, queue=DropTailQueue(access_buffer),
                queue_back=DropTailQueue(access_buffer),
                name=f"{label}->in",
            )
            topo.add_duplex_link(
                exit_, receiver, rate_bps=cfg.access_rate_bps,
                delay=cfg.receiver_access_delay,
                queue=DropTailQueue(access_buffer),
                queue_back=DropTailQueue(access_buffer),
                name=f"{label}->out",
            )

        for i, rtt in enumerate(self.long_rtts):
            host_pair(self.long_sender_nodes[i], self.long_receiver_nodes[i],
                      self.routers[0], self.routers[k], float(rtt),
                      long_fixed, f"long{i}")
        for j in range(k):
            for i in range(x):
                host_pair(self.cross_sender_nodes[j][i],
                          self.cross_receiver_nodes[j][i],
                          self.routers[j], self.routers[j + 1],
                          float(self.cross_rtts[j, i]), cross_fixed,
                          f"cross{j}_{i}")

        # The chain: one AQM bottleneck per segment, buffer from the
        # AIMD rule at the mean RTT of the flows crossing it.
        self.segment_links: List[Link] = []
        self.segment_return_links: List[Link] = []
        self.segment_queues: List[QueueDiscipline] = []
        n_sharing = cfg.long_flows + cfg.cross_flows
        for j in range(k):
            crossing = [self.long_rtts]
            if x:
                crossing.append(self.cross_rtts[j])
            mean_rtt = float(np.mean(np.concatenate(crossing)))
            buffer_bytes = aimd_buffer_bytes(
                rates[j], mean_rtt, n_sharing, beta=cfg.buffer_beta,
            )
            queue = cfg.queue_factory(
                buffer_bytes, rng=self.rng, service_rate_bps=rates[j],
            )
            self.segment_queues.append(queue)
            forward, backward = topo.add_duplex_link(
                self.routers[j], self.routers[j + 1], rate_bps=rates[j],
                delay=cfg.segment_delay, queue=queue,
                queue_back=DropTailQueue(4_000_000.0),
                name=f"segment{j}",
            )
            self.segment_links.append(forward)
            self.segment_return_links.append(backward)

        self.attacker_link = topo.add_link(
            self.attacker_node, self._attack_entry,
            rate_bps=cfg.attacker_access_rate_bps, delay=ms(1),
            queue=DropTailQueue(16_000_000.0), name="attacker->in",
        )
        self.attack_sink_link = topo.add_link(
            self._attack_exit, self.attack_sink_node,
            rate_bps=cfg.attacker_access_rate_bps, delay=ms(1),
            queue=DropTailQueue(16_000_000.0), name="out->attackSink",
        )

    def _build_flows(self) -> None:
        cfg = self.config
        k, l, x = cfg.n_segments, cfg.long_flows, cfg.cross_flows
        self.senders: List[TCPSender] = []
        self.receivers: List[TCPReceiver] = []
        for i in range(l):
            self.senders.append(TCPSender(
                self.sim, self.long_sender_nodes[i], i,
                receiver_node_id=self.long_receiver_nodes[i].node_id,
                config=cfg.tcp,
            ))
            self.receivers.append(TCPReceiver(
                self.sim, self.long_receiver_nodes[i], i,
                sender_node_id=self.long_sender_nodes[i].node_id,
                config=cfg.tcp,
            ))
        self.cross_senders: List[TCPSender] = []
        self.cross_receivers: List[TCPReceiver] = []
        flow_id = l
        for j in range(k):
            for i in range(x):
                self.cross_senders.append(TCPSender(
                    self.sim, self.cross_sender_nodes[j][i], flow_id,
                    receiver_node_id=self.cross_receiver_nodes[j][i].node_id,
                    config=cfg.tcp,
                ))
                self.cross_receivers.append(TCPReceiver(
                    self.sim, self.cross_receiver_nodes[j][i], flow_id,
                    sender_node_id=self.cross_sender_nodes[j][i].node_id,
                    config=cfg.tcp,
                ))
                flow_id += 1

    # ------------------------------------------------------------------
    # scenario control (DumbbellNetwork-compatible surface)
    # ------------------------------------------------------------------
    def start_flows(self, *, stagger: float = 0.1) -> None:
        """Start every TCP flow with a vectorized start jitter."""
        senders = self.senders + self.cross_senders
        jitters = self.np_rng.uniform(0.0, stagger, len(senders))
        now = self.sim.now
        for sender, jitter in zip(senders, jitters):
            sender.start(at=now + float(jitter))

    def add_attack(self, train: PulseTrain, *,
                   packet_bytes: float = FULL_PACKET_BYTES,
                   start_time: float = 0.0) -> PulseAttackSource:
        """Attach (but do not start) a pulse source crossing the attacked span."""
        flow_id = self._next_attack_flow_id
        self._next_attack_flow_id += 1
        self.attack_sink_node.register_agent(flow_id, _discard_packet)
        source = PulseAttackSource(
            self.sim, self.attacker_node, flow_id,
            self.attack_sink_node.node_id, train,
            packet_bytes=packet_bytes, start_time=start_time,
        )
        self.attack_sources.append(source)
        return source

    def run(self, until: float) -> None:
        """Advance to *until*, publishing telemetry when metrics are on."""
        self.sim.run(until=until)
        registry = _obs_metrics.active()
        if registry is not None:
            links = {
                f"segment{j}": self.segment_links[j]
                for j in range(self.config.n_segments)
            }
            links["attacker"] = self.attacker_link
            publish_network(
                registry, links=links,
                senders=self.senders + self.cross_senders,
                nodes=self.topo.nodes.values(),
            )

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    @property
    def bottleneck(self) -> Link:
        """The tightest attacked chain link (recorder/detector target)."""
        rates = self.config.segment_rates()
        j = min(self.config.attack_segments, key=lambda s: rates[s])
        return self.segment_links[j]

    @property
    def reverse_bottleneck(self) -> Link:
        rates = self.config.segment_rates()
        j = min(self.config.attack_segments, key=lambda s: rates[s])
        return self.segment_return_links[j]

    def attacked_rate_bps(self) -> float:
        """Rate of the tightest attacked segment (γ normalizer)."""
        return self.config.attacked_rate_bps()

    def state_digest(self) -> tuple:
        """Fingerprint of the whole scenario's dynamic state.

        Same protocol as :meth:`DumbbellNetwork.state_digest`, extended
        with the numpy jitter stream's state so warm-start forks resume
        the vectorized draws exactly.
        """
        return (
            self.sim.state_digest(),
            self.rng.getstate(),
            repr(self.np_rng.bit_generator.state),
            Packet.peek_uid(),
            tuple(link.state_digest() for link in self.topo.links),
            tuple(s.state_digest()
                  for s in self.senders + self.cross_senders),
            tuple(r.state_digest()
                  for r in self.receivers + self.cross_receivers),
            self._next_attack_flow_id,
        )

    def flow_rtts(self) -> np.ndarray:
        """Propagation RTTs of the victim (long) flows, seconds."""
        return self.long_rtts

    def aggregate_goodput_bytes(self) -> float:
        """Payload bytes delivered across the victim (long) flows."""
        return float(sum(s.goodput_bytes() for s in self.senders))

    def total_goodput_bytes(self) -> float:
        """Payload bytes delivered across every TCP flow (incl. cross)."""
        return float(sum(
            s.goodput_bytes() for s in self.senders + self.cross_senders
        ))

    def goodput_snapshot(self) -> np.ndarray:
        """Per-victim-flow delivered payload bytes."""
        return np.array([s.goodput_bytes() for s in self.senders])


def build_parking_lot(
    config: Optional[ParkingLotConfig] = None,
) -> ParkingLotNetwork:
    """Construct a parking-lot / N-bottleneck chain scenario."""
    return ParkingLotNetwork(
        config if config is not None else ParkingLotConfig()
    )
