"""Scenario networks and their builders.

Every scenario is one :class:`Network`: the simulator, a
:class:`~repro.sim.routing.GraphTopology` wired with compiled static
shortest-path routes, the TCP flows, and the measurement protocol the
runner, the warm-start checkpointing, the convergence monitor and the
flight recorder share (``start_flows`` / ``add_attack`` / ``run`` /
``aggregate_goodput_bytes`` / ``state_digest``).  A scenario is its
frozen config dataclass plus one builder that wires the topology and
hands :class:`Network` the per-scenario facts as data:

* :func:`build_dumbbell` -- the paper's simulation topology (Fig. 5):
  ``M`` TCP sender/receiver pairs on 50 Mb/s access links, a 15 Mb/s
  RED bottleneck between routers S and R, flow RTTs spread over
  20-460 ms, and an attacker whose pulses cross the bottleneck toward a
  sink behind router R;
* :func:`build_parking_lot` -- a chain of routers with per-segment
  bottlenecks (the "parking lot" of the multi-bottleneck literature):
  long flows traverse every segment, local cross traffic loads
  individual segments, per-link buffers follow the AIMD buffer-sizing
  rule (:func:`repro.sim.routing.aimd_buffer_bytes`), and the pulse
  attacker's path may span one or several bottleneck links;
* :func:`repro.testbed.dummynet.build_testbed` -- the Dummynet
  test-bed of Fig. 11.

Dumbbell node id layout (M flows)::

    0            router S
    1            router R
    2 .. M+1     TCP sender hosts
    M+2 .. 2M+1  TCP receiver hosts
    2M+2         attacker host
    2M+3         attack sink host
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import random
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core.attack import PulseTrain
from repro.obs import metrics as _obs_metrics
from repro.obs.instrument import publish_network
from repro.sim.attacker import PulseAttackSource
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import FULL_PACKET_BYTES, Packet
from repro.sim.queues import (
    CHOKeQueue,
    DropTailQueue,
    QueueDiscipline,
    REDQueue,
)
from repro.sim.routing import GraphTopology, aimd_buffer_bytes
from repro.sim.tcp import TCPConfig, TCPReceiver, TCPSender
from repro.util.errors import ConfigurationError
from repro.util.units import mbps, ms
from repro.util.validate import check_positive

__all__ = ["Network", "DumbbellConfig", "DumbbellNetwork", "build_dumbbell",
           "ParkingLotConfig", "build_parking_lot",
           "make_red_queue", "make_droptail_queue", "make_choke_queue",
           "QUEUE_FACTORIES", "FULL_PACKET_BYTES", "tcp_flows"]


def _red_family_queue(cls: type, capacity_bytes: float, *,
                      rng: Optional[random.Random] = None,
                      service_rate_bps: Optional[float] = None,
                      mean_pkt_bytes: float = FULL_PACKET_BYTES,
                      byte_mode: bool = False):
    """*cls* (RED or a subclass) with :func:`make_red_queue`'s parameters."""
    if byte_mode:
        buffer = capacity_bytes
    else:
        buffer = capacity_bytes / mean_pkt_bytes
    return cls(
        capacity_bytes,
        min_th=0.2 * buffer,
        max_th=0.8 * buffer,
        max_p=0.1,
        w_q=0.002,
        gentle=True,
        byte_mode=byte_mode,
        mean_pkt_bytes=mean_pkt_bytes,
        service_rate_bps=service_rate_bps,
        rng=rng,
    )


def make_red_queue(capacity_bytes: float, **kwargs) -> REDQueue:
    """A RED queue configured like the paper's test-bed (Section 4.2).

    Thresholds at 20% / 80% of the buffer, ``w_q = 0.002``,
    ``max_p = 0.1``, ``gentle_ = true``.  In packet mode (the ns-2
    default) the byte fractions are converted to packet counts using the
    mean packet size; ``byte_mode=True`` keeps them in bytes (the
    Dummynet pipe).  Keywords: ``rng``, ``service_rate_bps``,
    ``mean_pkt_bytes`` (default one full packet) and ``byte_mode``.
    """
    return _red_family_queue(REDQueue, capacity_bytes, **kwargs)


def make_droptail_queue(capacity_bytes: float, **_ignored) -> DropTailQueue:
    """A drop-tail queue of the same physical capacity (ablation baseline)."""
    return DropTailQueue(capacity_bytes)


def make_choke_queue(capacity_bytes: float, **kwargs) -> CHOKeQueue:
    """A CHOKe queue with the same thresholds as :func:`make_red_queue`.

    The pulse-resistant AQM evaluated by the RED-hardening defense
    experiment (the direction the paper's conclusion motivates).
    """
    return _red_family_queue(CHOKeQueue, capacity_bytes, **kwargs)


#: Queue-discipline name -> factory.  The names are what experiment
#: platforms and runner cells use to reference a discipline: a name
#: serializes into a cache key and pickles to a worker, a callable does
#: not (reliably).
QUEUE_FACTORIES = {
    "red": make_red_queue,
    "droptail": make_droptail_queue,
    "choke": make_choke_queue,
}


class gc_paused:
    """Keep CPython's cyclic collector out of a scenario build or digest.

    A context manager, also usable as ``@gc_paused()``.  A build
    allocates one large object graph that holds no garbage: left on,
    the collector rescans the growing graph in every young and several
    full collections.  Inside the block it is paused.  On exit, by
    return or exception:

    * if the block allocated at least a quarter of all tracked objects
      (CPython's own full-collection ratio), every object is promoted
      to the oldest generation (``freeze`` then ``unfreeze``), so the
      young collections of the run that follows do not rescan the new
      graph.  Smaller blocks leave the generations alone, so the full
      collections of later runs still come due;
    * the collector is re-enabled, and nothing is allocated before
      control returns: a digest its caller drops is freed by reference
      counting before any collection can start.

    A no-op if the collector is already off (which makes nesting one),
    and it never promotes while the caller has frozen objects.
    Collection timing never changes simulation results.
    """

    def __enter__(self) -> None:
        self._young = gc.get_count()[0] if gc.isenabled() else None
        gc.disable()

    def __exit__(self, *_exc) -> None:
        if self._young is None:
            return
        # With the collector off, the gen-0 count grows by one per
        # net tracked allocation.  A block smaller than one gen-1 cycle
        # of allocations reaches the oldest generation within that
        # cycle anyway, so only a larger one pays to count the heap
        # (a list of every tracked object).
        allocated = gc.get_count()[0] - self._young
        young0, young1, _ = gc.get_threshold()
        if (allocated > young0 * young1 and not gc.get_freeze_count()
                and 4 * allocated >= len(gc.get_objects())):
            gc.freeze()
            gc.unfreeze()
        gc.enable()

    def __call__(self, func):
        @functools.wraps(func)
        def paused(*args, **kwargs):
            with gc_paused():
                return func(*args, **kwargs)
        return paused


class Network:
    """A built scenario: simulator, wiring, TCP flows, measurement.

    Builders construct it; it does not know which scenario it serves.
    On construction it compiles the topology's routes and starts a
    fresh packet uid stream, so identical rebuilds trace identically.

    Args:
        config: the scenario's frozen config dataclass.
        topo: the wired topology; its simulator is the network's.
        rng: the scenario RNG (flow-start jitter, RED coin flips).
        senders, receivers: the *victim* TCP flows, the ones
            :meth:`aggregate_goodput_bytes` measures.
        rtts: the victim flows' propagation RTTs, seconds.
        bottleneck, reverse_bottleneck: the contested link (the
            recorder's and detectors' target) and its return link.
        attacker_node: the host :meth:`add_attack` sources send from.
        attack_sink_node: where attack datagrams terminate.
        labels: telemetry label -> link, published by :meth:`run`.
        bottleneck_label: the recorder's label for :attr:`bottleneck`;
            :attr:`reverse_bottleneck` gets ``_reverse`` appended.
        cross_senders, cross_receivers: every other TCP flow.
        stagger: :meth:`start_flows`' default jitter span, seconds.
        jitter_rng: a numpy stream that draws all start jitters in
            one vectorized call; ``None`` draws them one by one from
            *rng*.
    """

    def __init__(
        self,
        config,
        topo: GraphTopology,
        rng: random.Random,
        *,
        senders: List[TCPSender],
        receivers: List[TCPReceiver],
        rtts: np.ndarray,
        bottleneck: Link,
        reverse_bottleneck: Link,
        attacker_node: Node,
        attack_sink_node: Node,
        labels: Mapping[str, Link],
        bottleneck_label: str = "bottleneck",
        cross_senders: Sequence[TCPSender] = (),
        cross_receivers: Sequence[TCPReceiver] = (),
        stagger: float = 0.1,
        jitter_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config
        self.topo = topo
        self.sim: Simulator = topo.sim
        self.rng = rng
        self.senders = senders
        self.receivers = receivers
        self.cross_senders = list(cross_senders)
        self.cross_receivers = list(cross_receivers)
        self._rtts = rtts
        self.bottleneck = bottleneck
        self.reverse_bottleneck = reverse_bottleneck
        self.attacker_node = attacker_node
        self.attack_sink_node = attack_sink_node
        self.labels = dict(labels)
        self.bottleneck_label = bottleneck_label
        self.stagger = stagger
        self.jitter_rng = jitter_rng
        self.attack_sources: List[PulseAttackSource] = []
        self._next_attack_flow_id = 10_000
        topo.compile_routes()
        Packet.reset_uids()

    # ------------------------------------------------------------------
    # scenario control
    # ------------------------------------------------------------------
    def start_flows(self, *, stagger: Optional[float] = None) -> None:
        """Start every TCP flow after a random jitter in ``[0, stagger)``.

        The jitter avoids a synchronized start; *stagger* defaults to
        the scenario's own (0.5 s on the test-bed, like manual
        launches; 0.1 s elsewhere).
        """
        if stagger is None:
            stagger = self.stagger
        senders = self.senders + self.cross_senders
        if self.jitter_rng is None:
            uniform = self.rng.uniform
            jitters = [uniform(0.0, stagger) for _ in senders]
        else:
            jitters = self.jitter_rng.uniform(
                0.0, stagger, len(senders)).tolist()
        now = self.sim.now
        for sender, jitter in zip(senders, jitters):
            sender.start(at=now + jitter)

    def add_attack(self, train: PulseTrain, *,
                   packet_bytes: float = FULL_PACKET_BYTES,
                   start_time: float = 0.0) -> PulseAttackSource:
        """Attach (but do not start) a pulse-train attack source."""
        return self._attack_source(self.attacker_node, train,
                                   packet_bytes, start_time)

    def _attack_source(self, host: Node, train: PulseTrain,
                       packet_bytes: float,
                       start_time: float) -> PulseAttackSource:
        flow_id = self._next_attack_flow_id
        self._next_attack_flow_id += 1
        self.attack_sink_node.register_agent(flow_id, _discard_packet)
        source = PulseAttackSource(
            self.sim, host, flow_id, self.attack_sink_node.node_id, train,
            packet_bytes=packet_bytes, start_time=start_time,
        )
        self.attack_sources.append(source)
        return source

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time *until*.

        When metrics are enabled, the labelled links, the TCP flock and
        the nodes are snapshotted into the active registry after each
        run segment (warm-up, measurement window) -- once per segment,
        never per event, so the disabled path is a single ``is None``
        check.
        """
        self.sim.run(until=until)
        registry = _obs_metrics.active()
        if registry is not None:
            publish_network(registry, links=self.labels,
                            senders=self.senders + self.cross_senders,
                            nodes=self.topo.nodes.values())

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    @gc_paused()
    def state_digest(self) -> tuple:
        """Fingerprint of the whole scenario's dynamic state.

        Combines the engine calendar, the scenario RNG streams, the
        process-global packet uid stream, every link and queue of the
        topology (in wiring order), and every TCP agent.  Warm-start
        checkpointing asserts a forked network's digest matches the
        original's -- equal digests mean the two evolve identically
        from here.
        """
        streams: tuple = (self.rng.getstate(),)
        if self.jitter_rng is not None:
            streams += (repr(self.jitter_rng.bit_generator.state),)
        return (
            self.sim.state_digest(),
            *streams,
            Packet.peek_uid(),
            tuple(link.state_digest() for link in self.topo.links),
            tuple(s.state_digest()
                  for s in self.senders + self.cross_senders),
            tuple(r.state_digest()
                  for r in self.receivers + self.cross_receivers),
            self._next_attack_flow_id,
        )

    def flow_rtts(self) -> np.ndarray:
        """Propagation RTT of each victim flow, seconds (as configured)."""
        return self._rtts

    def aggregate_goodput_bytes(self) -> float:
        """Total payload bytes delivered across the victim flows so far."""
        return float(sum(sender.goodput_bytes() for sender in self.senders))

    def goodput_snapshot(self) -> np.ndarray:
        """Per-victim-flow delivered payload bytes (windowed measurements)."""
        return np.array([sender.goodput_bytes() for sender in self.senders])


def _discard_packet(_packet) -> None:
    """Attack-sink agent: attack datagrams terminate here."""


def tcp_flows(sim: Simulator, pairs: Iterable[Tuple[Node, Node]],
              config: TCPConfig, *, first_flow_id: int = 0,
              ) -> Tuple[List[TCPSender], List[TCPReceiver]]:
    """One bulk TCP flow per ``(sender_host, receiver_host)`` pair.

    Flow ids count up from *first_flow_id* in pair order.
    """
    senders: List[TCPSender] = []
    receivers: List[TCPReceiver] = []
    for flow_id, (sender, receiver) in enumerate(pairs, first_flow_id):
        senders.append(TCPSender(sim, sender, flow_id,
                                 receiver_node_id=receiver.node_id,
                                 config=config))
        receivers.append(TCPReceiver(sim, receiver, flow_id,
                                     sender_node_id=sender.node_id,
                                     config=config))
    return senders, receivers


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

    def contested_rate_bps(self) -> float:
        """The contested link's rate: the γ normalizer."""
        return self.bottleneck_rate_bps


class DumbbellNetwork(Network):
    """The Fig. 5 dumbbell: a :class:`Network` that can attach hosts
    mid-scenario (mice pairs, DDoS attacker hosts).

    Routers S and R are the bottleneck's endpoints.
    """

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
        router_s, router_r = self.bottleneck.src, self.bottleneck.dst
        sender_host = topo.add_node(f"host{topo.next_node_id}")
        receiver_host = topo.add_node(f"host{topo.next_node_id}")
        topo.add_duplex_link(sender_host, router_s,
                             rate_bps=cfg.access_rate_bps, delay=access_delay,
                             queue=DropTailQueue(buffer),
                             queue_back=DropTailQueue(buffer))
        topo.add_duplex_link(router_r, receiver_host,
                             rate_bps=cfg.access_rate_bps,
                             delay=cfg.receiver_access_delay,
                             queue=DropTailQueue(buffer),
                             queue_back=DropTailQueue(buffer))
        # Mid-scenario attachment: the hosts are single-homed (default
        # route through their access link); only the routers learn the
        # new destinations.
        sender_host.set_default_route(router_s.node_id)
        receiver_host.set_default_route(router_r.node_id)
        router_s.add_route(receiver_host.node_id, router_r.node_id)
        router_r.add_route(sender_host.node_id, router_s.node_id)
        return sender_host, receiver_host

    def add_attacker_host(self) -> Node:
        """Attach an additional attack-source host (for DDoS scenarios)."""
        cfg = self.config
        router_s = self.bottleneck.src
        node = self.topo.add_node(f"attacker{self.topo.next_node_id}")
        self.topo.add_link(
            node, router_s, rate_bps=cfg.attacker_access_rate_bps,
            delay=ms(1), queue=DropTailQueue(16_000_000.0),
            name=f"{node.name}->S",
        )
        node.set_default_route(router_s.node_id)
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
            source = self._attack_source(
                self.add_attacker_host(), train, packet_bytes,
                start_time + offset,
            )
            source.start()
            sources.append(source)
        return sources

    @gc_paused()
    def state_digest(self) -> tuple:
        # Attached hosts draw their node ids from the topology's counter.
        return super().state_digest() + (self.topo.next_node_id,)


@gc_paused()
def build_dumbbell(config: Optional[DumbbellConfig] = None) -> DumbbellNetwork:
    """Construct the Fig. 5 dumbbell scenario."""
    cfg = config if config is not None else DumbbellConfig()
    topo = GraphTopology(Simulator())
    rng = random.Random(cfg.seed)
    m = cfg.n_flows
    router_s = topo.add_node("routerS")
    router_r = topo.add_node("routerR")
    sender_nodes = [topo.add_node(f"sender{i}") for i in range(m)]
    receiver_nodes = [topo.add_node(f"receiver{i}") for i in range(m)]
    attacker = topo.add_node("attacker")
    attack_sink = topo.add_node("attackSink")

    # One-way fixed components of the path: bottleneck + receiver
    # access.  All flow-specific delay goes on the sender access link
    # so the configured RTT spread is achieved exactly.
    rtts = cfg.flow_rtts()
    fixed_one_way = cfg.bottleneck_delay + cfg.receiver_access_delay
    access_delays = []
    for i, rtt in enumerate(rtts):
        access_delay = rtt / 2.0 - fixed_one_way
        if access_delay <= 0:
            raise ConfigurationError(
                f"flow {i}: RTT {rtt * 1e3:.0f}ms too small for the fixed "
                f"path delay {2 * fixed_one_way * 1e3:.0f}ms"
            )
        access_delays.append(access_delay)

    # Links are wired in the order state_digest() lists them.
    access_buffer = 4_000_000.0  # generous; only the bottleneck drops

    def access(src, dst, delay, name):
        topo.add_link(src, dst, rate_bps=cfg.access_rate_bps, delay=delay,
                      queue=DropTailQueue(access_buffer), name=name)

    for i, delay in enumerate(access_delays):
        access(sender_nodes[i], router_s, delay, f"sender{i}->S")
    for i, delay in enumerate(access_delays):
        access(router_s, sender_nodes[i], delay, f"S->sender{i}")
    for i, receiver in enumerate(receiver_nodes):
        access(router_r, receiver, cfg.receiver_access_delay,
               f"R->receiver{i}")
    for i, receiver in enumerate(receiver_nodes):
        access(receiver, router_r, cfg.receiver_access_delay,
               f"receiver{i}->R")

    # The contested bottleneck S->R, plus the (ACK-carrying) reverse path.
    bottleneck = topo.add_link(
        router_s, router_r, rate_bps=cfg.bottleneck_rate_bps,
        delay=cfg.bottleneck_delay,
        queue=cfg.queue_factory(cfg.buffer_bytes, rng=rng,
                                service_rate_bps=cfg.bottleneck_rate_bps),
        name="bottleneck",
    )
    reverse_bottleneck = topo.add_link(
        router_r, router_s, rate_bps=cfg.bottleneck_rate_bps,
        delay=cfg.bottleneck_delay, queue=DropTailQueue(4_000_000.0),
        name="bottleneck-reverse",
    )
    attacker_link = topo.add_link(
        attacker, router_s, rate_bps=cfg.attacker_access_rate_bps,
        delay=ms(1), queue=DropTailQueue(16_000_000.0), name="attacker->S",
    )
    topo.add_link(
        router_r, attack_sink, rate_bps=cfg.attacker_access_rate_bps,
        delay=ms(1), queue=DropTailQueue(16_000_000.0), name="R->attackSink",
    )

    senders, receivers = tcp_flows(
        topo.sim, zip(sender_nodes, receiver_nodes), cfg.tcp)
    return DumbbellNetwork(
        cfg, topo, rng, senders=senders, receivers=receivers, rtts=rtts,
        bottleneck=bottleneck, reverse_bottleneck=reverse_bottleneck,
        attacker_node=attacker, attack_sink_node=attack_sink,
        labels={"bottleneck": bottleneck,
                "bottleneck_reverse": reverse_bottleneck,
                "attacker": attacker_link},
    )


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

    def contested_rate_bps(self) -> float:
        """The tightest attacked segment's rate: the γ normalizer."""
        rates = self.segment_rates()
        return min(rates[j] for j in self.attack_segments)

    def flow_rtts(self) -> np.ndarray:
        """The victim (long) flows' RTTs: ``draw_rtts()[0]``."""
        return self.draw_rtts()[0]

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


@gc_paused()
def build_parking_lot(config: Optional[ParkingLotConfig] = None) -> Network:
    """Construct a parking-lot / N-bottleneck chain scenario.

    The *victim population* is the long flows (they cross every
    attacked link): :meth:`Network.aggregate_goodput_bytes` measures
    exactly those, keeping gain curves comparable across topologies
    with different cross traffic.  The bottleneck is the tightest
    attacked segment.
    """
    cfg = config if config is not None else ParkingLotConfig()
    topo = GraphTopology(Simulator())
    rng = random.Random(cfg.seed)
    long_rtts, cross_rtts = cfg.draw_rtts()
    k, l, x = cfg.n_segments, cfg.long_flows, cfg.cross_flows

    routers = [topo.add_node(f"R{j}") for j in range(k + 1)]
    long_sender_nodes = [topo.add_node(f"longSender{i}") for i in range(l)]
    long_receiver_nodes = [
        topo.add_node(f"longReceiver{i}") for i in range(l)
    ]
    cross_sender_nodes = [
        [topo.add_node(f"crossSender{j}_{i}") for i in range(x)]
        for j in range(k)
    ]
    cross_receiver_nodes = [
        [topo.add_node(f"crossReceiver{j}_{i}") for i in range(x)]
        for j in range(k)
    ]
    attacker = topo.add_node("attacker")
    attack_sink = topo.add_node("attackSink")

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

    for i, rtt in enumerate(long_rtts):
        host_pair(long_sender_nodes[i], long_receiver_nodes[i],
                  routers[0], routers[k], float(rtt), long_fixed, f"long{i}")
    for j in range(k):
        for i in range(x):
            host_pair(cross_sender_nodes[j][i], cross_receiver_nodes[j][i],
                      routers[j], routers[j + 1], float(cross_rtts[j, i]),
                      cross_fixed, f"cross{j}_{i}")

    # The chain: one AQM bottleneck per segment, buffer from the AIMD
    # rule at the mean RTT of the flows crossing it.
    segments: List[Tuple[Link, Link]] = []
    n_sharing = cfg.long_flows + cfg.cross_flows
    for j in range(k):
        crossing = [long_rtts]
        if x:
            crossing.append(cross_rtts[j])
        mean_rtt = float(np.mean(np.concatenate(crossing)))
        buffer_bytes = aimd_buffer_bytes(
            rates[j], mean_rtt, n_sharing, beta=cfg.buffer_beta,
        )
        segments.append(topo.add_duplex_link(
            routers[j], routers[j + 1], rate_bps=rates[j],
            delay=cfg.segment_delay,
            queue=cfg.queue_factory(buffer_bytes, rng=rng,
                                    service_rate_bps=rates[j]),
            queue_back=DropTailQueue(4_000_000.0),
            name=f"segment{j}",
        ))

    first, last = cfg.attack_segments[0], cfg.attack_segments[-1]
    attacker_link = topo.add_link(
        attacker, routers[first],
        rate_bps=cfg.attacker_access_rate_bps, delay=ms(1),
        queue=DropTailQueue(16_000_000.0), name="attacker->in",
    )
    topo.add_link(
        routers[last + 1], attack_sink,
        rate_bps=cfg.attacker_access_rate_bps, delay=ms(1),
        queue=DropTailQueue(16_000_000.0), name="out->attackSink",
    )

    senders, receivers = tcp_flows(
        topo.sim, zip(long_sender_nodes, long_receiver_nodes), cfg.tcp)
    cross_senders, cross_receivers = tcp_flows(
        topo.sim,
        zip([node for row in cross_sender_nodes for node in row],
            [node for row in cross_receiver_nodes for node in row]),
        cfg.tcp, first_flow_id=l,
    )
    tightest = min(cfg.attack_segments, key=lambda j: rates[j])
    labels: Dict[str, Link] = {
        f"segment{j}": forward for j, (forward, _) in enumerate(segments)
    }
    labels["attacker"] = attacker_link
    return Network(
        cfg, topo, rng, senders=senders, receivers=receivers,
        rtts=cfg.flow_rtts(),
        bottleneck=segments[tightest][0],
        reverse_bottleneck=segments[tightest][1],
        attacker_node=attacker, attack_sink_node=attack_sink,
        labels=labels, cross_senders=cross_senders,
        cross_receivers=cross_receivers,
        # Vectorized start jitter, a stream distinct from the RED rng.
        jitter_rng=np.random.default_rng((cfg.seed, 1)),
    )
