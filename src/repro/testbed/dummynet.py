"""Dummynet pipe emulation and the Fig. 11 test-bed topology.

Dummynet (Rizzo 1997, the paper's reference [20]) intercepts packets and
forces them through configurable *pipes*: a bandwidth limit, a
propagation delay, and a finite queue.  :class:`DummynetPipe` captures a
pipe configuration; :func:`build_testbed` assembles the paper's Fig. 11:

* legitimate user hosts and the attacker on 100 Mb/s links into the
  Dummynet box;
* a 10 Mb/s / 150 ms RTT pipe from the box to the victim, with a RED
  queue sized by the rule-of-thumb ``B = RTT × R_bottle`` and the
  Section-4.2 RED parameters (min_th = 0.2B, max_th = 0.8B, w_q = 0.002,
  max_p = 0.1, gentle);
* 10 victim TCP flows (Iperf) from the users to the victim host.

Node id layout (M flows)::

    0            Dummynet box (ingress router)
    1            victim-side of the pipe (egress router)
    2 .. M+1     user hosts
    M+2          victim host
    M+3          attacker host
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional

import numpy as np

from repro.core.attack import PulseTrain
from repro.obs import metrics as _obs_metrics
from repro.obs.instrument import publish_network
from repro.sim.attacker import PulseAttackSource
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import FULL_PACKET_BYTES
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, QueueDiscipline, REDQueue
from repro.sim.tcp import TCPConfig, TCPReceiver, TCPSender, TCPVariant
from repro.util.errors import ConfigurationError
from repro.util.units import mbps, ms
from repro.util.validate import check_positive

__all__ = ["DummynetPipe", "TestbedConfig", "TestbedNetwork", "build_testbed"]


@dataclasses.dataclass(frozen=True)
class DummynetPipe:
    """One Dummynet pipe: ``ipfw pipe N config bw <bw> delay <delay> ...``.

    Attributes:
        bandwidth_bps: the pipe's rate limit.
        delay: one-way added delay, seconds.
        queue_bytes: the pipe's buffer; Dummynet accepts a byte size.
    """

    bandwidth_bps: float
    delay: float
    queue_bytes: float

    def __post_init__(self) -> None:
        check_positive("bandwidth_bps", self.bandwidth_bps)
        check_positive("delay", self.delay)
        check_positive("queue_bytes", self.queue_bytes)

    @classmethod
    def rule_of_thumb(cls, bandwidth_bps: float, rtt: float) -> "DummynetPipe":
        """Buffer by ``B = RTT × R_bottle`` (Appenzeller et al., cited §4.2)."""
        check_positive("rtt", rtt)
        return cls(
            bandwidth_bps=bandwidth_bps,
            delay=rtt / 2.0,
            queue_bytes=rtt * bandwidth_bps / 8.0,
        )

    def red_queue(self, rng: Optional[random.Random] = None) -> REDQueue:
        """The Section-4.2 RED configuration over this pipe's buffer."""
        return REDQueue(
            self.queue_bytes,
            min_th=0.2 * self.queue_bytes,
            max_th=0.8 * self.queue_bytes,
            max_p=0.1,
            w_q=0.002,
            gentle=True,
            byte_mode=True,
            mean_pkt_bytes=FULL_PACKET_BYTES,
            service_rate_bps=self.bandwidth_bps,
            rng=rng,
        )

    def droptail_queue(self) -> DropTailQueue:
        """A drop-tail queue of the same buffer (ablation baseline)."""
        return DropTailQueue(self.queue_bytes)


def _linux_tcp_config() -> TCPConfig:
    """The Section-4.2 host stack: NewReno, delayed ACKs, 200 ms min RTO."""
    return TCPConfig(
        variant=TCPVariant.NEWRENO,
        delayed_ack=2,
        min_rto=0.2,
    )


@dataclasses.dataclass(frozen=True)
class TestbedConfig:
    """Parameters of the Fig. 11 test-bed.

    Frozen (hashable and picklable) so a config can key the experiment
    runner's result cache and ship to worker processes unchanged.
    """

    __test__ = False  # not a pytest class, despite the name

    n_flows: int = 10
    pipe: DummynetPipe = dataclasses.field(
        default_factory=lambda: DummynetPipe.rule_of_thumb(mbps(10), 0.3)
    )
    lan_rate_bps: float = mbps(100)
    lan_delay: float = ms(0.5)
    tcp: TCPConfig = dataclasses.field(default_factory=_linux_tcp_config)
    use_red: bool = True
    seed: int = 7
    #: scheduler backend for the simulator ("heap", "calendar" or
    #: "auto").  Excluded from equality/hash: backends dispatch
    #: bit-identically, so the choice must not split the runner's
    #: result-cache keys.
    scheduler: str = dataclasses.field(default="auto", compare=False)

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ConfigurationError(f"n_flows must be >= 1, got {self.n_flows}")
        check_positive("lan_rate_bps", self.lan_rate_bps)

    def rtt(self) -> float:
        """Nominal flow RTT: the pipe delay both ways plus LAN hops."""
        return 2.0 * (self.pipe.delay + 2.0 * self.lan_delay)


class TestbedNetwork:
    """The built Fig. 11 scenario."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.sim = Simulator(scheduler=config.scheduler)
        self.rng = random.Random(config.seed)
        # Fresh uid stream per scenario: identical reruns trace identically.
        Packet.reset_uids()

        m = config.n_flows
        self.dummynet = Node(self.sim, 0, "dummynet")
        self.pipe_egress = Node(self.sim, 1, "pipeEgress")
        self.user_nodes = [Node(self.sim, 2 + i, f"user{i}") for i in range(m)]
        self.victim_node = Node(self.sim, 2 + m, "victim")
        self.attacker_node = Node(self.sim, 3 + m, "attacker")

        self._build_links()
        self._build_routes()
        self._build_flows()
        self.attack_sources: List[PulseAttackSource] = []
        self._next_attack_flow_id = 10_000

    # ------------------------------------------------------------------
    def _build_links(self) -> None:
        cfg = self.config
        sim = self.sim
        lan_buffer = 4_000_000.0

        self.user_links = []
        self.user_return_links = []
        for i, user in enumerate(self.user_nodes):
            self.user_links.append(Link(
                sim, user, self.dummynet, cfg.lan_rate_bps, cfg.lan_delay,
                DropTailQueue(lan_buffer), name=f"user{i}->dummynet",
            ))
            self.user_return_links.append(Link(
                sim, self.dummynet, user, cfg.lan_rate_bps, cfg.lan_delay,
                DropTailQueue(lan_buffer), name=f"dummynet->user{i}",
            ))

        pipe = cfg.pipe
        self.pipe_queue: QueueDiscipline = (
            pipe.red_queue(self.rng) if cfg.use_red else pipe.droptail_queue()
        )
        self.pipe_link = Link(
            sim, self.dummynet, self.pipe_egress, pipe.bandwidth_bps,
            pipe.delay, self.pipe_queue, name="pipe",
        )
        self.pipe_return_link = Link(
            sim, self.pipe_egress, self.dummynet, pipe.bandwidth_bps,
            pipe.delay, DropTailQueue(lan_buffer), name="pipe-reverse",
        )
        # Victim attachment: the 10 Mb/s victim link of Fig. 11.
        self.victim_link = Link(
            sim, self.pipe_egress, self.victim_node, pipe.bandwidth_bps,
            cfg.lan_delay, DropTailQueue(lan_buffer), name="egress->victim",
        )
        self.victim_return_link = Link(
            sim, self.victim_node, self.pipe_egress, pipe.bandwidth_bps,
            cfg.lan_delay, DropTailQueue(lan_buffer), name="victim->egress",
        )
        self.attacker_link = Link(
            sim, self.attacker_node, self.dummynet, cfg.lan_rate_bps,
            cfg.lan_delay, DropTailQueue(16_000_000.0), name="attacker->dummynet",
        )

    def _build_routes(self) -> None:
        m = self.config.n_flows
        victim_id = self.victim_node.node_id
        for i in range(m):
            user_id = 2 + i
            self.user_nodes[i].add_route(victim_id, self.dummynet.node_id)
            self.victim_node.add_route(user_id, self.pipe_egress.node_id)
            self.dummynet.add_route(victim_id, self.pipe_egress.node_id)
            self.pipe_egress.add_route(user_id, self.dummynet.node_id)
        self.pipe_egress.add_route(victim_id, victim_id)
        self.attacker_node.add_route(victim_id, self.dummynet.node_id)

    def _build_flows(self) -> None:
        cfg = self.config
        m = cfg.n_flows
        self.senders: List[TCPSender] = []
        self.receivers: List[TCPReceiver] = []
        for i in range(m):
            flow_id = i
            self.senders.append(TCPSender(
                self.sim, self.user_nodes[i], flow_id,
                receiver_node_id=self.victim_node.node_id, config=cfg.tcp,
            ))
            self.receivers.append(TCPReceiver(
                self.sim, self.victim_node, flow_id,
                sender_node_id=2 + i, config=cfg.tcp,
            ))

    # ------------------------------------------------------------------
    def start_flows(self, *, stagger: float = 0.5) -> None:
        """Start all Iperf flows, staggered like manual test-bed launches."""
        for sender in self.senders:
            sender.start(at=self.sim.now + self.rng.uniform(0.0, stagger))

    def add_attack(self, train: PulseTrain, *,
                   packet_bytes: float = FULL_PACKET_BYTES,
                   start_time: float = 0.0) -> PulseAttackSource:
        """Attach (but do not start) a pulse-train attack toward the victim."""
        flow_id = self._next_attack_flow_id
        self._next_attack_flow_id += 1
        self.victim_node.register_agent(flow_id, _discard_packet)
        source = PulseAttackSource(
            self.sim, self.attacker_node, flow_id, self.victim_node.node_id,
            train, packet_bytes=packet_bytes, start_time=start_time,
        )
        self.attack_sources.append(source)
        return source

    def run(self, until: float) -> None:
        """Advance the emulation to absolute time *until*.

        As on the dumbbell, an active metrics registry receives a
        snapshot of the pipe and the TCP flows after each run segment.
        """
        self.sim.run(until=until)
        registry = _obs_metrics.active()
        if registry is not None:
            publish_network(registry, links={
                "pipe": self.pipe_link,
                "pipe_reverse": self.pipe_return_link,
                "attacker": self.attacker_link,
            }, senders=self.senders)

    def state_digest(self) -> tuple:
        """Fingerprint of the whole scenario's dynamic state.

        Same contract as ``DumbbellNetwork.state_digest``: equal digests
        mean two networks evolve identically from here on.
        """
        links = [*self.user_links, *self.user_return_links,
                 self.pipe_link, self.pipe_return_link,
                 self.victim_link, self.victim_return_link,
                 self.attacker_link]
        return (
            self.sim.state_digest(),
            self.rng.getstate(),
            Packet.peek_uid(),
            tuple(link.state_digest() for link in links),
            tuple(s.state_digest() for s in self.senders),
            tuple(r.state_digest() for r in self.receivers),
            self._next_attack_flow_id,
        )

    def flow_rtts(self) -> np.ndarray:
        """Nominal RTT of every flow (identical paths in the test-bed)."""
        return np.full(self.config.n_flows, self.config.rtt())

    def aggregate_goodput_bytes(self) -> float:
        """Total payload bytes delivered across all flows so far."""
        return float(sum(sender.goodput_bytes() for sender in self.senders))


def _discard_packet(_packet) -> None:
    """Victim agent for attack datagrams (they target a closed port)."""


def build_testbed(config: Optional[TestbedConfig] = None) -> TestbedNetwork:
    """Construct the Fig. 11 test-bed scenario."""
    return TestbedNetwork(config if config is not None else TestbedConfig())
