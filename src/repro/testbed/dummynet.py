"""Dummynet pipe emulation and the Fig. 11 test-bed topology.

Dummynet (Rizzo 1997, the paper's reference [20]) intercepts packets and
forces them through configurable *pipes*: a bandwidth limit, a
propagation delay, and a finite queue.  :class:`DummynetPipe` captures a
pipe configuration; :func:`build_testbed` wires the paper's Fig. 11 on a
:class:`~repro.sim.routing.GraphTopology` and returns a
:class:`~repro.sim.topology.Network`:

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
from typing import Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.queues import DropTailQueue
from repro.sim.routing import GraphTopology
from repro.sim.tcp import TCPConfig, TCPVariant
from repro.sim.topology import (QUEUE_FACTORIES, Network, gc_paused,
                                tcp_flows)
from repro.util.errors import ConfigurationError
from repro.util.units import mbps, ms
from repro.util.validate import check_positive

__all__ = ["DummynetPipe", "TestbedConfig", "build_testbed"]


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

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ConfigurationError(f"n_flows must be >= 1, got {self.n_flows}")
        check_positive("lan_rate_bps", self.lan_rate_bps)

    def rtt(self) -> float:
        """Nominal flow RTT: the pipe delay both ways plus LAN hops."""
        return 2.0 * (self.pipe.delay + 2.0 * self.lan_delay)

    def flow_rtts(self) -> np.ndarray:
        """Per-flow RTTs: every flow shares the nominal :meth:`rtt`."""
        return np.full(self.n_flows, self.rtt())

    def contested_rate_bps(self) -> float:
        """The pipe's rate: the γ normalizer."""
        return self.pipe.bandwidth_bps


@gc_paused()
def build_testbed(config: Optional[TestbedConfig] = None) -> Network:
    """Construct the Fig. 11 test-bed scenario.

    The pipe is the bottleneck; the victim host is the attack sink
    (attack datagrams target a closed port there).
    """
    cfg = config if config is not None else TestbedConfig()
    topo = GraphTopology(Simulator())
    rng = random.Random(cfg.seed)
    m = cfg.n_flows
    dummynet = topo.add_node("dummynet")
    egress = topo.add_node("pipeEgress")
    users = [topo.add_node(f"user{i}") for i in range(m)]
    victim = topo.add_node("victim")
    attacker = topo.add_node("attacker")

    # Links are wired in the order the network's state digest lists them.
    lan_buffer = 4_000_000.0
    pipe = cfg.pipe

    def lan(src, dst, rate_bps, delay, name, buffer=lan_buffer):
        return topo.add_link(src, dst, rate_bps=rate_bps, delay=delay,
                             queue=DropTailQueue(buffer), name=name)

    for i, user in enumerate(users):
        lan(user, dummynet, cfg.lan_rate_bps, cfg.lan_delay,
            f"user{i}->dummynet")
    for i, user in enumerate(users):
        lan(dummynet, user, cfg.lan_rate_bps, cfg.lan_delay,
            f"dummynet->user{i}")
    queue = QUEUE_FACTORIES["red" if cfg.use_red else "droptail"](
        pipe.queue_bytes, rng=rng, service_rate_bps=pipe.bandwidth_bps,
        byte_mode=True,
    )
    pipe_link = topo.add_link(dummynet, egress, rate_bps=pipe.bandwidth_bps,
                              delay=pipe.delay, queue=queue, name="pipe")
    pipe_return = lan(egress, dummynet, pipe.bandwidth_bps, pipe.delay,
                      "pipe-reverse")
    # Victim attachment: the 10 Mb/s victim link of Fig. 11.
    lan(egress, victim, pipe.bandwidth_bps, cfg.lan_delay, "egress->victim")
    lan(victim, egress, pipe.bandwidth_bps, cfg.lan_delay, "victim->egress")
    attacker_link = lan(attacker, dummynet, cfg.lan_rate_bps, cfg.lan_delay,
                        "attacker->dummynet", buffer=16_000_000.0)

    senders, receivers = tcp_flows(
        topo.sim, [(user, victim) for user in users], cfg.tcp)
    return Network(
        cfg, topo, rng, senders=senders, receivers=receivers,
        rtts=cfg.flow_rtts(),
        bottleneck=pipe_link, reverse_bottleneck=pipe_return,
        attacker_node=attacker, attack_sink_node=victim,
        labels={"pipe": pipe_link, "pipe_reverse": pipe_return,
                "attacker": attacker_link},
        bottleneck_label="pipe",
        # Staggered like manual test-bed launches.
        stagger=0.5,
    )
