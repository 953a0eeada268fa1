"""Packet-level discrete-event network simulator (the ns-2 substrate).

The paper validates its analysis with ns-2 2.28; this package provides
the equivalent substrate built from scratch:

* :mod:`repro.sim.engine` -- the event scheduler;
* :mod:`repro.sim.packet` -- segment-granular packets;
* :mod:`repro.sim.link` / :mod:`repro.sim.queues` -- links with
  serialization + propagation and DropTail / RED buffering;
* :mod:`repro.sim.node` -- static forwarding;
* :mod:`repro.sim.tcp` -- general-AIMD TCP (Tahoe/Reno/NewReno/SACK);
* :mod:`repro.sim.attacker` -- pulse-train and CBR sources;
* :mod:`repro.sim.workload` -- finite-transfer ("mice") workloads;
* :mod:`repro.sim.topology` -- the scenario :class:`Network` and the
  dumbbell (Fig. 5) and parking-lot builders;
* :mod:`repro.sim.checkpoint` -- warm-start snapshot/fork of a built
  network (simulate a shared warm-up once, fork each sweep cell);
* :mod:`repro.sim.trace` -- a link's one observation hook, its
  arrival rows ``(time, queue_bytes, queue_packets, signed_size,
  flow_id, accepted)``, and their binning into the offered-load
  series.
"""

from repro.sim.attacker import CBRSource, PulseAttackSource
from repro.sim.checkpoint import NetworkSnapshot
from repro.sim.engine import Event, Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import (
    CHOKeQueue,
    DropTailQueue,
    QueueDiscipline,
    REDQueue,
)
from repro.sim.tcp import AIMDParams, TCPConfig, TCPReceiver, TCPSender, TCPVariant
from repro.sim.topology import (
    DumbbellConfig,
    DumbbellNetwork,
    Network,
    build_dumbbell,
    make_droptail_queue,
    make_red_queue,
)
from repro.sim.trace import RateMonitor
from repro.sim.workload import FlowRecord, ShortFlowWorkload

__all__ = [
    "AIMDParams",
    "CBRSource",
    "CHOKeQueue",
    "DropTailQueue",
    "DumbbellConfig",
    "DumbbellNetwork",
    "Event",
    "FlowRecord",
    "Link",
    "Network",
    "NetworkSnapshot",
    "Node",
    "Packet",
    "PacketKind",
    "PulseAttackSource",
    "QueueDiscipline",
    "REDQueue",
    "RateMonitor",
    "ShortFlowWorkload",
    "Simulator",
    "TCPConfig",
    "TCPReceiver",
    "TCPSender",
    "TCPVariant",
    "build_dumbbell",
    "make_droptail_queue",
    "make_red_queue",
]
