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
* :mod:`repro.sim.trace` -- binning of a link's arrival-tap rows into
  the offered-load series;
* :mod:`repro.sim.profile` -- cProfile wrapper reporting events/sec;
* :mod:`repro.sim.tracefile` -- ns-2-format trace file writer/parser.
"""

from repro.sim.attacker import CBRSource, PulseAttackSource
from repro.sim.checkpoint import NetworkSnapshot
from repro.sim.engine import Event, Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketKind
from repro.sim.profile import ProfileReport, profile_run
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
from repro.sim.tracefile import TraceRecord, TraceWriter, read_trace
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
    "ProfileReport",
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
    "TraceRecord",
    "TraceWriter",
    "build_dumbbell",
    "make_droptail_queue",
    "make_red_queue",
    "profile_run",
    "read_trace",
]
