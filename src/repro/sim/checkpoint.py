"""Warm-start checkpointing: freeze a simulated network, fork copies.

Every cell of a gain sweep begins the same way: build the scenario,
start the TCP flows, and simulate a multi-second warm-up so the flock
reaches congestion-avoidance equilibrium before the attack differs
between cells.  That shared prefix dominates runtime for short
measurement windows.  :class:`NetworkSnapshot` lets the runner simulate
the prefix once, freeze the fully-warmed network, and *fork* a private,
bit-identical copy for each cell.

Mechanism
---------
A built network is a closed object graph: the :class:`~repro.sim.engine.
Simulator` (clock, scheduler backend -- binary heap or calendar queue,
with its entries, freelist, and seq counter), every link's departure
queue and queue discipline (including RED averages and RNG), every TCP
agent (windows, timers, scoreboards, per-flow RNGs), and the scenario
RNG.  ``copy.deepcopy`` clones the whole graph in one traversal; its
memo dictionary preserves internal aliasing, so a calendar entry whose
callback is a bound method of a link lands on the *copied* link, and an
:class:`~repro.sim.engine.Event` handle held by a TCP agent aliases the
entry inside the copied backend (whichever backend structure holds it).
Both scheduler backends are plain slotted containers, so forks work --
and stay bit-identical -- under either; the warm-start tests pin the
round-trip per backend.  Two details need explicit care:

* the packet uid counter is a class-level global on
  :class:`~repro.sim.packet.Packet` (so uids are unique across helper
  objects); it is captured at snapshot time and re-seeded before each
  fork so every fork draws the identical uid stream;
* ``itertools.count`` cannot be read in place; the captured value comes
  from advancing a shallow copy.

Forks are bit-identical to simply continuing the original network --
the engine's :meth:`~repro.sim.engine.Simulator.state_digest` and the
network-level ``state_digest()`` protocols exist to assert exactly
that, and the warm-start tests pin it per queue discipline and TCP
variant.

Cost model: one deep copy of a warmed 15-flow dumbbell runs ~10-15 ms
while re-simulating its 6 s warm-up costs ~150-200 ms, so forking pays
for itself immediately for sweeps of two or more cells per prefix.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.sim.packet import Packet
from repro.util.errors import SimulationError

__all__ = ["NetworkSnapshot"]


class NetworkSnapshot:
    """An immutable frozen copy of a network mid-simulation.

    Args:
        net: the network to freeze (any object owning a ``sim``
            attribute -- a :class:`~repro.sim.topology.Network` from any
            scenario builder, or a test scenario).  Must not be inside
            :meth:`Simulator.run`.

    The snapshot holds the network alone.  Observers -- a flight
    recorder, a conformance detector -- attach to each fork, never to
    the frozen network.  The snapshot itself is one deep copy taken
    eagerly at construction, so later mutation of the original network
    cannot leak into forks.
    """

    def __init__(self, net: Any) -> None:
        sim = getattr(net, "sim", None)
        if sim is not None and getattr(sim, "_running", False):
            raise SimulationError(
                "cannot snapshot a network while its simulator is running; "
                "snapshot between run() segments"
            )
        #: packet uid the frozen network would draw next; re-seeded
        #: before every fork so uid streams are identical across forks.
        self._next_uid = Packet.peek_uid()
        #: simulation time at which the snapshot was taken.
        self.taken_at = 0.0 if sim is None else sim.now
        self._frozen = copy.deepcopy(net)
        self.forks = 0

    # ------------------------------------------------------------------
    def fork(self) -> Any:
        """A private, mutable copy of the frozen network.

        Restores the global packet uid counter to the snapshot's value
        first, so every fork -- and a from-scratch run of the same
        prefix -- draws the same uid sequence.
        """
        Packet.set_next_uid(self._next_uid)
        net = copy.deepcopy(self._frozen)
        self.forks += 1
        return net
