"""Nodes and static forwarding.

A :class:`Node` is a router or host.  Forwarding is static: each node
holds one routing table, a dense list ``_next_send`` indexed by
destination node id whose entries are the *bound* ``Link.send`` of the
outgoing interface, so a hop is one indexed load and one call.  Hosts
with a single outgoing interface use an O(1) *default route*
``_default_send`` instead of a dense table (a 10k-host scenario must
not hold 10k tables of 20k entries each).  Hosts additionally host
*agents* (TCP senders/receivers, attack sources) keyed by flow id; a
packet whose ``dst`` equals the node id is delivered to the agent
registered for its flow.

Links resolve each delivery against the next node's table at send time
(see :meth:`repro.sim.link.Link.send`); :meth:`Node.receive` serves
buffer-tracking links and direct calls.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.sim.packet import Packet
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

__all__ = ["Node"]


class Node:
    """A network node (host or router).

    ``__slots__`` keeps the per-hop attribute loads in :meth:`send` off
    the instance-dict path.
    """

    __slots__ = (
        "sim", "node_id", "name", "_links", "_agents", "undeliverable",
        "_next_send", "_default_send",
    )

    def __init__(self, sim: "Simulator", node_id: int, name: str = "") -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"n{node_id}"
        #: outgoing interface per immediate next-hop node id.
        self._links: Dict[int, "Link"] = {}
        #: flow id -> receive callback for locally terminated packets.
        self._agents: Dict[int, Callable[[Packet], None]] = {}
        #: packets that arrived with no registered agent or route.
        self.undeliverable = 0
        #: dense dst-id-indexed table of bound ``Link.send`` callables
        #: (``None`` entries mean "no specific route").
        self._next_send: List[Optional[Callable[[Packet], bool]]] = []
        #: fallback for destinations absent from the table (typical for
        #: single-homed hosts); ``None`` means unroutable.
        self._default_send: Optional[Callable[[Packet], bool]] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_link(self, neighbor_id: int, link: "Link") -> None:
        """Register *link* as the interface toward *neighbor_id*.

        Called automatically by :class:`~repro.sim.link.Link`.  A second
        link toward the same neighbor is rejected: routes name next-hop
        nodes, so parallel links could not be told apart.
        """
        if neighbor_id in self._links:
            raise ConfigurationError(
                f"{self.name}: already has a link toward {link.dst.name} "
                f"(n{neighbor_id}); parallel links are not supported"
            )
        self._links[neighbor_id] = link
        # A neighbor is trivially routable via the direct link, unless
        # an explicit route was installed first.
        table = self._next_send
        if neighbor_id >= len(table) or table[neighbor_id] is None:
            self._table_set(neighbor_id, link)

    def add_route(self, dst_id: int, next_hop_id: int) -> None:
        """Route packets for *dst_id* via the link to *next_hop_id*."""
        link = self._links.get(next_hop_id)
        if link is None:
            raise ConfigurationError(
                f"{self.name}: no link toward next hop n{next_hop_id}"
            )
        self._table_set(dst_id, link)

    def set_default_route(self, next_hop_id: int) -> None:
        """Route destinations with no specific table entry via *next_hop_id*.

        The O(1) routing state for single-homed hosts: a leaf behind one
        access link forwards everything through it, so it needs no
        per-destination entries at all.  Explicit opt-in -- a node
        without a default still counts unroutable packets in
        :attr:`undeliverable`.
        """
        link = self._links.get(next_hop_id)
        if link is None:
            raise ConfigurationError(
                f"{self.name}: no link toward next hop n{next_hop_id}"
            )
        self._default_send = link.send

    def _table_set(self, dst_id: int, link: "Link") -> None:
        """Install one route into the dense table."""
        table = self._next_send
        if dst_id >= len(table):
            table.extend([None] * (dst_id + 1 - len(table)))
        table[dst_id] = link.send

    def register_agent(self, flow_id: int, deliver: Callable[[Packet], None]) -> None:
        """Deliver locally terminated packets of *flow_id* to *deliver*.

        Agents must be registered before traffic toward them is in
        flight: links resolve the agent when the packet enters its
        final link, not at delivery time.  Every scenario builder
        registers agents at flow-creation time, before the flow's first
        transmission.
        """
        if flow_id in self._agents:
            raise ConfigurationError(
                f"{self.name}: flow {flow_id} already has an agent"
            )
        self._agents[flow_id] = deliver

    def register_agents(
        self, agents: Mapping[int, Callable[[Packet], None]],
    ) -> None:
        """Bulk-register agents (one dict merge, not one call per flow).

        Used by vectorized scenario setup; duplicate flow ids raise,
        matching :meth:`register_agent`.
        """
        existing = self._agents
        duplicates = existing.keys() & agents.keys()
        if duplicates:
            raise ConfigurationError(
                f"{self.name}: flows {sorted(duplicates)} already have agents"
            )
        existing.update(agents)

    def link_to(self, neighbor_id: int) -> "Link":
        """The direct link toward *neighbor_id* (raises if absent)."""
        try:
            return self._links[neighbor_id]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no link toward n{neighbor_id}"
            ) from None

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _outbound(self, dst_id: int) -> Optional["Link"]:
        """The outgoing link toward *dst_id*, or ``None`` if unroutable.

        For inspection (:meth:`GraphTopology.path
        <repro.sim.routing.GraphTopology.path>`); :meth:`send` and
        :meth:`Link.send <repro.sim.link.Link.send>` inline the same
        lookup -- specific route first, default route as fallback.
        """
        table = self._next_send
        send = table[dst_id] if dst_id < len(table) else None
        if send is None:
            send = self._default_send
            if send is None:
                return None
        return send.__self__

    def _drop_undeliverable(self, _packet: Packet) -> None:
        """Terminal for unroutable/agent-less packets."""
        self.undeliverable += 1

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving from a link (or locally injected).

        Only hops through buffer-tracking links (and direct calls)
        dispatch through here; every other link resolved the delivery
        callable at send time.
        """
        if packet.dst == self.node_id:
            agent = self._agents.get(packet.flow_id)
            if agent is None:
                self.undeliverable += 1
                return
            agent(packet)
            return
        self.send(packet)

    def send(self, packet: Packet) -> None:
        """Send *packet* toward its destination via the routing table.

        Packets with no route are counted in :attr:`undeliverable` and
        silently discarded, matching a router's behaviour rather than
        crashing mid-simulation.
        """
        dst = packet.dst
        table = self._next_send
        send = table[dst] if dst < len(table) else None
        if send is None:
            send = self._default_send
            if send is None:
                self.undeliverable += 1
                return
        send(packet)

    def metrics_snapshot(self) -> dict:
        """Node-level telemetry for the observability layer."""
        return {"undeliverable_packets": float(self.undeliverable)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} links={sorted(self._links)}>"
