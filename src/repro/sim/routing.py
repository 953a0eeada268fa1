"""Graph topologies and the compiled forwarding plane.

:class:`GraphTopology` builds arbitrary directed graphs of
:class:`~repro.sim.node.Node`\\ s and :class:`~repro.sim.link.Link`\\ s
and compiles static shortest-path routes into the per-node forwarding
state the hot path consumes:

* **Routers** (nodes with two or more outgoing interfaces) get a dense
  ``list``-indexed next-link table keyed by destination node id -- one
  indexed load per hop.
* **Hosts** (single outgoing interface) get an O(1) *default route*
  through their access link, so a 10k-host scenario carries no
  per-host tables at all.

Route selection is breadth-first shortest path over the directed link
graph with a deterministic tie-break: the BFS expands nodes in FIFO
order and each node's neighbors in ascending node-id order, so among
equal-length paths the one discovered through the lowest-id ancestry
wins.  Compilation is a pure function of the wiring -- compiling twice,
or on another machine, yields identical tables.

Loop freedom: every installed next hop lies on *some* shortest path, so
each hop strictly decreases the remaining BFS distance even when
different routers broke ties differently (a subpath of a shortest path
is itself shortest).

Links additionally resolve each delivery's continuation at send time
(see :meth:`repro.sim.link.Link.send`), eliminating the
``Node.receive`` frame per hop.

:func:`aimd_buffer_bytes` sizes per-link buffers from the AIMD
buffer-sizing rule (Avrachenkov, Ayesta & Piunovskiy, "Convergence and
Optimal Buffer Sizing for Window Based AIMD Congestion Control",
arXiv:cs/0703063), used by the heterogeneous multi-bottleneck
scenarios.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import FULL_PACKET_BYTES
from repro.sim.queues import QueueDiscipline
from repro.util.errors import ConfigurationError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["GraphTopology", "aimd_buffer_bytes"]


def aimd_buffer_bytes(
    rate_bps: float,
    rtt: float,
    n_flows: int = 1,
    *,
    beta: float = 0.5,
    floor_packets: float = 16.0,
    packet_bytes: float = FULL_PACKET_BYTES,
) -> float:
    """Per-link buffer from the AIMD buffer-sizing rule (arXiv cs/0703063).

    An AIMD(α, β) flow cuts its window to β·W on loss; the link stays
    busy through the cut iff the buffer absorbs the reduction:
    ``β·(C·T + B) >= C·T``, i.e. ``B >= C·T·(1 - β)/β`` -- the full
    bandwidth-delay product for standard TCP's β = 1/2, which is the
    paper's full-utilization buffer.  ``n_flows`` desynchronized flows
    share the burst statistically, scaling the requirement by
    ``1/sqrt(N)`` (the usual multiplexing reduction applied on top of
    the AIMD rule).  A small floor keeps very low-BDP links from
    degenerating to sub-packet buffers.

    Args:
        rate_bps: link rate C, bits per second.
        rtt: round-trip time T of the flows sharing the link, seconds
            (use the mean for a heterogeneous population).
        n_flows: long-lived AIMD flows sharing the link.
        beta: multiplicative-decrease factor (0.5 for standard TCP).
        floor_packets: minimum buffer, in packets of ``packet_bytes``.
    """
    if not 0.0 < beta < 1.0:
        raise ValidationError(f"beta must be in (0, 1), got {beta}")
    if rate_bps <= 0 or rtt <= 0:
        raise ValidationError(
            f"rate_bps and rtt must be positive, got {rate_bps}, {rtt}"
        )
    bdp_bytes = rate_bps * rtt / 8.0
    buffer = (1.0 - beta) / beta * bdp_bytes / math.sqrt(max(n_flows, 1))
    return max(buffer, floor_packets * packet_bytes)


class GraphTopology:
    """An arbitrary directed network graph with compiled static routes.

    Thin builder over :class:`~repro.sim.node.Node` /
    :class:`~repro.sim.link.Link`: it owns node-id assignment, records
    the wiring, and compiles shortest-path forwarding state.  Every
    scenario builder (dumbbell, parking lot, test-bed) wires one of
    these rather than nodes by hand.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.nodes: Dict[int, Node] = {}
        self.links: List[Link] = []
        #: id the next :meth:`add_node` assigns by default.
        self.next_node_id = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str = "", *,
                 node_id: Optional[int] = None) -> Node:
        """Create a node (sequential ids by default) and register it."""
        if node_id is None:
            node_id = self.next_node_id
        if node_id in self.nodes:
            raise ConfigurationError(f"node id {node_id} already exists")
        node = Node(self.sim, node_id, name)
        self.nodes[node_id] = node
        self.next_node_id = max(self.next_node_id, node_id + 1)
        return node

    def add_link(
        self,
        src: Node,
        dst: Node,
        *,
        rate_bps: float,
        delay: float,
        queue: Optional[QueueDiscipline] = None,
        name: str = "",
    ) -> Link:
        """Wire a unidirectional link and record it."""
        link = Link(self.sim, src, dst, rate_bps, delay, queue, name=name)
        self.links.append(link)
        return link

    def add_duplex_link(
        self,
        a: Node,
        b: Node,
        *,
        rate_bps: float,
        delay: float,
        queue: Optional[QueueDiscipline] = None,
        queue_back: Optional[QueueDiscipline] = None,
        name: str = "",
    ) -> Tuple[Link, Link]:
        """Two opposing links between *a* and *b* (forward queue optional)."""
        forward = self.add_link(a, b, rate_bps=rate_bps, delay=delay,
                                queue=queue, name=name)
        back_name = f"{name}-reverse" if name else ""
        backward = self.add_link(b, a, rate_bps=rate_bps, delay=delay,
                                 queue=queue_back, name=back_name)
        return forward, backward

    # ------------------------------------------------------------------
    # route compilation
    # ------------------------------------------------------------------
    def compile_routes(self) -> None:
        """Install shortest-path forwarding state on every node.

        Hosts (one outgoing interface) get a default route; routers get
        per-destination entries in the dense next-link table.
        Deterministic and idempotent; routes added explicitly afterwards
        (e.g. for nodes attached mid-scenario) layer on top via
        :meth:`~repro.sim.node.Node.add_route`.
        """
        adjacency = {
            node_id: sorted(node._links)
            for node_id, node in self.nodes.items()
        }
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            neighbors = adjacency[node_id]
            if not neighbors:
                continue  # pure sink: nothing to forward
            if len(neighbors) == 1:
                node.set_default_route(neighbors[0])
                continue
            for dst_id, hop_id in self._first_hops(
                    node_id, adjacency).items():
                node.add_route(dst_id, hop_id)

    def _first_hops(self, root: int,
                    adjacency: Dict[int, List[int]]) -> Dict[int, int]:
        """BFS first-hop table from *root* (ascending-id tie-break)."""
        first: Dict[int, int] = {}
        frontier: deque = deque()
        for neighbor in adjacency[root]:
            first[neighbor] = neighbor
            frontier.append(neighbor)
        while frontier:
            via = frontier.popleft()
            hop = first[via]
            for reached in adjacency.get(via, ()):
                if reached != root and reached not in first:
                    first[reached] = hop
                    frontier.append(reached)
        return first

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def path(self, src_id: int,
             dst_id: int) -> Optional[Tuple[Link, ...]]:
        """The compiled route src -> dst as a flat tuple of links.

        Walks the installed forwarding state hop by hop (exactly what
        the data path consults), so the returned tuple is the route
        packets actually take.  Returns ``None`` when the destination
        is unroutable from *src_id*; raises on a forwarding loop
        (impossible for compiled shortest-path routes, possible for
        hand-installed ones).
        """
        if src_id not in self.nodes or dst_id not in self.nodes:
            raise ConfigurationError(
                f"unknown endpoint in path({src_id}, {dst_id})"
            )
        hops: List[Link] = []
        node = self.nodes[src_id]
        visited = set()
        while node.node_id != dst_id:
            if node.node_id in visited:
                raise ConfigurationError(
                    f"forwarding loop at n{node.node_id} toward n{dst_id}"
                )
            visited.add(node.node_id)
            link = node._outbound(dst_id)
            if link is None:
                return None
            hops.append(link)
            node = link.dst
        return tuple(hops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GraphTopology {len(self.nodes)} nodes "
            f"{len(self.links)} links>"
        )
