"""Unidirectional links with a FIFO buffer, serialization, and delay.

Timing model (identical to ns-2's ``DelayLink`` + ``Queue`` pair, but with
one scheduler event per packet):

* A packet arriving at a busy link waits in FIFO order; its departure
  time is ``max(now, busy_until) + size / rate`` and is fully determined
  at arrival, so the link keeps a *departure list* instead of scheduling
  a dequeue event per packet.
* The instantaneous queue occupancy seen by the discipline (RED's sampled
  queue length, drop-tail's fill check) is computed lazily by expiring
  entries from the departure list.
* After serialization the packet propagates for ``delay`` seconds and is
  then delivered to the destination node.

Each link is unidirectional; duplex connectivity uses two links.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import (
    CHOKeQueue,
    DropTailQueue,
    QueueDiscipline,
    REDQueue,
)
from repro.util.errors import ValidationError
from repro.util.validate import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

__all__ = ["Link", "LinkMonitor", "BufferedPacket"]

#: Signature of a link monitor callback: (packet, time, accepted).
LinkMonitor = Callable[[Packet, float, bool], None]

_ATTACK = PacketKind.ATTACK

#: The disciplines a link can hold, one admission path each in
#: :meth:`Link.send` (exact types: a subclass could override admission
#: that the link never calls).
_ADMISSION_TYPES = (DropTailQueue, REDQueue, CHOKeQueue)


class BufferedPacket:
    """A buffered packet's bookkeeping on buffer-tracking links.

    Indexable like the plain ``(departure, size)`` tuples of the fast
    path so the expiry loop handles both representations.
    """

    __slots__ = ("departure", "size_bytes", "packet", "event")

    def __init__(self, departure: float, size_bytes: float, packet: Packet,
                 event) -> None:
        self.departure = departure
        self.size_bytes = size_bytes
        self.packet = packet
        self.event = event

    @property
    def flow_id(self) -> int:
        return self.packet.flow_id

    def __getitem__(self, index: int) -> float:
        if index == 0:
            return self.departure
        if index == 1:
            return self.size_bytes
        raise IndexError(index)


class Link:
    """A unidirectional link from ``src`` to ``dst``.

    ``__slots__`` keeps per-packet attribute loads in :meth:`send` off
    the instance-dict path.

    Args:
        sim: the event engine.
        src / dst: endpoint nodes; the link auto-registers itself as
            ``src``'s outgoing interface toward ``dst``.
        rate_bps: serialization rate in bits per second.
        delay: one-way propagation delay in seconds.
        queue: buffer discipline -- exactly a :class:`DropTailQueue`,
            :class:`REDQueue` or :class:`CHOKeQueue`, each with its own
            admission path in :meth:`send`; any other type (a subclass
            included) raises :class:`ValidationError`.  Defaults to a
            64 KiB drop-tail queue.
        name: label used in traces and repr.
    """

    __slots__ = (
        "sim", "src", "dst", "rate_bps", "delay", "queue", "name",
        "_departures", "_queued_bytes", "_busy_until", "_track_buffer",
        "_tx_time", "_fast_admit", "_red_admit", "bytes_sent",
        "packets_sent", "bytes_dropped", "packets_dropped",
        "peak_queue_bytes", "monitors", "arrival_tap", "drop_tap",
        "_deliver",
    )

    def __init__(
        self,
        sim: "Simulator",
        src: "Node",
        dst: "Node",
        rate_bps: float,
        delay: float,
        queue: Optional[QueueDiscipline] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = check_positive("rate_bps", rate_bps)
        self.delay = check_non_negative("delay", delay)
        self.queue = queue if queue is not None else DropTailQueue(65536.0)
        self.name = name or f"{src.node_id}->{dst.node_id}"
        kind = type(self.queue)
        if kind not in _ADMISSION_TYPES:
            raise ValidationError(
                f"queue must be a DropTailQueue, REDQueue or CHOKeQueue, "
                f"got {kind.__name__}"
            )

        # Lazy departure list: (departure_time, size_bytes) per buffered pkt
        # -- or BufferedPacket entries when the discipline inspects the
        # buffer (CHOKe-style match-and-drop).
        self._departures: Deque = deque()
        self._queued_bytes = 0.0
        self._busy_until = 0.0
        self._track_buffer = kind is CHOKeQueue
        # Per-size serialization times, memoized with the exact
        # ``size * 8.0 / rate`` arithmetic so cached and uncached lookups
        # are bit-identical.  Traffic uses a handful of distinct sizes.
        self._tx_time: dict = {}
        # Plain tail-drop admission needs no idle bookkeeping; Link.send
        # inlines it.
        self._fast_admit = kind is DropTailQueue
        # RED admission on raw values, bound once.
        self._red_admit = (
            self.queue.admit_values if kind is REDQueue else None
        )

        # Statistics.
        self.bytes_sent = 0.0
        self.packets_sent = 0
        self.bytes_dropped = 0.0
        self.packets_dropped = 0
        self.peak_queue_bytes = 0.0

        #: Monitors invoked on every arrival at the link's ingress with
        #: ``(packet, time, accepted)``, for observers that need the
        #: packet itself: the ns-2 trace writer (seq, uid, endpoints)
        #: and the conformance detector (per-flow profiles).  Numeric
        #: time series come from :attr:`arrival_tap` instead.
        self.monitors: List[LinkMonitor] = []

        #: Flight-recorder fast tap (see :mod:`repro.obs.recorder`):
        #: when set, :meth:`send` feeds it one ``(time, queue_bytes,
        #: queue_packets, signed_size)`` row per arrival, where the
        #: size carries a negative sign for attack packets.  It must
        #: be a C-level callable (``list.append``) fed number-only
        #: tuples -- a Python callback per arrival costs more than the
        #: recorder's whole overhead budget, and a tuple holding a
        #: packet reference stays on the GC's scan list forever (the
        #: cyclic collector untracks number-only tuples after one
        #: survived collection).  ``None`` costs one pointer check.
        self.arrival_tap: Optional[Callable] = None

        #: Companion drop tap, fed ``(time, packet)`` per *dropped*
        #: arrival only -- checked inside the drop branch, so it is
        #: free on the accepted path.
        self.drop_tap: Optional[Callable] = None

        #: cached bound method: buffer-tracking links, whose evict()
        #: must be able to cancel and reschedule through one stable
        #: callable, dispatch deliveries to dst.receive.  Every other
        #: link resolves the delivery callable at send time.
        self._deliver = dst.receive

        src.attach_link(dst.node_id, self)

    # ------------------------------------------------------------------
    def _expire_departed(self, now: float) -> None:
        departures = self._departures
        while departures and departures[0][0] <= now:
            self._queued_bytes -= departures.popleft()[1]
        if not departures:
            self._queued_bytes = 0.0  # guard against float drift

    # ------------------------------------------------------------------
    # buffer access for match-and-drop disciplines (CHOKe)
    # ------------------------------------------------------------------
    def sample_buffered(self, rng) -> Optional["BufferedPacket"]:
        """A uniformly random *waiting* packet (in-service head excluded).

        Only available on links holding a :class:`CHOKeQueue`; returns
        None when nothing is waiting.
        """
        if not self._track_buffer or len(self._departures) < 2:
            return None
        index = rng.randrange(1, len(self._departures))
        return self._departures[index]

    def evict(self, entry: "BufferedPacket") -> None:
        """Drop a buffered packet chosen by the discipline.

        The link stays work-conserving: the evicted packet's transmission
        slot is reclaimed, so every packet queued behind it departs one
        serialization time earlier (their delivery events are
        rescheduled).  This is safe because packets queued behind a
        waiting packet were necessarily enqueued back-to-back -- no idle
        gap can exist behind a backlog.
        """
        # Expire finished transmissions first: a stale handle for a packet
        # that already departed must be a no-op, not a reschedule of
        # trailing deliveries into the past.
        self._expire_departed(self.sim._now)
        try:
            self._departures.remove(entry)
        except ValueError:
            return  # already departed; nothing to evict
        entry.event.cancel()
        self._queued_bytes -= entry.size_bytes
        reclaimed = self.transmission_time(entry.size_bytes)
        for other in self._departures:
            if other[0] > entry.departure:
                other.departure -= reclaimed
                other.event.cancel()
                other.event = self.sim.schedule_at(
                    other.departure + self.delay, self.dst.receive,
                    other.packet,
                )
        self._busy_until -= reclaimed
        # The evicted packet never reached the wire after all.
        self.bytes_sent -= entry.size_bytes
        self.packets_sent -= 1
        self.bytes_dropped += entry.size_bytes
        self.packets_dropped += 1

    @property
    def queue_bytes(self) -> float:
        """Current buffered bytes (including the packet in transmission)."""
        self._expire_departed(self.sim.now)
        return self._queued_bytes

    @property
    def queue_packets(self) -> int:
        """Current buffered packet count (including the one in transmission)."""
        self._expire_departed(self.sim.now)
        return len(self._departures)

    def transmission_time(self, size_bytes: float) -> float:
        """Serialization time of *size_bytes* on this link, seconds."""
        tx = self._tx_time.get(size_bytes)
        if tx is None:
            tx = self._tx_time[size_bytes] = size_bytes * 8.0 / self.rate_bps
        return tx

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer *packet* to the link; returns False if the buffer dropped it.

        This is the per-packet hot path (every hop of every packet lands
        here), so departed-entry expiry is fused in, the drop-tail admit
        check is inlined on the raw occupancy, and the monitor loop is
        skipped when nothing is attached.
        """
        sim = self.sim
        now = sim._now
        size = packet.size_bytes
        queue = self.queue

        # Expire entries that have finished serialization (was
        # _expire_departed; fused to keep the occupancy in a local).
        departures = self._departures
        queued = self._queued_bytes
        while departures and departures[0][0] <= now:
            queued -= departures.popleft()[1]
        if not departures:
            queued = 0.0  # guard against float drift
        self._queued_bytes = queued

        if self._fast_admit:
            # Drop-tail admission: fits-or-drop on raw occupancy.
            if queued + size <= queue.capacity_bytes:
                queue.accepts += 1
                accepted = True
            else:
                queue.drops += 1
                accepted = False
        else:
            idle_since: Optional[float] = None
            if not departures:
                # Idle since the last transmission finished (0.0 if never
                # used).
                busy = self._busy_until
                idle_since = busy if busy < now else now
            red_admit = self._red_admit
            if red_admit is not None:
                accepted = red_admit(
                    size, queued, len(departures), now, idle_since,
                )
            else:  # CHOKe
                accepted = queue.admit_with_link(
                    packet, queued, len(departures), now, idle_since, self,
                )

        tap = self.arrival_tap
        if tap is not None:
            # Flight-recorder row: `queued`/`departures` hold the
            # post-expiry occupancy excluding this packet; the append
            # mutates only the recorder's buffer, so digests are
            # unchanged.
            tap((now, queued, len(departures),
                 -size if packet.kind is _ATTACK else size))

        monitors = self.monitors
        if monitors:
            for monitor in monitors:
                monitor(packet, now, accepted)

        if not accepted:
            drop_tap = self.drop_tap
            if drop_tap is not None:
                drop_tap((now, packet))
            self.bytes_dropped += size
            self.packets_dropped += 1
            return False

        # Re-read busy/queued state: a match-and-drop discipline may have
        # evicted a buffered packet during admission.
        busy = self._busy_until
        start = now if busy < now else busy
        tx = self._tx_time.get(size)
        if tx is None:
            tx = self._tx_time[size] = size * 8.0 / self.rate_bps
        departure = start + tx
        self._busy_until = departure
        # Direct backend push: the delivery time can never precede the
        # clock (departure >= now and delay >= 0), so schedule_at's
        # past-check is statically satisfied and the entry goes straight
        # onto the active calendar backend.  Only buffer-tracking links
        # need an Event handle (evict() must cancel in-flight
        # deliveries); every other delivery is a transient entry that
        # the dispatch loop recycles through the backend's freelist.
        if self._track_buffer:
            event = sim._push_handle(
                departure + self.delay, self._deliver, (packet,))
            departures.append(BufferedPacket(departure, size, packet, event))
        else:
            # Resolve what Node.receive would do at the delivery time
            # *now* -- the next hop's bound Link.send or the terminal
            # agent (routes and agents are static once traffic toward
            # them is in flight -- see Node.register_agent) -- and
            # schedule that callable directly.  Same event time, same
            # seq, same effect as dispatching dst.receive, minus one
            # Python frame per hop.
            dst_node = self.dst
            d = packet.dst
            if d == dst_node.node_id:
                fn = dst_node._agents.get(packet.flow_id)
                if fn is None:
                    fn = dst_node._drop_undeliverable
            else:
                table = dst_node._next_send
                fn = table[d] if d < len(table) else None
                if fn is None:
                    fn = dst_node._default_send
                    if fn is None:
                        fn = dst_node._drop_undeliverable
            sim._push_transient(departure + self.delay, fn, (packet,))
            departures.append((departure, size))
        queued = self._queued_bytes + size
        self._queued_bytes = queued
        if queued > self.peak_queue_bytes:
            self.peak_queue_bytes = queued

        self.bytes_sent += size
        self.packets_sent += 1
        packet.hops += 1
        return True

    @property
    def utilization_bytes(self) -> float:
        """Total bytes accepted onto the wire so far."""
        return self.bytes_sent

    def state_digest(self) -> tuple:
        """Every value the link's future behaviour can depend on.

        Covers the serialization horizon, the lazy departure list (the
        physical FIFO), the cumulative statistics, and the attached
        discipline's own digest.  Warm-start checkpointing compares
        digests to prove a forked link carries and drops exactly like
        the original.
        """
        return (
            self._busy_until,
            self._queued_bytes,
            tuple((entry[0], entry[1]) for entry in self._departures),
            self.bytes_sent, self.packets_sent,
            self.bytes_dropped, self.packets_dropped,
            self.peak_queue_bytes,
            self.queue.state_digest(),
        )

    def metrics_snapshot(self) -> dict:
        """Cumulative link telemetry for the observability layer.

        Reads the counters :meth:`send` already maintains (plus the
        discipline's), so snapshotting costs nothing on the per-packet
        path.  Keys are stable: the store's ``metrics`` rows and
        ``repro obs report`` rely on them.
        """
        snap = {
            "accepted_bytes": self.bytes_sent,
            "accepted_packets": float(self.packets_sent),
            "dropped_bytes": self.bytes_dropped,
            "dropped_packets": float(self.packets_dropped),
            "peak_queue_bytes": self.peak_queue_bytes,
            "queue_bytes": self._queued_bytes,
            "queue_packets": float(len(self._departures)),
        }
        snap.update(self.queue.metrics_snapshot())
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.name} {self.rate_bps / 1e6:.1f}Mbps "
            f"{self.delay * 1e3:.1f}ms q={len(self._departures)}pkts>"
        )
