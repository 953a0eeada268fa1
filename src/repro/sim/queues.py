"""Queue disciplines: DropTail and RED.

The paper's bottleneck router runs RED (ns-2's implementation, with
``gentle_ = true`` in the test-bed); the conclusion also compares against
drop-tail.  Both disciplines are implemented here.

Design note: the :class:`~repro.sim.link.Link` owns the physical FIFO and
its timing; a discipline only decides *accept or drop* for each arriving
packet, given the instantaneous queue state.  This mirrors the split in
ns-2 between ``Queue`` buffering and the RED early-drop logic, and it
lets the link use a lazy departure list (one event per packet) instead of
a per-dequeue event.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.util.errors import ValidationError
from repro.util.validate import check_non_negative, check_positive, check_probability

__all__ = ["QueueDiscipline", "DropTailQueue", "REDQueue", "CHOKeQueue", "QueueState"]


class QueueState:
    """Instantaneous queue state handed to a discipline on each arrival.

    Attributes:
        queue_bytes: bytes buffered (including the packet in transmission).
        queue_pkts: packets buffered (including the packet in transmission).
        now: current simulation time.
        idle_since: when the queue last went empty, or ``None`` if it is
            non-empty now.  RED uses this to decay its average over idle
            periods.
    """

    __slots__ = ("queue_bytes", "queue_pkts", "now", "idle_since")

    def __init__(self, queue_bytes: float, queue_pkts: int, now: float,
                 idle_since: Optional[float]) -> None:
        self.queue_bytes = queue_bytes
        self.queue_pkts = queue_pkts
        self.now = now
        self.idle_since = idle_since


class QueueDiscipline:
    """Base class: accept/drop decisions for an attached link buffer."""

    #: Physical buffer size in bytes; arrivals that would exceed it are
    #: dropped regardless of the discipline's early-drop logic.
    capacity_bytes: float

    #: Disciplines that inspect or evict buffered packets (e.g. CHOKe's
    #: match-and-drop) set this True; the link then tracks per-packet
    #: flow ids and calls :meth:`admit_with_link` instead of
    #: :meth:`admit`.
    needs_buffer_access = False

    def __init__(self, capacity_bytes: float) -> None:
        self.capacity_bytes = check_positive("capacity_bytes", capacity_bytes)
        self.drops = 0
        self.early_drops = 0
        self.accepts = 0

    def reset_counters(self) -> None:
        """Zero the drop/accept statistics (state such as RED's average stays)."""
        self.drops = 0
        self.early_drops = 0
        self.accepts = 0

    def metrics_snapshot(self) -> dict:
        """Cumulative admission telemetry (``disc_*`` keys).

        Subclasses extend this with their own state (RED's averaged
        queue, CHOKe's match-drops); the base counters cover every
        discipline.
        """
        return {
            "disc_accepts": float(self.accepts),
            "disc_drops": float(self.drops),
            "disc_early_drops": float(self.early_drops),
        }

    def state_digest(self) -> tuple:
        """Every value a future admission decision can depend on.

        Subclasses extend this with their dynamic state (RED's EWMA,
        inter-drop count, and RNG state); warm-start checkpointing
        compares digests to prove a forked discipline decides exactly
        like the original.
        """
        return (self.accepts, self.drops, self.early_drops)

    def admit(self, pkt_bytes: float, state: QueueState) -> bool:
        """Return True to enqueue the packet, False to drop it."""
        raise NotImplementedError

    def admit_with_link(self, packet, state: QueueState, link) -> bool:
        """Buffer-aware admission (only called when
        :attr:`needs_buffer_access` is True).  *link* exposes
        ``sample_buffered(rng)`` and ``evict(entry)``."""
        raise NotImplementedError

    # shared helper -----------------------------------------------------
    def _fits(self, pkt_bytes: float, state: QueueState) -> bool:
        return state.queue_bytes + pkt_bytes <= self.capacity_bytes


class DropTailQueue(QueueDiscipline):
    """Plain FIFO tail-drop buffer of a fixed byte capacity."""

    def admit(self, pkt_bytes: float, state: QueueState) -> bool:
        if self._fits(pkt_bytes, state):
            self.accepts += 1
            return True
        self.drops += 1
        return False


class REDQueue(QueueDiscipline):
    """Random Early Detection (Floyd & Jacobson 1993) with gentle mode.

    Implements the classic algorithm as in ns-2:

    * EWMA of the queue length, updated on every arrival with weight
      ``w_q``; an arrival ending an idle period first decays the average
      by ``(1 - w_q)**m`` -- ``m`` being the idle time divided by a
      typical packet transmission time -- and then applies the normal
      ``w_q`` update with its own queue sample, as ns-2 does.
    * Probabilistic early drop between ``min_th`` and ``max_th`` with the
      inter-drop count correction ``p_a = p_b / (1 - count * p_b)``.
    * ``gentle`` mode ramps the drop probability from ``max_p`` at
      ``max_th`` to 1 at ``2 * max_th`` instead of dropping everything.
    * Optional byte mode scales the drop probability by
      ``pkt_bytes / mean_pkt_bytes``.

    The thresholds ``min_th``/``max_th`` and the averaged queue are in
    packets by default (ns-2's convention) or in bytes when
    ``byte_mode=True`` (the paper's test-bed configures thresholds as
    fractions of the byte buffer).
    """

    def __init__(
        self,
        capacity_bytes: float,
        *,
        min_th: float,
        max_th: float,
        max_p: float = 0.1,
        w_q: float = 0.002,
        gentle: bool = True,
        byte_mode: bool = False,
        mean_pkt_bytes: float = 1000.0,
        service_rate_bps: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(capacity_bytes)
        self.min_th = check_positive("min_th", min_th)
        self.max_th = check_positive("max_th", max_th)
        if max_th <= min_th:
            raise ValidationError(
                f"max_th ({max_th}) must exceed min_th ({min_th})"
            )
        self.max_p = check_probability("max_p", max_p)
        self.w_q = check_probability("w_q", w_q)
        self.gentle = gentle
        self.byte_mode = byte_mode
        self.mean_pkt_bytes = check_positive("mean_pkt_bytes", mean_pkt_bytes)
        #: transmission time of a mean-size packet; sets the idle decay rate.
        if service_rate_bps is not None:
            check_positive("service_rate_bps", service_rate_bps)
            self._mean_service_time = mean_pkt_bytes * 8.0 / service_rate_bps
        else:
            self._mean_service_time = None
        self.rng = rng if rng is not None else random.Random(0)
        # dynamic state
        self.avg = 0.0
        self.count = -1  # packets since the last early drop; -1 = "fresh"

    def metrics_snapshot(self) -> dict:
        snap = super().metrics_snapshot()
        snap["red_avg_queue"] = self.avg
        return snap

    def state_digest(self) -> tuple:
        # The EWMA, the inter-drop count, and the coin-flip RNG decide
        # every future early drop; all three must survive a fork intact.
        return super().state_digest() + (
            self.avg, self.count, self.rng.getstate(),
        )

    def admit(self, pkt_bytes: float, state: QueueState) -> bool:
        return self.admit_values(
            pkt_bytes, state.queue_bytes, state.queue_pkts, state.now,
            state.idle_since,
        )

    def admit_values(self, pkt_bytes: float, queue_bytes: float,
                     queue_pkts: int, now: float,
                     idle_since: Optional[float]) -> bool:
        """RED admission on raw queue state, no :class:`QueueState` needed.

        The link's per-arrival hot path calls this directly: the EWMA
        update and the decision on the updated average, back to back.
        """
        return self._decide(
            pkt_bytes, queue_bytes,
            self._average(queue_bytes, queue_pkts, now, idle_since),
        )

    def _average(self, queue_bytes: float, queue_pkts: int, now: float,
                 idle_since: Optional[float]) -> float:
        """Fold the arrival's queue sample into the EWMA; return it."""
        q = queue_bytes if self.byte_mode else float(queue_pkts)
        w_q = self.w_q
        avg = self.avg
        if q <= 0 and idle_since is not None:
            # Queue has been idle; pretend m small packets went by.  As in
            # ns-2's estimator the decay only accounts for the idle
            # interval -- the arrival's own queue sample still folds into
            # the EWMA through the normal w_q update below.
            service = self._mean_service_time or 0.001
            m = max(0.0, (now - idle_since) / service)
            avg *= (1.0 - w_q) ** m
        avg = (1.0 - w_q) * avg + w_q * q
        self.avg = avg
        return avg

    def _decide(self, pkt_bytes: float, queue_bytes: float,
                avg: float) -> bool:
        """Accept or drop on the updated average *avg*.

        At most one ``rng.random()`` draw, and only on the ramp.
        """
        # Forced (overflow) drop; RED resets its count as ns-2 does.
        if queue_bytes + pkt_bytes > self.capacity_bytes:
            self.count = 0
            self.drops += 1
            return False

        # Base drop probability p_b from the average.
        min_th = self.min_th
        max_th = self.max_th
        if avg < min_th:
            self.count = -1
            self.accepts += 1
            return True
        if avg < max_th:
            p_b = self.max_p * (avg - min_th) / (max_th - min_th)
        elif self.gentle and avg < 2.0 * max_th:
            p_b = self.max_p + (1.0 - self.max_p) * (avg - max_th) / max_th
        else:
            # Past the (gentle) ramp: certain drop, no byte scaling.
            self.count = 0
            self.drops += 1
            self.early_drops += 1
            return False
        if self.byte_mode:
            p_b *= pkt_bytes / self.mean_pkt_bytes

        # Inter-drop count correction p_a = p_b / (1 - count * p_b).
        if p_b >= 1.0:
            self.count = 0
            self.drops += 1
            self.early_drops += 1
            return False
        if p_b > 0.0:
            count = self.count + 1
            self.count = count
            denominator = 1.0 - count * p_b
            p_a = 1.0 if denominator <= 0 else min(1.0, p_b / denominator)
            if self.rng.random() < p_a:
                self.count = 0
                self.drops += 1
                self.early_drops += 1
                return False
        else:
            self.count = -1

        self.accepts += 1
        return True


class CHOKeQueue(REDQueue):
    """CHOKe (Pan, Prabhakar & Psounis, INFOCOM 2000) on top of RED.

    The "enhancement to the RED algorithms" direction the paper's
    conclusion motivates: a stateless AQM that penalizes unresponsive
    high-rate flows -- exactly what a PDoS pulse source is.  When the
    averaged queue exceeds ``min_th``, each arrival is compared against
    a randomly drawn *buffered* packet; if both belong to the same flow,
    **both** are dropped (the buffered one is evicted).  Responsive TCP
    flows rarely self-match; a pulse source whose burst fills the queue
    matches itself constantly, so its own burst mostly annihilates
    itself instead of displacing TCP traffic.

    The regular RED early-drop logic still applies to arrivals that
    survive the match test, so CHOKe degrades gracefully to RED for
    well-behaved traffic mixes.

    Modelling note: the matched victim is sampled among *waiting*
    packets -- the in-service head is excluded, since a packet already
    on the wire cannot be recalled.
    """

    needs_buffer_access = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: arrivals dropped because they matched a buffered packet.
        self.match_drops = 0
        #: buffered packets evicted by a match.
        self.evictions = 0

    def metrics_snapshot(self) -> dict:
        snap = super().metrics_snapshot()
        snap["choke_match_drops"] = float(self.match_drops)
        snap["choke_evictions"] = float(self.evictions)
        return snap

    def state_digest(self) -> tuple:
        return super().state_digest() + (self.match_drops, self.evictions)

    def admit_with_link(self, packet, state: QueueState, link) -> bool:
        # RED's two steps with the match-and-drop test between them.
        avg = self._average(state.queue_bytes, state.queue_pkts, state.now,
                            state.idle_since)
        if avg > self.min_th:
            entry = link.sample_buffered(self.rng)
            if entry is not None and entry.flow_id == packet.flow_id:
                link.evict(entry)
                self.evictions += 1
                self.match_drops += 1
                self.drops += 1
                return False
        return self._decide(packet.size_bytes, state.queue_bytes, avg)
