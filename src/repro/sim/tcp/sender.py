"""TCP sender: slow start, general AIMD(a, b), fast retransmit/recovery, RTO.

The sender is bulk-transfer (always backlogged), segment-granular, and
ACK-clocked, like ns-2's one-way TCP agents.  Loss recovery follows the
configured :class:`~repro.sim.tcp.params.TCPVariant`:

* **Tahoe** -- on the third duplicate ACK, retransmit and fall back to
  slow start with ``cwnd = 1``.
* **Reno** -- fast recovery with window inflation; exits on the first
  new ACK (RFC 2581).
* **NewReno** -- stays in fast recovery across partial ACKs, retransmitting
  one hole per partial ACK (RFC 3782); this is the variant the paper's
  ns-2 experiments use.
* **SACK** -- scoreboard-driven recovery (RFC 2018 receiver blocks, an
  RFC 3517-style pipe rule, the RFC 6675 entry retransmission).

Congestion avoidance implements the paper's general AIMD(a, b): the
window grows by ``a / cwnd`` per new ACK (hence ``a`` per RTT, or
``a / d`` with delayed ACKs) and shrinks to ``b * cwnd`` on a
fast-recovery signal.  Timeouts always collapse the window to one
segment and slow-start (go-back-N, as in ns-2), with Jacobson/Karels
RTO estimation, Karn's rule, exponential backoff, and the optional
randomized-RTO defense.

Transfers are bulk (infinite) by default; pass ``transfer_segments``
for a finite flow with completion-time reporting (the short-flow
"mice" workloads build on this).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, TYPE_CHECKING

from repro.sim.packet import Packet, PacketKind, TCP_HEADER_BYTES
from repro.sim.tcp.params import TCPConfig, TCPVariant
from repro.sim.tcp.rto import RTOEstimator
from repro.sim.tcp.sack import Scoreboard

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

__all__ = ["TCPSender"]

#: Receiver echo value meaning "no usable RTT timestamp".
_NO_ECHO = -1.0

#: Duplicate-ACK threshold for fast retransmit (RFC 2581).
_DUPACK_THRESHOLD = 3

#: RFC 2581 floor on ssthresh, in segments.
_MIN_SSTHRESH = 2.0


class TCPSender:
    """A bulk-data TCP sender for one flow, registered on its host node.

    After construction call :meth:`start` (optionally at a scheduled
    time) to begin transmitting.  Statistics of interest afterwards:

    * :attr:`acked_segments` / :meth:`goodput_bytes` -- delivered data.
    * :attr:`timeouts`, :attr:`fast_retransmits` -- recovery events.

    The cwnd trajectory and recovery episodes over time reach the flight
    recorder through :attr:`telemetry`.
    """

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        flow_id: int,
        receiver_node_id: int,
        config: Optional[TCPConfig] = None,
        *,
        transfer_segments: Optional[int] = None,
        on_complete: Optional[Callable[["TCPSender"], None]] = None,
    ) -> None:
        """Args beyond the obvious:

        transfer_segments: finite transfer length in segments; ``None``
            (the default) means bulk/infinite, like ns-2's FTP source.
        on_complete: called once, with this sender, when the final
            segment of a finite transfer is cumulatively ACKed.
        """
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.receiver_node_id = receiver_node_id
        self.config = config if config is not None else TCPConfig()
        if transfer_segments is not None and transfer_segments < 1:
            raise ValueError(
                f"transfer_segments must be >= 1, got {transfer_segments}"
            )
        self.transfer_segments = transfer_segments
        self.on_complete = on_complete
        self.completed_at: Optional[float] = None
        self._start_time: Optional[float] = None

        cfg = self.config
        self.cwnd = float(cfg.initial_cwnd)
        self.ssthresh = float(cfg.initial_ssthresh)
        self.cumack = -1                 # highest cumulatively ACKed segment
        self.next_seq = 0                # next segment to send
        self.highest_sent = -1           # highest segment ever transmitted
        self.dupacks = 0
        self.in_fast_recovery = False
        # NewReno recovery point / FR re-entry guard.  Initialized below
        # the initial cumack (-1) so the very first loss can enter FR.
        self.recover = -2
        self.rto_estimator = RTOEstimator(cfg.min_rto, cfg.max_rto,
                                          initial_rto=cfg.initial_rto)
        # Per-flow RNG for the randomized-RTO defense, seeded from
        # _rng_seed() on its first draw: most runs never draw, and a
        # seeded random.Random is about 2.5 KB per flow.
        self._rng: Optional[random.Random] = None
        #: SACK scoreboard (RFC 2018/3517); None for non-SACK variants.
        self.scoreboard = (
            Scoreboard() if cfg.variant is TCPVariant.SACK else None
        )
        self._rto_event = None
        self._started = False
        self._send_times = {}            # seq -> first-transmission time (Karn)

        # statistics
        self.segments_sent = 0
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        #: Flight-recorder listener (``cwnd_append``/``on_recovery``),
        #: or ``None``.  ``cwnd_append`` is a C-level callable
        #: (``list.append``) fed ``(time, flow_id, cwnd)`` rows -- cwnd
        #: changes happen per ACK, so the hot path avoids a Python
        #: frame.  Purely observational -- excluded from
        #: :meth:`state_digest` -- and costs one ``is None`` check per
        #: cwnd change / recovery event when unset (the same
        #: dual-dispatch discipline as the metrics registry).
        self.telemetry = None

        node.register_agent(flow_id, self._receive)

    # ------------------------------------------------------------------
    # public control / observation
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin the bulk transfer now or at absolute time *at*."""
        if self._started:
            return
        self._started = True
        if at is None or at <= self.sim.now:
            self._begin()
        else:
            self.sim.schedule_at(at, self._begin)

    def _begin(self) -> None:
        self._start_time = self.sim.now
        self._record_cwnd()
        self._try_send()

    @property
    def completed(self) -> bool:
        """True once a finite transfer is fully acknowledged."""
        return self.completed_at is not None

    def completion_time(self) -> Optional[float]:
        """Flow completion time (start to final ACK), or None."""
        if self.completed_at is None or self._start_time is None:
            return None
        return self.completed_at - self._start_time

    @property
    def acked_segments(self) -> int:
        """Segments cumulatively acknowledged so far."""
        return self.cumack + 1

    def goodput_bytes(self) -> float:
        """Payload bytes delivered (cumulatively acknowledged)."""
        return self.acked_segments * float(self.config.mss)

    @property
    def inflight(self) -> int:
        """Outstanding (sent, unacknowledged) segments."""
        return self.next_seq - 1 - self.cumack

    def metrics_snapshot(self) -> dict:
        """Cumulative per-flow telemetry for the observability layer.

        Exactly the recovery quantities behind Eq. 1's converged window
        W_c: fast-retransmit entries, timeouts, and the instantaneous
        cwnd/ssthresh, plus delivery totals.  Reads existing counters
        only -- no per-ACK cost.
        """
        return {
            "segments_sent": float(self.segments_sent),
            "retransmissions": float(self.retransmissions),
            "fast_retransmits": float(self.fast_retransmits),
            "timeouts": float(self.timeouts),
            "acked_segments": float(self.acked_segments),
            "goodput_bytes": self.goodput_bytes(),
            "cwnd": self.cwnd,
            "ssthresh": self.ssthresh,
        }

    def state_digest(self) -> tuple:
        """The full sender state (for checkpoint validation).

        Covers the congestion/recovery machine, the RTO timer (as its
        calendar coordinates, since event objects never compare equal
        across deep copies), the per-flow RNG state, and every counter.
        Two senders with equal digests behave identically from here on.
        An undrawn RNG digests as the freshly seeded one it will become,
        built on the side so reading the digest leaves ``_rng`` unset.
        """
        rto_event = self._rto_event
        rng = self._rng
        if rng is None:
            rng = random.Random(self._rng_seed())
        return (
            self.cwnd, self.ssthresh, self.cumack, self.next_seq,
            self.highest_sent, self.dupacks, self.in_fast_recovery,
            self.recover,
            tuple(self._send_times.items()),
            self.rto_estimator.state_digest(),
            None if rto_event is None else
            (rto_event.time, rto_event.seq, rto_event.cancelled),
            None if self.scoreboard is None else
            self.scoreboard.state_digest(),
            rng.getstate(),
            self.segments_sent, self.retransmissions,
            self.fast_retransmits, self.timeouts,
        )

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _usable_window(self) -> float:
        return min(self.cwnd, self.config.max_cwnd)

    def _try_send(self) -> None:
        """Send segments while the window allows (ACK clocking).

        After a timeout ``next_seq`` is pulled back to the first unACKed
        segment (go-back-N, as in ns-2's one-way TCP), so this loop also
        performs slow-start retransmission of the lost window.
        """
        if self.scoreboard is not None and self.in_fast_recovery:
            self._sack_send()
            return
        window = self._usable_window()
        limit = self.transfer_segments
        while self.inflight < window:
            if limit is not None and self.next_seq >= limit:
                break  # finite transfer: nothing new left to send
            self._transmit(self.next_seq)
            self.next_seq += 1

    def _transmit(self, seq: int) -> None:
        now = self.sim.now
        retransmit = seq <= self.highest_sent
        self.highest_sent = max(self.highest_sent, seq)
        packet = Packet(
            PacketKind.DATA, self.flow_id, self.node.node_id,
            self.receiver_node_id, self.config.mss + TCP_HEADER_BYTES,
            seq, None, now, retransmit,
        )
        self.segments_sent += 1
        if retransmit:
            self.retransmissions += 1
            self._send_times.pop(seq, None)  # Karn: never sample this seq
        else:
            self._send_times[seq] = now
        if self._rto_event is None:
            self._arm_rto()
        self.node.send(packet)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _receive(self, packet: Packet) -> None:
        if packet.kind is not PacketKind.ACK:
            return
        ack = packet.ack
        if ack is None:
            return
        if self.scoreboard is not None and packet.sack:
            self.scoreboard.record(packet.sack, self.cumack)
        if ack > self.cumack:
            self._handle_new_ack(ack, packet.sent_at)
        elif ack == self.cumack:
            self._handle_dupack()
        # ACKs below cumack are stale; ignore.
        self._try_send()

    def _handle_new_ack(self, ack: int, echo: float) -> None:
        newly_acked = ack - self.cumack
        self.cumack = ack
        # After a go-back-N pull-back, a cumulative jump (the receiver had
        # buffered out-of-order data) can leave next_seq below the ACK
        # point; never resend what is already acknowledged.
        self.next_seq = max(self.next_seq, self.cumack + 1)
        if self.scoreboard is not None:
            self.scoreboard.advance(ack)

        # RTT sampling (Karn's rule enforced via the receiver echo and our
        # send-time table -- both must agree the segment was not resent).
        if echo != _NO_ECHO and echo >= 0:
            self.rto_estimator.sample(self.sim.now - echo)
        # _send_times is insertion-ordered by ascending seq (new sends only
        # append higher seqs; retransmissions pop), so the acked prefix can
        # be peeled off the front without rescanning the whole window.
        send_times = self._send_times
        while send_times:
            seq = next(iter(send_times))
            if seq > ack:
                break
            del send_times[seq]

        self.rto_estimator.reset_backoff()

        if self.in_fast_recovery:
            self._fast_recovery_new_ack(ack, newly_acked)
        else:
            self.dupacks = 0
            self._grow_window(newly_acked)

        # Restart (or clear) the retransmission timer.
        self._cancel_rto()
        if self.inflight > 0:
            self._arm_rto()
        self._record_cwnd()

        if (self.transfer_segments is not None
                and not self.completed
                and self.cumack >= self.transfer_segments - 1):
            self.completed_at = self.sim.now
            self._cancel_rto()
            if self.on_complete is not None:
                self.on_complete(self)

    def _grow_window(self, newly_acked: int) -> None:
        a = self.config.aimd.increase
        if self.cwnd < self.ssthresh:
            # Slow start: grow per ACK (delayed ACKs naturally slow this).
            self.cwnd = min(self.cwnd + a, self.config.max_cwnd)
        else:
            # Congestion avoidance: a/cwnd per new ACK => +a per RTT.
            self.cwnd = min(self.cwnd + a / self.cwnd, self.config.max_cwnd)

    def _fast_recovery_new_ack(self, ack: int, newly_acked: int) -> None:
        if self.config.variant is TCPVariant.SACK:
            # RFC 3517: recovery ends once the cumulative ACK covers the
            # recovery point; until then the pipe rule drives sending.
            if ack >= self.recover:
                self.in_fast_recovery = False
                self.dupacks = 0
            return
        if self.config.variant is TCPVariant.NEWRENO and ack < self.recover:
            # Partial ACK: one more hole. Retransmit it, deflate the window
            # by the amount ACKed, add back one segment (RFC 3782).
            self.cwnd = max(self.cwnd - newly_acked + 1.0, 1.0)
            self._transmit(self.cumack + 1)
            # Partial ACK restarts the retransmit timer (done by caller).
        else:
            # Full ACK (or any new ACK for plain Reno): leave fast recovery.
            self.in_fast_recovery = False
            self.dupacks = 0
            self.cwnd = self.ssthresh

    def _handle_dupack(self) -> None:
        if self.scoreboard is not None:
            self._sack_dupack()
            return
        self.dupacks += 1
        if self.in_fast_recovery:
            # Window inflation: each extra dup ACK signals a departed packet.
            self.cwnd = min(self.cwnd + 1.0, self.config.max_cwnd)
            self._record_cwnd()
            return
        if self.dupacks == _DUPACK_THRESHOLD:
            # RFC 3782 re-entry guard: only enter recovery once the
            # cumulative ACK covers MORE than the previous recovery point
            # (dup ACKs of data sent before/during the last episode --
            # including go-back-N re-sends after a timeout -- are stale).
            if self.cumack <= self.recover:
                return
            self._enter_fast_retransmit()

    def _sack_dupack(self) -> None:
        """Duplicate-ACK handling for the SACK variant.

        Recovery starts when the scoreboard detects a lost segment (at
        least DupThresh SACKed segments above a hole) or on the classic
        third duplicate ACK; transmission during recovery is driven by
        the pipe rule in :meth:`_sack_send`, with no window inflation.
        """
        self.dupacks += 1
        if self.in_fast_recovery:
            return
        loss_detected = (
            self.dupacks >= _DUPACK_THRESHOLD
            or self.scoreboard.next_lost_hole(
                self.cumack, self.highest_sent) is not None
        )
        if not loss_detected or self.cumack <= self.recover:
            return
        b = self.config.aimd.decrease
        self.fast_retransmits += 1
        self._note_recovery("fr")
        self.ssthresh = max(b * self.cwnd, _MIN_SSTHRESH)
        self.cwnd = self.ssthresh
        self.in_fast_recovery = True
        self.recover = self.highest_sent
        # RFC 6675: retransmit the first hole immediately on entry, not
        # gated behind the pipe rule -- otherwise a full pipe would delay
        # the repair past the retransmission timer.
        hole = self.scoreboard.next_lost_hole(self.cumack, self.highest_sent)
        first_hole = hole if hole is not None else self.cumack + 1
        self._transmit(first_hole)
        self.scoreboard.mark_retransmitted(first_hole)
        self._cancel_rto()
        self._arm_rto()
        self._record_cwnd()

    def _sack_send(self) -> None:
        """RFC 3517 pipe-driven (re)transmission during SACK recovery."""
        window = self._usable_window()
        scoreboard = self.scoreboard
        limit = self.transfer_segments
        while scoreboard.pipe(self.cumack, self.highest_sent) < window:
            hole = scoreboard.next_lost_hole(self.cumack, self.highest_sent)
            if hole is not None:
                self._transmit(hole)
                scoreboard.mark_retransmitted(hole)
            else:
                self.next_seq = max(self.next_seq, self.highest_sent + 1)
                if limit is not None and self.next_seq >= limit:
                    break  # finite transfer: no new data to fill the pipe
                self._transmit(self.next_seq)
                self.next_seq += 1

    def _enter_fast_retransmit(self) -> None:
        b = self.config.aimd.decrease
        self.fast_retransmits += 1
        self._note_recovery("fr")
        self.ssthresh = max(b * self.cwnd, _MIN_SSTHRESH)
        if self.config.variant is TCPVariant.TAHOE:
            self.cwnd = 1.0
            self.dupacks = 0
            self.recover = self.highest_sent
            # Go back to the lost segment and slow-start forward.
            self._transmit(self.cumack + 1)
            self.next_seq = self.cumack + 2
        else:
            self.in_fast_recovery = True
            self.recover = self.highest_sent
            self.cwnd = self.ssthresh + float(_DUPACK_THRESHOLD)
            self._transmit(self.cumack + 1)
        self._cancel_rto()
        self._arm_rto()
        self._record_cwnd()

    # ------------------------------------------------------------------
    # retransmission timeout
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        delay = self.rto_estimator.rto
        jitter = self.config.rto_jitter
        if jitter > 0.0:
            # Randomized timeouts (reference [7]): the attacker can no
            # longer predict when retransmissions re-enter the network.
            rng = self._rng
            if rng is None:
                rng = self._rng = random.Random(self._rng_seed())
            delay *= 1.0 + jitter * rng.random()
        self._rto_event = self.sim.schedule(delay, self._rto_fire)

    def _rng_seed(self) -> int:
        return 0x5EED ^ (self.flow_id * 7919)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _rto_fire(self) -> None:
        self._rto_event = None
        if self.inflight <= 0:
            return  # spurious: everything was ACKed as the timer fired
        b = self.config.aimd.decrease
        self.timeouts += 1
        self._note_recovery("to")
        self.ssthresh = max(b * self.cwnd, _MIN_SSTHRESH)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_fast_recovery = False
        if self.scoreboard is not None:
            # RFC 3517 (conservatively): clear the scoreboard on RTO and
            # let go-back-N slow start rediscover delivery state.
            self.scoreboard.reset()
        # Guard against false fast retransmits for pre-timeout data.
        self.recover = self.highest_sent
        self.rto_estimator.backoff()
        # Go-back-N (as in ns-2): pull next_seq back to the first hole
        # and let slow start retransmit the lost window.  _try_send
        # re-arms the timer (it is None here) with the backed-off RTO.
        self.next_seq = self.cumack + 1
        self._try_send()
        self._record_cwnd()

    # ------------------------------------------------------------------
    def _record_cwnd(self) -> None:
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.cwnd_append((self.sim.now, self.flow_id, self.cwnd))

    def _note_recovery(self, kind: str) -> None:
        """Record a recovery entry ("fr"/"to"), sampled pre-decrease."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_recovery(self.flow_id, self.sim.now, kind,
                                  self.cwnd, self.ssthresh,
                                  self.rto_estimator.rto)
