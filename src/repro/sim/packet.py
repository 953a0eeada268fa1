"""Packet model.

Packets are segment-granular, like ns-2: a TCP data packet carries a
segment index rather than a byte offset, and an ACK carries the
cumulative highest in-order segment received.  Attack packets are
UDP-like constant-size datagrams with no transport state.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

__all__ = ["PacketKind", "Packet", "TCP_HEADER_BYTES", "ACK_SIZE_BYTES",
           "FULL_PACKET_BYTES"]

#: Size of a full data packet on the wire (MSS 1460 + 40 B headers).
#: The one shared wire-size constant -- topologies, the fluid model,
#: attack sources, and throughput formulas all import it from here.
FULL_PACKET_BYTES = 1500.0

#: Combined TCP/IP header overhead modelled on every data packet, bytes.
TCP_HEADER_BYTES = 40

#: Size of a pure ACK (TCP/IP headers, no payload), bytes.
ACK_SIZE_BYTES = 40


class PacketKind(enum.Enum):
    """Transport-level packet classification used by agents and monitors."""

    DATA = "data"       #: TCP data segment
    ACK = "ack"         #: TCP acknowledgement
    ATTACK = "attack"   #: PDoS / flooding attack datagram
    CBR = "cbr"         #: generic constant-bit-rate (UDP-like) payload


#: The uid the next :class:`Packet` receives, as a one-item list: the
#: constructor bumps it in place, so no class attribute is rewritten per
#: packet, and a plain int is readable without advancing it.
_next_uid = [0]


class Packet:
    """A packet in flight.

    Attributes:
        uid: globally unique id (monotonically increasing; useful in traces).
        kind: :class:`PacketKind`.
        flow_id: identifier of the generating flow/agent (attack sources get
            flow ids too so traces can separate attack from legitimate bytes).
        src / dst: node ids, used by static forwarding.
        size_bytes: total on-the-wire size including modelled headers.
        seq: data segment index (DATA) or pulse index (ATTACK); ``None``
            otherwise.
        ack: cumulative ACK segment index (ACK packets only).
        sent_at: timestamp the transport handed the packet to the network,
            echoed on ACKs for RTT sampling.
        ecn / retransmit: bookkeeping flags.
    """

    __slots__ = (
        "uid", "kind", "flow_id", "src", "dst", "size_bytes",
        "seq", "ack", "sent_at", "retransmit", "hops", "sack",
    )

    @classmethod
    def reset_uids(cls) -> None:
        """Restart uid numbering from 0.

        Scenario builders call this so back-to-back in-process runs
        number their packets identically -- with a process-global
        counter, a rerun of the same scenario would otherwise produce a
        different (run-order-dependent) uid stream in its traces.
        """
        _next_uid[0] = 0

    @classmethod
    def peek_uid(cls) -> int:
        """The uid the next packet will receive, without consuming it.

        Warm-start checkpointing records this alongside a network
        snapshot so every fork resumes the exact uid stream a
        from-scratch run would produce.
        """
        return _next_uid[0]

    @classmethod
    def set_next_uid(cls, value: int) -> None:
        """Make *value* the next uid handed out (checkpoint restore)."""
        _next_uid[0] = value

    def __init__(
        self,
        kind: PacketKind,
        flow_id: int,
        src: int,
        dst: int,
        size_bytes: float,
        seq: Optional[int] = None,
        ack: Optional[int] = None,
        sent_at: float = 0.0,
        retransmit: bool = False,
    ) -> None:
        uid = _next_uid[0]
        _next_uid[0] = uid + 1
        self.uid = uid
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.seq = seq
        self.ack = ack
        self.sent_at = sent_at
        self.retransmit = retransmit
        self.hops = 0
        #: SACK blocks on ACKs: inclusive (start, end) segment ranges.
        self.sack: Tuple[Tuple[int, int], ...] = ()

    @property
    def is_attack(self) -> bool:
        """True for attack datagrams (used by traces and detectors)."""
        return self.kind is PacketKind.ATTACK

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.seq is not None:
            extra += f" seq={self.seq}"
        if self.ack is not None:
            extra += f" ack={self.ack}"
        return (
            f"<Packet #{self.uid} {self.kind.value} flow={self.flow_id} "
            f"{self.src}->{self.dst} {self.size_bytes}B{extra}>"
        )
