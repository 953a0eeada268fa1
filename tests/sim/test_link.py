"""Link serialization, propagation, buffering, and monitors."""

import pytest

from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue
from repro.util.errors import ValidationError


def make_packet(size=1500.0, flow_id=0, dst=1, kind=PacketKind.DATA):
    return Packet(kind, flow_id=flow_id, src=0, dst=dst, size_bytes=size)


@pytest.fixture
def wire(sim):
    """Two nodes joined by a 1 Mb/s, 10 ms link; deliveries recorded."""
    a = Node(sim, 0, "a")
    b = Node(sim, 1, "b")
    arrivals = []
    b.register_agent(0, lambda pkt: arrivals.append((sim.now, pkt)))
    link = Link(sim, a, b, rate_bps=1e6, delay=0.01,
                queue=DropTailQueue(10 * 1500.0))
    return link, arrivals


class TestTiming:
    def test_single_packet_latency(self, sim, wire):
        link, arrivals = wire
        link.send(make_packet(size=1250.0))  # 10 ms serialization at 1 Mb/s
        sim.run()
        assert len(arrivals) == 1
        assert arrivals[0][0] == pytest.approx(0.02)  # 10 ms tx + 10 ms prop

    def test_back_to_back_packets_serialize(self, sim, wire):
        link, arrivals = wire
        link.send(make_packet(size=1250.0))
        link.send(make_packet(size=1250.0))
        sim.run()
        times = [t for t, _ in arrivals]
        assert times[0] == pytest.approx(0.02)
        assert times[1] == pytest.approx(0.03)  # waits for the first tx

    def test_fifo_order_preserved(self, sim, wire):
        link, arrivals = wire
        sent = [make_packet() for _ in range(5)]
        for packet in sent:
            link.send(packet)
        sim.run()
        assert [p.uid for _, p in arrivals] == [p.uid for p in sent]

    def test_idle_gap_resets_serialization(self, sim, wire):
        link, arrivals = wire
        link.send(make_packet(size=1250.0))
        sim.run()
        # Second packet sent long after the first finished.
        sim.schedule(0.0, lambda: None)
        link.send(make_packet(size=1250.0))
        sim.run()
        assert arrivals[1][0] == pytest.approx(arrivals[0][0] + 0.02)

    def test_transmission_time(self, sim, wire):
        link, _ = wire
        assert link.transmission_time(1250.0) == pytest.approx(0.01)


class TestBuffering:
    def test_drops_beyond_capacity(self, sim, wire):
        link, arrivals = wire
        for _ in range(15):  # buffer holds 10 x 1500 B
            link.send(make_packet())
        sim.run()
        assert len(arrivals) == 10
        assert link.packets_dropped == 5
        assert link.bytes_dropped == 5 * 1500.0

    def test_queue_occupancy_expires_lazily(self, sim, wire):
        link, _ = wire
        for _ in range(3):
            link.send(make_packet(size=1250.0))
        assert link.queue_packets == 3
        sim.run(until=0.021)  # two departures done (at 10 and 20 ms)
        assert link.queue_packets == 1
        sim.run()
        assert link.queue_packets == 0
        assert link.queue_bytes == 0.0

    def test_peak_queue_recorded(self, sim, wire):
        link, _ = wire
        for _ in range(4):
            link.send(make_packet())
        assert link.peak_queue_bytes == 4 * 1500.0

    def test_stats_accumulate(self, sim, wire):
        link, _ = wire
        link.send(make_packet())
        link.send(make_packet())
        sim.run()
        assert link.packets_sent == 2
        assert link.bytes_sent == 3000.0
        assert link.utilization_bytes == 3000.0


class TestMonitors:
    def test_monitor_sees_accepts_and_drops(self, sim, wire):
        link, _ = wire
        seen = []
        link.monitors.append(lambda pkt, now, ok: seen.append(ok))
        for _ in range(12):
            link.send(make_packet())
        assert seen.count(True) == 10
        assert seen.count(False) == 2

    def test_monitor_timestamps_are_send_times(self, sim, wire):
        link, _ = wire
        stamps = []
        link.monitors.append(lambda pkt, now, ok: stamps.append(now))
        sim.schedule(1.5, link.send, make_packet())
        sim.run()
        assert stamps == [1.5]

    def test_default_queue_provided(self, sim):
        a, b = Node(sim, 0), Node(sim, 1)
        link = Link(sim, a, b, rate_bps=1e6, delay=0.0)
        assert link.queue.capacity_bytes > 0

    def test_unknown_discipline_type_rejected(self, sim):
        # Send has one admission path per exact discipline class; a
        # subclass could override decisions the link never calls.
        class PatientQueue(DropTailQueue):
            pass

        a, b = Node(sim, 0), Node(sim, 1)
        with pytest.raises(ValidationError, match="PatientQueue"):
            Link(sim, a, b, rate_bps=1e6, delay=0.0,
                 queue=PatientQueue(1500.0))

    def test_hop_counter_increments(self, sim, wire):
        link, arrivals = wire
        link.send(make_packet())
        sim.run()
        assert arrivals[0][1].hops == 1
