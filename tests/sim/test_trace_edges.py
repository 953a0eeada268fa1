"""Edge cases for the binned rate series and the arrival tap (horizon
boundaries, partial final bins, and a tap set while a run is in flight)."""

from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue
from repro.sim.trace import RateMonitor


def make_packet(size=1000.0):
    return Packet(PacketKind.DATA, flow_id=0, src=0, dst=1, size_bytes=size)


def row(time, size):
    """A legitimate, accepted packet's arrival row."""
    return (time, 0.0, 0, size, 0, True)


def make_link(sim, rate_bps=1e4, queue_bytes=100_000):
    a, b = Node(sim, 0), Node(sim, 1)
    link = Link(sim, a, b, rate_bps=rate_bps, delay=0.0,
                queue=DropTailQueue(queue_bytes))
    b.register_agent(0, lambda p: None)
    return link


class TestRateMonitorBoundaries:
    def test_arrival_exactly_at_horizon_is_excluded(self):
        # t == horizon indexes one past the last bin: [0, horizon) window.
        monitor = RateMonitor(bin_width=1.0, horizon=5.0)
        monitor.ingest([row(5.0, 100)])
        assert monitor.bytes_per_bin.sum() == 0.0

    def test_arrival_just_inside_horizon_lands_in_last_bin(self):
        monitor = RateMonitor(bin_width=1.0, horizon=5.0)
        monitor.ingest([row(4.999999, 100)])
        assert monitor.bytes_per_bin[-1] == 100.0

    def test_arrival_exactly_on_bin_edge_goes_to_later_bin(self):
        monitor = RateMonitor(bin_width=1.0, horizon=3.0)
        monitor.ingest([row(1.0, 100)])
        assert list(monitor.bytes_per_bin) == [0.0, 100.0, 0.0]

    def test_partial_final_bin_from_non_divisible_horizon(self):
        # horizon = 2.5 with bin_width = 1.0: ceil gives three bins, the
        # last covering only [2.0, 2.5) of real time -- never a zero-width
        # bin, and arrivals in the partial tail are still captured.
        monitor = RateMonitor(bin_width=1.0, horizon=2.5)
        assert monitor.n_bins == 3
        monitor.ingest([row(2.25, 100)])
        assert monitor.bytes_per_bin[-1] == 100.0
        assert len(monitor.times) == 3

    def test_float_ceil_does_not_add_spurious_bin(self):
        # 0.3 / 0.1 is 2.9999... in floats; ceil must still give 3 bins.
        monitor = RateMonitor(bin_width=0.1, horizon=0.3)
        assert monitor.n_bins == 3

    def test_attached_mid_run_sees_only_later_arrivals(self, sim):
        link = make_link(sim, rate_bps=1e6)
        rows = []
        sim.schedule(0.5, lambda: link.send(make_packet(size=100)))
        # Tap at t=2, after the first packet has come and gone.
        sim.schedule(2.0, lambda: setattr(link, "arrival_tap", rows.append))
        sim.schedule(2.5, lambda: link.send(make_packet(size=200)))
        sim.run()
        monitor = RateMonitor(bin_width=1.0, horizon=4.0)
        monitor.ingest(rows)
        assert list(monitor.bytes_per_bin) == [0.0, 0.0, 200.0, 0.0]


class TestDropTapMidRun:
    def test_attached_mid_run_counts_only_later_drops(self, sim):
        # Queue of one packet: back-to-back sends overflow immediately.
        link = make_link(sim, rate_bps=1e3, queue_bytes=1000)
        rows = []

        def burst():
            for _ in range(3):
                link.send(make_packet(size=1000))

        burst()  # two drops before the tap is set (buffer fits one)
        sim.schedule(1.0, lambda: setattr(link, "arrival_tap", rows.append))
        # At t=2 the first packet (8 s serialization at 1 kb/s) still holds
        # the link and the buffer is full, so the whole second burst drops.
        sim.schedule(2.0, burst)
        sim.run()
        drops = [row for row in rows if not row[5]]
        assert link.packets_dropped == 5
        assert len(drops) == 3 == len(rows)
        assert all(row[0] >= 2.0 for row in drops)
