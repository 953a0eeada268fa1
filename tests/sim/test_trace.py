"""Observation: a link's arrival rows, its drops among them, and the
binned rate series."""

import numpy as np

from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue
from repro.sim.trace import ROW_COLUMNS, RateMonitor, arrival_rows


def make_packet(kind=PacketKind.DATA, size=1000.0, flow_id=0):
    return Packet(kind, flow_id=flow_id, src=0, dst=1, size_bytes=size)


def row(time, size, attack=False):
    """One arrival row (:data:`ROW_COLUMNS`), the size negated for
    attack packets."""
    return (time, 0.0, 0, -size if attack else size, 0, True)


def make_link(sim, rate_bps=1e3, queue_bytes=1000):
    a, b = Node(sim, 0), Node(sim, 1)
    link = Link(sim, a, b, rate_bps=rate_bps, delay=0.0,
                queue=DropTailQueue(queue_bytes))
    b.register_agent(0, lambda p: None)
    b.register_agent(3, lambda p: None)
    return link


class TestRateMonitor:
    def test_bins_bytes_by_time(self):
        monitor = RateMonitor(bin_width=1.0, horizon=5.0)
        monitor.ingest([row(0.5, 100), row(0.7, 200), row(3.2, 300)])
        assert list(monitor.bytes_per_bin) == [300.0, 0.0, 0.0, 300.0, 0.0]

    def test_attack_bytes_separated(self):
        monitor = RateMonitor(bin_width=1.0, horizon=2.0)
        monitor.ingest([row(0.1, 100), row(0.2, 500, attack=True)])
        # (time, total_bytes, attack_bytes) per bin
        assert monitor.as_columns().tolist() == [[0.5, 600.0, 500.0],
                                                 [1.5, 0.0, 0.0]]

    def test_counts_dropped_by_default(self, sim):
        # Offered load: the tap sees every arrival, dropped or not.
        link = make_link(sim)
        rows = []
        link.arrival_tap = rows.append
        for _ in range(3):
            link.send(make_packet(size=1000))
        assert link.packets_dropped == 2
        monitor = RateMonitor(bin_width=1.0, horizon=1.0)
        monitor.ingest(rows)
        assert monitor.bytes_per_bin[0] == 3000.0

    def test_out_of_horizon_ignored(self):
        monitor = RateMonitor(bin_width=1.0, horizon=2.0)
        monitor.ingest([row(5.0, 100), row(-1.0, 100)])
        assert monitor.bytes_per_bin.sum() == 0.0

    def test_times_are_bin_centres(self):
        monitor = RateMonitor(bin_width=1.0, horizon=3.0)
        assert list(monitor.times) == [0.5, 1.5, 2.5]

    def test_sums_equal_adding_in_arrival_order(self):
        rng = np.random.default_rng(5)
        times = rng.uniform(0.0, 2.0, 500)
        sizes = rng.uniform(40.0, 1500.0, 500)
        attack = rng.random(500) < 0.3
        monitor = RateMonitor(bin_width=0.25, horizon=2.0)
        monitor.ingest([row(t, s, a) for t, s, a in zip(times, sizes, attack)])
        total = [0.0] * monitor.n_bins
        attacked = [0.0] * monitor.n_bins
        for t, s, a in zip(times.tolist(), sizes.tolist(), attack.tolist()):
            total[int(t / 0.25)] += s
            if a:
                attacked[int(t / 0.25)] += s
        columns = monitor.as_columns()
        assert columns[:, 1].tolist() == total
        assert columns[:, 2].tolist() == attacked

    def test_empty_rows(self):
        monitor = RateMonitor(bin_width=1.0, horizon=2.0)
        monitor.ingest([])
        assert list(monitor.bytes_per_bin) == [0.0, 0.0]


class TestDropTap:
    """Drop records: the arrival rows whose ``accepted`` is false."""

    @staticmethod
    def drops(rows):
        return [row for row in rows if not row[5]]

    def test_records_only_drops(self, sim):
        link = make_link(sim)
        rows = arrival_rows(link)
        link.send(make_packet())
        link.send(make_packet(flow_id=3))
        assert [(r[0], r[4]) for r in self.drops(rows)] == [(0.0, 3)]

    def test_attack_vs_legit_split(self, sim):
        link = make_link(sim)
        rows = arrival_rows(link)
        link.send(make_packet())
        link.send(make_packet(PacketKind.ATTACK))
        link.send(make_packet(PacketKind.DATA))
        assert [r[3] < 0 for r in self.drops(rows)] == [True, False]


class TestArrivalRows:
    def test_attaches_one_list_and_shares_it(self, sim):
        link = make_link(sim)
        rows = arrival_rows(link)
        assert arrival_rows(link) is rows
        link.send(make_packet())
        assert len(rows) == 1 and len(rows[0]) == len(ROW_COLUMNS)

    def test_reads_a_list_already_tapped(self, sim):
        link = make_link(sim)
        rows = []
        link.arrival_tap = rows.append
        assert arrival_rows(link) is rows
