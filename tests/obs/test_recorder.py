"""The in-sim flight recorder: passivity, bounded capture, harvest."""

import gc
import hashlib

import numpy as np
import pytest

from repro.core.attack import PulseTrain
from repro.obs.recorder import (
    FlightRecorder,
    Series,
    SeriesRecorder,
    contested_links,
)
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.util.units import mbps, ms

HORIZON = 4.0


def attacked_net(recorder=None):
    """A short attacked dumbbell, optionally taped."""
    config = DumbbellConfig(n_flows=3, seed=23)
    net = build_dumbbell(config)
    train = PulseTrain.from_gamma(
        gamma=0.5, rate_bps=mbps(30), extent=ms(100),
        bottleneck_bps=config.bottleneck_rate_bps, n_pulses=10,
    )
    net.add_attack(train, start_time=1.0)
    if recorder is not None:
        recorder.attach(net, horizon=HORIZON)
    net.start_flows()
    for source in net.attack_sources:
        source.start()
    net.run(until=HORIZON)
    return net


class TestSeriesRecorder:
    def test_appends_rows_in_order(self):
        ring = SeriesRecorder("s", ("time", "value"), capacity=8)
        ring.append(0.0, 1.0)
        ring.append(1.0, 2.0)
        series = ring.as_series()
        assert series.n_rows == 2
        assert series.evicted == 0
        assert np.array_equal(series.data, [[0.0, 1.0], [1.0, 2.0]])

    def test_full_ring_evicts_oldest(self):
        ring = SeriesRecorder("s", ("time",), capacity=4)
        for i in range(6):
            ring.append(float(i))
        assert len(ring) == 4
        assert ring.evicted == 2
        series = ring.as_series()
        assert series.evicted == 2
        assert list(series.column("time")) == [2.0, 3.0, 4.0, 5.0]

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            SeriesRecorder("s", ("time",), capacity=0)

    def test_empty_ring_yields_zero_row_series(self):
        series = SeriesRecorder("s", ("time", "a", "b")).as_series()
        assert series.n_rows == 0
        assert series.data.shape == (0, 3)


class TestSeries:
    def test_column_by_label(self):
        series = Series("s", ("time", "value"),
                        np.array([[0.0, 5.0], [1.0, 6.0]]))
        assert list(series.column("value")) == [5.0, 6.0]

    def test_data_coerced_to_float64(self):
        series = Series("s", ("a",), np.array([[1], [2]], dtype=np.int64))
        assert series.data.dtype == np.float64


class TestPassivity:
    def test_state_digest_bit_identical_with_recorder(self):
        # The acceptance bar: attaching the recorder must not change a
        # single simulated bit -- same digests, same goodput.
        bare = attacked_net()
        recorder = FlightRecorder()
        taped = attacked_net(recorder)
        assert taped.state_digest() == bare.state_digest()
        assert (taped.aggregate_goodput_bytes()
                == bare.aggregate_goodput_bytes())
        series = {s.name: s for s in recorder.harvest()}
        assert series["tcp.cwnd"].n_rows > 0
        assert series["link.bottleneck.rate"].column("total_bytes").sum() > 0
        assert series["link.bottleneck.queue"].n_rows > 0
        assert series["engine.progress"].n_rows == 1

    def test_recovery_series_captures_pulse_losses(self):
        recorder = FlightRecorder()
        attacked_net(recorder)
        recovery = {s.name: s for s in recorder.harvest()}["tcp.recovery"]
        assert recovery.n_rows > 0  # pulses force recoveries
        assert set(recovery.column("kind")) <= {0.0, 1.0}
        assert (recovery.column("rto") > 0).all()

    def test_attach_twice_rejected(self):
        recorder = FlightRecorder()
        net = attacked_net(recorder)
        with pytest.raises(RuntimeError, match="only once"):
            recorder.attach(net, horizon=HORIZON)
        recorder.detach()

    def test_detach_restores_gc_threshold_idempotently(self):
        threshold = gc.get_threshold()
        recorder = FlightRecorder()
        attacked_net(recorder)
        assert gc.get_threshold() != threshold
        recorder.detach()
        assert gc.get_threshold() == threshold
        gc.set_threshold(threshold[0] + 1, *threshold[1:])
        try:
            recorder.detach()  # a second detach restores nothing
            assert gc.get_threshold()[0] == threshold[0] + 1
        finally:
            gc.set_threshold(*threshold)
        assert any(s.n_rows for s in recorder.harvest())

    def test_harvest_sorted_by_name(self):
        recorder = FlightRecorder()
        attacked_net(recorder)
        names = [s.name for s in recorder.harvest()]
        assert names == sorted(names)

    def test_ring_capacity_bounds_capture(self):
        recorder = FlightRecorder(capacity=16)
        attacked_net(recorder)
        cwnd = {s.name: s for s in recorder.harvest()}["tcp.cwnd"]
        assert cwnd.n_rows == 16
        assert cwnd.evicted > 0


class TestHarvestGolden:
    """sha256 of every harvested series of one recorded attacked cell.

    The rate, drop and queue series come from the bottleneck's and the
    return link's arrival rows, ``tcp.cwnd`` and ``tcp.recovery`` from
    the senders; a change to how any of them is captured or fanned out
    must leave every digest byte for byte equal.
    """

    GOLDEN = {
        "engine.progress":
            "5fb243d9ab628ee88ffc5cb96f0ff5a15ccba7ea89db61b63561d37100d2443c",
        "link.bottleneck.drops":
            "7d29d4e2e974889f9202eac9ef861f3e09c334c2d2226b1d1b1b30fc9e25f85a",
        "link.bottleneck.queue":
            "ee17eca942991c89bce9edfb597b2bd221027627675a095f55100dd98a590bf5",
        "link.bottleneck.rate":
            "c128675b295665793b313c92e4ccab700cf4eb77d285a8c967c0ddd369770095",
        "link.bottleneck_reverse.drops":
            "a272ca3810d8e93757b6ee2ee4bbc9d48dbb31cb664f671571bb12881bcd6b76",
        "link.bottleneck_reverse.queue":
            "744de31545f68502afb8795d46aad2b048bf97caea90dd7081afe51fe34b8bd8",
        "link.bottleneck_reverse.rate":
            "455cf861b5bbec2e2da4cba15f139de648ec29cb30a402a3c6fcf0ecd79b527f",
        "tcp.cwnd":
            "7afbbb86c8d441df6db2d0b87e0161f7f130e8311341078ed23cfec85509273d",
        "tcp.recovery":
            "2ba9625c2eb174b4332b6a627259ed8e15090328b0afa8c882ebe01f604a1ee6",
    }

    def test_series_digests(self):
        from repro.runner import Cell, PlatformSpec, execute_cell

        train = PulseTrain.from_gamma(
            gamma=0.5, rate_bps=mbps(30), extent=ms(100),
            bottleneck_bps=mbps(15), n_pulses=15)
        cell = Cell(platform=PlatformSpec(kind="dumbbell", n_flows=3,
                                          seed=23),
                    warmup=1.0, window=3.0, train=train)
        recorder = FlightRecorder()
        execute_cell(cell, recorder=recorder)
        digests = {}
        for series in recorder.harvest():
            sha = hashlib.sha256()
            sha.update(repr((series.name, series.columns, series.data.shape,
                             series.evicted)).encode())
            sha.update(series.data.tobytes())
            digests[series.name] = sha.hexdigest()
        assert digests == self.GOLDEN


class TestContestedLinks:
    def test_dumbbell_labels(self):
        net = build_dumbbell(DumbbellConfig(n_flows=2, seed=1))
        labels = [label for label, _ in contested_links(net)]
        assert labels == ["bottleneck", "bottleneck_reverse"]

    def test_testbed_labels(self):
        from repro.testbed.dummynet import TestbedConfig, build_testbed

        net = build_testbed(TestbedConfig(n_flows=2, seed=1))
        labels = [label for label, _ in contested_links(net)]
        assert labels == ["pipe", "pipe_reverse"]


class TestExecutorIntegration:
    def test_execute_cell_result_identical_with_recorder(self):
        from repro.runner import Cell, PlatformSpec, execute_cell

        spec = PlatformSpec(kind="dumbbell", n_flows=2, seed=7)
        cells = [
            Cell(platform=spec, warmup=1.0, window=2.0),
            # The detector, the arrival series and the recorder share
            # the bottleneck's one row list.
            Cell(platform=spec, warmup=1.0, window=2.0,
                 train=PulseTrain.from_gamma(
                     gamma=0.5, rate_bps=mbps(30), extent=ms(100),
                     bottleneck_bps=mbps(15), n_pulses=3),
                 rate_floor_bps=mbps(1), arrival_series=True),
        ]
        for cell in cells:
            plain = execute_cell(cell)
            recorder = FlightRecorder()
            taped = execute_cell(cell, recorder=recorder)
            assert taped == plain
            assert any(s.n_rows for s in recorder.harvest())
        assert plain.flagged_sources == 1
        assert sum(plain.arrival_bytes) > 0

    def test_group_results_identical_with_record(self):
        from repro.runner import Cell, PlatformSpec
        from repro.runner.cells import execute_cell_group

        spec = PlatformSpec(kind="dumbbell", n_flows=2, seed=7)
        cells = [
            Cell(platform=spec, warmup=1.0, window=2.0),
            Cell(platform=spec, warmup=1.0, window=2.0,
                 train=PulseTrain.from_gamma(
                     gamma=0.5, rate_bps=mbps(30), extent=ms(100),
                     bottleneck_bps=mbps(15), n_pulses=3)),
        ]
        plain = execute_cell_group(cells)
        taped = execute_cell_group(cells, record=True)
        assert taped.results == plain.results
        assert plain.series == ()
        assert len(taped.series) == 2
        for captured in taped.series:
            assert captured is not None
            assert any(s.n_rows for s in captured)
