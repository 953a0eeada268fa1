"""The in-sim flight recorder: passivity, bounded capture, harvest."""

import gc

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

        cell = Cell(platform=PlatformSpec(kind="dumbbell", n_flows=2,
                                          seed=7),
                    warmup=1.0, window=2.0)
        plain = execute_cell(cell)
        recorder = FlightRecorder()
        taped = execute_cell(cell, recorder=recorder)
        assert taped == plain
        assert any(s.n_rows for s in recorder.harvest())

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
