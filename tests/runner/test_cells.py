"""Cell / PlatformSpec / DeploymentSpec specs and the pure executor."""

import dataclasses
import gc
import pickle

import pytest

from repro.core.attack import PulseTrain
from repro.core.distributed import split_interleaved
from repro.runner import Cell, DeploymentSpec, PlatformSpec, execute_cell
from repro.sim.tcp import TCPConfig, TCPVariant
from repro.obs.recorder import FlightRecorder
from repro.sim.queues import DropTailQueue
from repro.sim.topology import DumbbellConfig, Network
from repro.testbed.dummynet import TestbedConfig
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms


def small_train(n_pulses=3):
    return PulseTrain.from_gamma(
        gamma=0.5, rate_bps=mbps(30), extent=ms(100),
        bottleneck_bps=mbps(15), n_pulses=n_pulses,
    )


class TestPlatformSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            PlatformSpec(kind="emulab", n_flows=5, seed=1)

    def test_rejects_unknown_queue(self):
        with pytest.raises(ValidationError, match="queue"):
            PlatformSpec(kind="dumbbell", n_flows=5, seed=1, queue="codel")

    def test_rejects_zero_flows(self):
        with pytest.raises(ValidationError, match="n_flows"):
            PlatformSpec(kind="dumbbell", n_flows=0, seed=1)

    @pytest.mark.parametrize("kind, field, value", [
        ("dumbbell", "seed", None),
        ("dumbbell", "n_flows", 1.5),
        ("dumbbell", "n_flows", True),
        ("dumbbell", "seed", True),
        ("testbed", "seed", 2.5),
        ("parking_lot", "seed", None),
    ])
    def test_rejects_non_int_seed_and_flow_count(self, kind, field, value):
        # A seed of None keys the cache while each process draws its own
        # jitter; floats and bools fail late or run as the wrong count.
        fields = dict(kind=kind, n_flows=3, seed=1)
        fields[field] = value
        with pytest.raises(ValidationError, match=field):
            PlatformSpec(**fields)

    def test_dumbbell_config_carries_spec_fields(self):
        tcp = TCPConfig(variant=TCPVariant.SACK)
        spec = PlatformSpec(kind="dumbbell", n_flows=7, seed=3,
                            queue="droptail", tcp=tcp)
        config = spec.to_config()
        assert isinstance(config, DumbbellConfig)
        assert config.n_flows == 7
        assert config.seed == 3
        assert config.tcp is tcp

    def test_testbed_config_carries_spec_fields(self):
        spec = PlatformSpec(kind="testbed", n_flows=4, seed=9,
                            queue="droptail")
        config = spec.to_config()
        assert isinstance(config, TestbedConfig)
        assert config.n_flows == 4
        assert config.seed == 9
        assert config.queue == "droptail"

    def test_testbed_pipe_follows_queue(self):
        spec = PlatformSpec(kind="testbed", n_flows=2, seed=1,
                            queue="droptail")
        assert type(spec.build().bottleneck.queue) is DropTailQueue

    @pytest.mark.parametrize("kind, queue", [
        ("testbed", "choke"),
        ("testbed", "nonsense"),
        ("parking_lot", "nonsense"),
    ])
    def test_rejects_queue_the_platform_lacks(self, kind, queue):
        # Dummynet pipes offer RED and drop-tail only; the parking lot
        # takes the QUEUE_FACTORIES names.
        with pytest.raises(ValidationError, match="queue"):
            PlatformSpec(kind=kind, n_flows=3, seed=1, queue=queue)

    def test_hashable_and_picklable(self):
        spec = PlatformSpec(kind="dumbbell", n_flows=5, seed=1,
                            tcp=TCPConfig())
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_describe_scopes_discipline_by_kind(self):
        dumbbell = PlatformSpec(kind="dumbbell", n_flows=5, seed=1)
        testbed = PlatformSpec(kind="testbed", n_flows=5, seed=1)
        assert "queue" in dumbbell.describe()
        assert "use_red" in testbed.describe()

    @pytest.mark.parametrize("name", [
        "bogus", "scheduler", "long_flows", "queue_factory", "queue", "tcp",
        "seed",
    ])
    def test_rejects_extra_the_config_cannot_take(self, name):
        # Unknown fields, and fields the spec fills itself, fail when
        # the spec is made -- not later in to_config(), maybe in a worker.
        with pytest.raises(ValidationError, match=repr(name)):
            PlatformSpec(kind="parking_lot", n_flows=8, seed=1,
                         extra=((name, 1),))

    @pytest.mark.parametrize("name", ["bogus", "n_flows", "seed"])
    def test_dumbbell_extra_takes_only_config_fields(self, name):
        with pytest.raises(ValidationError, match=repr(name)):
            PlatformSpec(kind="dumbbell", n_flows=2, seed=1,
                         extra=((name, 1),))
        with pytest.raises(ValidationError, match="extra"):
            PlatformSpec(kind="testbed", n_flows=2, seed=1,
                         extra=(("stagger", 0.0),))

    def test_dumbbell_extra_sets_config_and_keys_only_when_set(self):
        plain = PlatformSpec(kind="dumbbell", n_flows=2, seed=1)
        tuned = dataclasses.replace(
            plain, extra=(("stagger", 0.0), ("mice_interarrival", 0.4)))
        assert "extra" not in plain.describe()
        assert tuned.describe() == {
            **plain.describe(),
            "extra": [["stagger", 0.0], ["mice_interarrival", 0.4]],
        }
        config = tuned.to_config()
        assert (config.stagger, config.mice_interarrival) == (0.0, 0.4)
        assert tuned.build().mice is not None
        assert plain.build().mice is None


class TestDeploymentSpec:
    def test_from_attack_duckwraps_trains_and_offsets(self):
        split = split_interleaved(small_train(4), 2)
        spec = DeploymentSpec.from_attack(split)
        assert spec.trains == tuple(split.trains)
        assert spec.offsets == tuple(split.offsets)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="offsets"):
            DeploymentSpec(trains=(small_train(),), offsets=(0.0, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            DeploymentSpec(trains=(), offsets=())


class TestCell:
    def platform(self, kind="dumbbell"):
        return PlatformSpec(kind=kind, n_flows=2, seed=1)

    def test_train_and_deployment_mutually_exclusive(self):
        deployment = DeploymentSpec.from_attack(
            split_interleaved(small_train(4), 2)
        )
        with pytest.raises(ValidationError, match="not both"):
            Cell(platform=self.platform(), warmup=1.0, window=2.0,
                 train=small_train(), deployment=deployment)

    def test_deployment_needs_dumbbell(self):
        deployment = DeploymentSpec.from_attack(
            split_interleaved(small_train(4), 2)
        )
        with pytest.raises(ValidationError, match="dumbbell"):
            Cell(platform=self.platform("testbed"), warmup=1.0, window=2.0,
                 deployment=deployment)

    def test_rate_floor_needs_dumbbell(self):
        with pytest.raises(ValidationError, match="dumbbell"):
            Cell(platform=self.platform("testbed"), warmup=1.0, window=2.0,
                 rate_floor_bps=mbps(1))

    def test_window_must_be_positive(self):
        with pytest.raises(ValidationError):
            Cell(platform=self.platform(), warmup=1.0, window=0.0)

    def test_describe_round_trips_through_json(self):
        import json

        cell = Cell(platform=self.platform(), warmup=1.0, window=2.0,
                    train=small_train())
        blob = json.dumps(cell.describe(), sort_keys=True)
        assert json.loads(blob) == cell.describe()

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValidationError, match="backend"):
            Cell(platform=self.platform(), warmup=1.0, window=2.0,
                 backend="ode")

    def test_fluid_backend_rejects_packet_only_features(self):
        from repro.sim.convergence import ConvergenceConfig

        with pytest.raises(ValidationError, match="rate floor"):
            Cell(platform=self.platform(), warmup=1.0, window=2.0,
                 backend="fluid", rate_floor_bps=mbps(1))
        with pytest.raises(ValidationError, match="early exit"):
            Cell(platform=self.platform(), warmup=1.0, window=2.0,
                 backend="fluid", early_exit=ConvergenceConfig())

    def test_fluid_max_step_is_fluid_only_and_positive(self):
        with pytest.raises(ValidationError, match="fluid_max_step"):
            Cell(platform=self.platform(), warmup=1.0, window=2.0,
                 fluid_max_step=0.05)
        with pytest.raises(ValidationError, match="fluid_max_step"):
            Cell(platform=self.platform(), warmup=1.0, window=2.0,
                 backend="fluid", fluid_max_step=0.0)

    def test_arrival_series_keys_only_when_set(self):
        # Cells without the series keep their identity byte for byte;
        # the tap attaches after the warm-up, so both share a prefix.
        from repro.runner.cells import warmup_key

        plain = Cell(platform=self.platform(), warmup=1.0, window=2.0)
        tapped = dataclasses.replace(plain, arrival_series=True)
        assert "arrival_series" not in plain.describe()
        assert tapped.describe() == {**plain.describe(),
                                     "arrival_series": True}
        assert warmup_key(tapped) == warmup_key(plain)

    def test_fluid_backend_rejects_arrival_series(self):
        with pytest.raises(ValidationError, match="arrival series"):
            Cell(platform=self.platform(), warmup=1.0, window=2.0,
                 backend="fluid", arrival_series=True)

    def test_cwnd_series_keys_only_when_set(self):
        from repro.runner.cells import warmup_key

        plain = Cell(platform=self.platform(), warmup=1.0, window=2.0)
        tapped = dataclasses.replace(plain, cwnd_series=True)
        assert "cwnd_series" not in plain.describe()
        assert tapped.describe() == {**plain.describe(),
                                     "cwnd_series": True}
        assert warmup_key(tapped) == warmup_key(plain)
        with pytest.raises(ValidationError, match="cwnd series"):
            dataclasses.replace(plain, backend="fluid", cwnd_series=True)

    def test_backend_separates_warmup_groups(self):
        from repro.runner.cells import warmup_key

        packet = Cell(platform=self.platform(), warmup=1.0, window=2.0)
        fluid = dataclasses.replace(packet, backend="fluid")
        assert warmup_key(packet) != warmup_key(fluid)


class TestExecuteCell:
    def test_deterministic_re_execution(self):
        cell = Cell(
            platform=PlatformSpec(kind="dumbbell", n_flows=2, seed=11),
            warmup=1.0, window=2.0, train=small_train(),
        )
        first = execute_cell(cell)
        second = execute_cell(cell)
        assert first.goodput_bytes == second.goodput_bytes
        assert first.flagged_sources is None

    def test_failed_recorded_cell_restores_gc_threshold(self, monkeypatch):
        # The recorder raises the gen-0 threshold for its capture; a
        # measurement that raises must not leave it raised.
        cell = Cell(
            platform=PlatformSpec(kind="dumbbell", n_flows=2, seed=11),
            warmup=1.0, window=2.0, train=small_train(),
        )
        warm_up = Network.run

        def run(net, until):
            if until > cell.warmup:
                raise RuntimeError("measurement failed")
            warm_up(net, until)

        monkeypatch.setattr(Network, "run", run)
        threshold = gc.get_threshold()
        try:
            with pytest.raises(RuntimeError, match="measurement failed"):
                execute_cell(cell, recorder=FlightRecorder())
            assert gc.get_threshold() == threshold
        finally:
            gc.set_threshold(*threshold)

    def test_detector_reports_flagged_sources(self):
        train = small_train(4)
        cell = Cell(
            platform=PlatformSpec(kind="dumbbell", n_flows=2, seed=11),
            warmup=1.0, window=2.0, train=train,
            rate_floor_bps=0.3 * train.mean_rate_bps(),
        )
        result = execute_cell(cell)
        assert result.flagged_sources == 1

    def test_fluid_group_matches_per_cell_execution(self):
        # A same-key fluid group has no snapshot to fork; the group
        # executor must fall back to per-cell runs, bit-identically,
        # without claiming any warm-start economics.
        from repro.runner.cells import execute_cell_group

        base = Cell(
            platform=PlatformSpec(kind="dumbbell", n_flows=2, seed=11),
            warmup=1.0, window=2.0, backend="fluid",
        )
        attacked = dataclasses.replace(base, train=small_train())
        group = execute_cell_group([base, attacked])
        assert group.results[0] == execute_cell(base)
        assert group.results[1] == execute_cell(attacked)
        assert group.warmup_sims == 0
        assert group.warm_starts == 0
        assert group.warmup_seconds_saved == 0.0


class TestCellMeasurements:
    """Per-flow goodput (always) and the arrival series (on request)."""

    def cell(self, **fields):
        return Cell(
            platform=PlatformSpec(kind="dumbbell", n_flows=3, seed=11),
            warmup=1.0, window=2.0, train=small_train(), **fields,
        )

    def test_per_flow_goodput_covers_every_flow(self):
        result = execute_cell(self.cell())
        assert len(result.flow_goodput_bytes) == 3
        assert sum(result.flow_goodput_bytes) == pytest.approx(
            result.goodput_bytes)
        assert result.arrival_bytes is None

    def test_fluid_cells_carry_no_per_flow_goodput(self):
        cell = dataclasses.replace(self.cell(), backend="fluid")
        assert execute_cell(cell).flow_goodput_bytes is None

    def test_arrival_series_bins_the_window(self):
        from repro.runner.cells import ARRIVAL_BIN_WIDTH

        plain = execute_cell(self.cell())
        tapped = execute_cell(self.cell(arrival_series=True))
        assert len(tapped.arrival_bytes) == round(2.0 / ARRIVAL_BIN_WIDTH)
        assert sum(tapped.arrival_bytes) > 0
        # The tap is passive: every other field is unchanged.
        assert dataclasses.replace(tapped, arrival_bytes=None) == plain

    def test_recorded_cell_reads_the_same_arrivals(self):
        # The recorder taps the bottleneck too; the series must not
        # depend on whether it is attached.
        cell = self.cell(arrival_series=True)
        recorder = FlightRecorder()
        recorded = execute_cell(cell, recorder=recorder)
        assert recorded == execute_cell(cell)
        # ... and the recorder keeps its own capture of those rows.
        rate = {s.name: s for s in recorder.harvest()}[
            "link.bottleneck.rate"]
        assert rate.column("total_bytes").sum() == pytest.approx(
            sum(recorded.arrival_bytes))

    def test_cwnd_series_starts_at_the_warmup(self):
        plain = execute_cell(self.cell())
        tapped = execute_cell(self.cell(cwnd_series=True))
        rows = tapped.cwnd_rows
        # Each flow's window at t = warmup, then one row per change.
        assert [row[:2] for row in rows[:3]] == [(1.0, 0), (1.0, 1), (1.0, 2)]
        assert len(rows) > 3
        assert all(1.0 <= t <= 3.0 for t, _flow_id, _w in rows)
        # The listener is passive: every other field is unchanged.
        assert dataclasses.replace(tapped, cwnd_rows=None) == plain

    def test_recorded_cell_reads_the_same_cwnd_rows(self):
        cell = self.cell(cwnd_series=True)
        recorder = FlightRecorder()
        recorded = execute_cell(cell, recorder=recorder)
        assert recorded == execute_cell(cell)
        cwnd = {s.name: s for s in recorder.harvest()}["tcp.cwnd"]
        assert cwnd.data.tolist() == [list(row)
                                      for row in recorded.cwnd_rows[3:]]

    def test_mice_platform_reports_launches_and_fcts(self):
        platform = PlatformSpec(kind="dumbbell", n_flows=3, seed=11,
                                extra=(("mice_interarrival", 0.2),))
        cells = [Cell(platform=platform, warmup=1.0, window=4.0,
                      train=train) for train in (None, small_train())]
        from repro.runner.cells import execute_cell_group

        results = execute_cell_group(cells).results
        assert list(results) == [execute_cell(c) for c in cells]
        for result in results:
            assert result.mice_launched > 5
            assert 0 < len(result.mice_fcts) <= result.mice_launched
        assert execute_cell(self.cell()).mice_launched is None

    def test_forked_cells_match_fresh_execution(self):
        from repro.runner.cells import execute_cell_group

        cells = [self.cell(arrival_series=True),
                 dataclasses.replace(self.cell(), train=None)]
        group = execute_cell_group(cells, record=True)
        assert group.warm_starts == 1
        assert list(group.results) == [execute_cell(c) for c in cells]
