"""RunnerStats accounting: ratios, snapshots, deltas, utilization."""

import pytest

from repro.runner import Cell, ExperimentRunner, PlatformSpec
from repro.runner.runner import RunnerStats


def make_stats(executed=0, cache=0, memo=0, seconds_each=1.0):
    stats = RunnerStats()
    for i in range(executed):
        stats.record(f"x{i}", "executed", seconds_each)
    for i in range(cache):
        stats.record(f"c{i}", "cache")
    for i in range(memo):
        stats.record(f"m{i}", "memo")
    return stats


class TestRatios:
    def test_hit_ratio_zero_when_empty(self):
        assert make_stats().hit_ratio == 0.0

    def test_hit_ratio_counts_cache_and_memo(self):
        stats = make_stats(executed=1, cache=2, memo=1)
        assert stats.cells == 4
        assert stats.hit_ratio == 0.75

    def test_worker_utilization_none_before_parallel_batches(self):
        assert make_stats(executed=3).worker_utilization is None

    def test_worker_utilization_is_busy_over_available(self):
        stats = make_stats()
        stats.parallel_batches = 1
        stats.parallel_wall_seconds = 2.0
        stats.parallel_busy_seconds = 3.0
        stats.parallel_worker_seconds = 4.0  # 2 workers x 2 s wall
        assert stats.worker_utilization == 0.75

    def test_worker_utilization_none_at_zero_elapsed_time(self):
        # A batch so fast the wall clock read 0.0 must not divide by
        # zero -- no available worker-seconds means no utilization yet.
        stats = make_stats(executed=1)
        stats.parallel_batches = 1
        stats.parallel_wall_seconds = 0.0
        stats.parallel_busy_seconds = 0.0
        stats.parallel_worker_seconds = 0.0
        assert stats.worker_utilization is None
        assert stats.snapshot()["worker_utilization"] is None


class TestSnapshots:
    def test_snapshot_is_cumulative(self):
        stats = make_stats(executed=2, cache=1, seconds_each=0.5)
        stats.seeds.update({11, 12, 13})
        snap = stats.snapshot()
        assert snap["cells"] == 3
        assert snap["executed"] == 2
        assert snap["cache_hits"] == 1
        assert snap["executed_seconds"] == pytest.approx(1.0)
        assert snap["seed_fanout"] == 3
        assert snap["worker_utilization"] is None

    def test_delta_snapshot_excludes_work_before_mark(self):
        stats = make_stats(executed=2, cache=2)
        stats.warm_starts = 4
        stats.warmup_sims = 2
        stats.warmup_seconds_saved = 24.0
        mark = stats.checkpoint()
        stats.record("y", "executed", 2.0)
        stats.record("z", "memo")
        stats.warm_starts += 1
        stats.warmup_sims += 1
        stats.warmup_seconds_saved += 6.0
        delta = stats.delta_snapshot(mark)
        assert delta == {
            "cells": 2, "executed": 1, "cache_hits": 0, "memo_hits": 1,
            "hit_ratio": 0.5, "executed_seconds": pytest.approx(2.0),
            "warm_starts": 1, "warmup_sims": 1,
            "warmup_seconds_saved": pytest.approx(6.0),
            "planner_cells_saved": 0, "planner_seeds_saved": 0,
            "truncated_cells": 0, "truncated_sim_seconds": 0.0,
            "fluid_cells": 0,
        }

    def test_checkpoint_roundtrip_with_planner_counters(self):
        # A checkpoint taken with planner counters present must zero the
        # delta exactly, and further planner work must subtract cleanly.
        stats = make_stats(executed=2)
        stats.planner_cells_saved = 4
        stats.planner_seeds_saved = 6
        stats.truncated_cells = 5
        stats.truncated_sim_seconds = 42.5
        mark = stats.checkpoint()
        zero = stats.delta_snapshot(mark)
        assert all(value == 0 for key, value in zero.items()
                   if key != "hit_ratio")
        stats.planner_seeds_saved += 2
        stats.truncated_cells += 1
        stats.truncated_sim_seconds += 7.5
        stats.fluid_cells += 4
        delta = stats.delta_snapshot(mark)
        assert delta["planner_seeds_saved"] == 2
        assert delta["planner_cells_saved"] == 0
        assert delta["truncated_cells"] == 1
        assert delta["truncated_sim_seconds"] == pytest.approx(7.5)
        assert delta["fluid_cells"] == 4
        assert "4 cells on the fluid backend" in stats.summary()

    def test_delta_snapshot_of_empty_batch_is_all_zero(self):
        stats = make_stats(executed=3, cache=1)
        stats.planner_seeds_saved = 2
        mark = stats.checkpoint()
        delta = stats.delta_snapshot(mark)
        assert delta["cells"] == 0
        assert delta["hit_ratio"] == 0.0  # vacuous, not NaN
        assert delta["executed_seconds"] == 0.0
        assert delta["planner_seeds_saved"] == 0

    def test_since_renders_delta_with_hit_ratio(self):
        stats = make_stats(executed=1, memo=3, seconds_each=0.2)
        text = stats.since(stats.__class__().checkpoint())
        assert text.startswith("cells: 4 (1 executed")
        assert "3 memo hits" in text
        assert "75% hit ratio" in text
        assert "warm starts" not in text  # no warm starts -> no clause

    def test_since_mentions_warm_starts_when_present(self):
        stats = make_stats(executed=2)
        stats.warm_starts = 3
        stats.warmup_sims = 1
        stats.warmup_seconds_saved = 18.0
        text = stats.summary()
        assert "3 warm starts saved 18s of simulated warm-up" in text


class TestRunnerIntegration:
    def test_seed_fanout_tracks_distinct_seeds(self):
        runner = ExperimentRunner(jobs=1, cache_dir=None)
        cells = [
            Cell(platform=PlatformSpec(kind="dumbbell", n_flows=1, seed=s),
                 warmup=0.5, window=0.5)
            for s in (3, 4, 3)
        ]
        runner.measure_many(cells)
        assert runner.stats.seeds == {3, 4}
        assert runner.stats.snapshot()["seed_fanout"] == 2

    def test_parallel_batch_accounting(self):
        runner = ExperimentRunner(jobs=2, cache_dir=None)
        cells = [
            Cell(platform=PlatformSpec(kind="dumbbell", n_flows=1, seed=s),
                 warmup=0.5, window=0.5)
            for s in (5, 6)
        ]
        runner.measure_many(cells)
        stats = runner.stats
        assert stats.parallel_batches == 1
        assert stats.parallel_wall_seconds > 0.0
        assert stats.parallel_busy_seconds > 0.0
        # Two workers for the whole batch wall time.
        assert stats.parallel_worker_seconds == pytest.approx(
            2.0 * stats.parallel_wall_seconds)
        assert 0.0 < stats.worker_utilization <= 1.0

    def test_snapshot_after_one_batch_is_pinned(self):
        # The store and the benchmark harness read these keys by name;
        # the whole dict is pinned so a renamed or dropped counter fails.
        from repro.core.attack import PulseTrain
        from repro.util.units import mbps, ms

        platform = PlatformSpec(kind="dumbbell", n_flows=1, seed=8)
        trains = [PulseTrain.uniform(ms(100), mbps(30), space, 2)
                  for space in (0.4, 0.9)]
        cells = [Cell(platform=platform, warmup=0.5, window=0.5, train=train)
                 for train in [None] + trains + trains[:1]]
        runner = ExperimentRunner()
        runner.measure_many(cells)
        stats = runner.stats
        executed_seconds = sum(timing.elapsed for timing in stats.timings)
        assert stats.snapshot() == {
            "cells": 4, "executed": 3, "cache_hits": 0, "memo_hits": 1,
            "hit_ratio": 0.25, "executed_seconds": executed_seconds,
            "warm_starts": 2, "warmup_sims": 1, "warmup_seconds_saved": 1.0,
            "planner_cells_saved": 0, "planner_seeds_saved": 0,
            "truncated_cells": 0, "truncated_sim_seconds": 0.0,
            "fluid_cells": 0,
            "seed_fanout": 1, "parallel_batches": 0,
            "parallel_wall_seconds": 0.0, "parallel_busy_seconds": 0.0,
            "worker_utilization": None,
        }
        assert stats.delta_snapshot(stats.checkpoint()) == dict.fromkeys(
            ["cells", "hit_ratio", "executed", "cache_hits", "memo_hits",
             "executed_seconds", "warm_starts", "warmup_sims",
             "warmup_seconds_saved", "planner_cells_saved",
             "planner_seeds_saved", "truncated_cells",
             "truncated_sim_seconds", "fluid_cells"], 0)
