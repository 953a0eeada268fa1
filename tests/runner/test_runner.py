"""The executor: determinism, dedup, caching, parallel fan-out, stats."""

import hashlib
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.attack import PulseTrain
from repro.experiments.base import DumbbellPlatform, run_gain_sweep
import repro.runner.runner as runner_module
from repro.obs import metrics
from repro.runner import (
    Cell,
    ExperimentRunner,
    PlatformSpec,
    cell_key,
    get_default_runner,
    set_default_runner,
)
from repro.util.errors import ReproError, ValidationError
from repro.util.units import mbps, ms


def make_cell(seed=11, gamma=0.5, window=2.0):
    return Cell(
        platform=PlatformSpec(kind="dumbbell", n_flows=2, seed=seed),
        warmup=1.0,
        window=window,
        train=PulseTrain.from_gamma(
            gamma=gamma, rate_bps=mbps(30), extent=ms(100),
            bottleneck_bps=mbps(15), n_pulses=4,
        ),
    )


def sweep_cells(seed=11):
    """A baseline plus attacked cells sharing one warm-up prefix."""
    platform = PlatformSpec(kind="dumbbell", n_flows=2, seed=seed)
    baseline = Cell(platform=platform, warmup=1.0, window=2.0)
    return [baseline] + [
        Cell(platform=platform, warmup=1.0, window=2.0,
             train=PulseTrain.from_gamma(
                 gamma=g, rate_bps=mbps(30), extent=ms(100),
                 bottleneck_bps=mbps(15), n_pulses=3,
             ))
        for g in (0.3, 0.6)
    ]


def two_group_cells():
    """Six cells across two warm-start prefixes (seeds 11 and 12)."""
    return sweep_cells(seed=11) + sweep_cells(seed=12)


def digest(results):
    """A bit-exact fingerprint of a result list (repr round-trips floats)."""
    return hashlib.sha256(repr(results).encode()).hexdigest()


@pytest.fixture(scope="module")
def serial_digest():
    """Ground truth: :func:`two_group_cells` executed serially."""
    with ExperimentRunner(jobs=1) as runner:
        return digest(runner.measure_many(two_group_cells()))


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValidationError, match="jobs"):
            ExperimentRunner(jobs=0)


class TestDeterminism:
    def test_serial_worker_and_cache_agree_bitwise(self, tmp_path):
        cells = [make_cell(seed=11), make_cell(seed=12)]

        serial = ExperimentRunner(jobs=1).measure_many(cells)
        parallel = ExperimentRunner(jobs=2).measure_many(cells)

        caching = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        first = caching.measure_many(cells)
        replayed = ExperimentRunner(jobs=1, cache_dir=tmp_path).measure_many(
            cells
        )

        goodputs = [
            [result.goodput_bytes for result in batch]
            for batch in (serial, parallel, first, replayed)
        ]
        assert goodputs[0] == goodputs[1] == goodputs[2] == goodputs[3]

    def test_serial_pool_bit_identical(self, serial_digest):
        cells = two_group_cells()
        with ExperimentRunner(jobs=2) as runner:
            assert digest(runner.measure_many(cells)) == serial_digest
        # Warm accounting is placement-independent too: one warm-up per
        # prefix, every other cell a fork.
        assert runner.stats.warmup_sims == 2
        assert runner.stats.warm_starts == len(cells) - 2

    def test_pool_batch_reports_worker_metrics(self):
        # Workers run each unit under a fresh registry and ship it back:
        # the parent's registry counts their events as if run inline.
        cells = two_group_cells()
        snapshots = []
        for jobs in (1, 2):
            with metrics.collecting() as registry, \
                    ExperimentRunner(jobs=jobs) as runner:
                runner.measure_many(cells)
            snapshots.append(registry.snapshot())
        serial, pooled = snapshots
        assert serial["engine.events_dispatched"] > 0
        assert (pooled["engine.events_dispatched"]
                == serial["engine.events_dispatched"])
        assert pooled["engine.runs"] == serial["engine.runs"]
        assert (pooled["engine.peak_calendar_depth"]
                == serial["engine.peak_calendar_depth"])


class TestDedupAndMemo:
    def test_identical_cells_measured_once(self):
        runner = ExperimentRunner(jobs=1)
        results = runner.measure_many([make_cell(), make_cell()])
        assert runner.stats.executed == 1
        assert results[0].goodput_bytes == results[1].goodput_bytes

    def test_memo_serves_repeat_batches(self):
        runner = ExperimentRunner(jobs=1)
        first = runner.measure(make_cell())
        again = runner.measure(make_cell())
        assert runner.stats.executed == 1
        assert runner.stats.memo_hits == 1
        assert first.goodput_bytes == again.goodput_bytes

    def test_results_return_in_input_order(self):
        runner = ExperimentRunner(jobs=2)
        cells = [make_cell(seed=s) for s in (21, 22, 21, 23)]
        results = runner.measure_many(cells)
        assert results[0].goodput_bytes == results[2].goodput_bytes
        solo = {
            seed: ExperimentRunner().measure(make_cell(seed=s)).goodput_bytes
            for seed, s in zip((21, 22, 23), (21, 22, 23))
        }
        assert [r.goodput_bytes for r in results] == [
            solo[21], solo[22], solo[21], solo[23],
        ]


class TestCachePersistence:
    def test_cache_survives_runner_instances(self, tmp_path):
        first = ExperimentRunner(cache_dir=tmp_path)
        first.measure(make_cell())
        assert first.stats.executed == 1

        second = ExperimentRunner(cache_dir=tmp_path)
        second.measure(make_cell())
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 1

    def test_cached_rerun_at_least_5x_faster(self, tmp_path):
        cell = make_cell(window=4.0)

        started = time.perf_counter()
        warm = ExperimentRunner(cache_dir=tmp_path)
        warm.measure(cell)
        executed_wall = time.perf_counter() - started

        started = time.perf_counter()
        ExperimentRunner(cache_dir=tmp_path).measure(cell)
        cached_wall = time.perf_counter() - started

        assert executed_wall >= 5.0 * cached_wall

    def test_no_cache_dir_means_no_disk_io(self):
        runner = ExperimentRunner()
        assert runner.cache is None
        runner.measure(make_cell())
        assert runner.stats.executed == 1


class TestStats:
    def test_checkpoint_delta_counts_only_new_cells(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.measure(make_cell())
        mark = runner.stats.checkpoint()
        runner.measure(make_cell())          # memo hit
        runner.measure(make_cell(seed=99))   # fresh execution
        delta = runner.stats.since(mark)
        assert "cells: 2" in delta
        assert "1 executed" in delta
        assert "1 memo hits" in delta

    def test_summary_totals(self):
        runner = ExperimentRunner()
        runner.measure_many([make_cell(), make_cell(seed=77)])
        assert "cells: 2 (2 executed" in runner.stats.summary()
        assert runner.stats.cells == 2


class TestDefaultRunner:
    def test_env_configures_lazy_default(self, monkeypatch, tmp_path):
        set_default_runner(None)
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = get_default_runner()
        assert runner.jobs == 3
        assert runner.cache.directory == tmp_path

    def test_set_returns_previous(self):
        installed = ExperimentRunner(jobs=2)
        set_default_runner(None)
        assert set_default_runner(installed) is None
        assert get_default_runner() is installed


class TestSweepIntegration:
    def test_parallel_sweep_equals_serial_sweep(self):
        kwargs = dict(
            rate_bps=mbps(30), extent=ms(100), gammas=(0.4, 0.7),
            warmup=1.0, window=3.0,
        )
        serial = run_gain_sweep(
            DumbbellPlatform(n_flows=2, seed=5), runner=ExperimentRunner(),
            **kwargs,
        )
        parallel = run_gain_sweep(
            DumbbellPlatform(n_flows=2, seed=5),
            runner=ExperimentRunner(jobs=2), **kwargs,
        )
        assert [p.measured_degradation for p in serial.points] == [
            p.measured_degradation for p in parallel.points
        ]


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
DOOMED_SEED = 12


def _dying_group(attempt_log, *, die_after_attempts):
    """An ``execute_cell_group`` whose worker SIGKILLs itself.

    Only units of the :data:`DOOMED_SEED` prefix die; each of their
    attempts appends a line to *attempt_log* (shared by every forked
    worker) and kills its process while the log holds at most
    *die_after_attempts* lines.
    """
    real = runner_module.execute_cell_group

    def group(cells, **kwargs):
        if cells[0].platform.seed == DOOMED_SEED:
            with open(attempt_log, "a+") as log:
                log.write("attempt\n")
                log.seek(0)
                attempts = len(log.readlines())
            if attempts <= die_after_attempts:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(cells, **kwargs)

    return group


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the patched executor reaches workers via fork")
class TestCrashRecovery:
    def test_killed_worker_batch_matches_serial(self, monkeypatch, tmp_path,
                                                serial_digest):
        attempt_log = tmp_path / "attempts"
        # Patched before the pool starts, so forked workers inherit it.
        monkeypatch.setattr(runner_module, "execute_cell_group",
                            _dying_group(attempt_log, die_after_attempts=1))
        cells = two_group_cells()
        with ExperimentRunner(jobs=2) as runner:
            assert digest(runner.measure_many(cells)) == serial_digest
            assert attempt_log.read_text().count("attempt") == 2
            # Each cell is absorbed exactly once across both pools.
            assert runner.stats.executed == len(cells)
            assert runner.stats.warmup_sims == 2
            assert runner.stats.warm_starts == len(cells) - 2
            # The broken pool was replaced, not kept: the next batch runs.
            later = sweep_cells(seed=13)
            expected = ExperimentRunner(jobs=1).measure_many(later)
            assert digest(runner.measure_many(later)) == digest(expected)

    def test_worker_dying_every_attempt_names_its_cells(self, monkeypatch,
                                                        tmp_path):
        attempt_log = tmp_path / "attempts"
        monkeypatch.setattr(runner_module, "execute_cell_group",
                            _dying_group(attempt_log, die_after_attempts=99))
        doomed = [cell_key(c) for c in sweep_cells(seed=DOOMED_SEED)]
        with ExperimentRunner(jobs=2) as runner:
            with pytest.raises(ReproError, match="died") as excinfo:
                runner.measure_many(two_group_cells())
            # One first attempt plus exactly one retry.
            assert attempt_log.read_text().count("attempt") == 2
            for key in doomed:
                assert key in str(excinfo.value)
            # Surviving the failure: the runner still executes batches.
            healthy = sweep_cells(seed=11)
            assert len(runner.measure_many(healthy)) == len(healthy)


# ----------------------------------------------------------------------
# dry run
# ----------------------------------------------------------------------
class TestDryRun:
    def test_plans_instead_of_executing(self):
        cells = sweep_cells()
        with ExperimentRunner(dry_run=True) as runner:
            results = runner.measure_many(cells)
            assert len(results) == len(cells)
            # Placeholders, not measurements: rate exactly 1.0 and no
            # execution recorded anywhere.
            assert all(r.goodput_bytes == cells[0].window for r in results)
            assert runner.stats.executed == 0
            assert runner.stats.cache_hits == 0
            plan = runner.dry_run_plan
            assert [e.status for e in plan.entries] == ["execute"] * 3
            assert plan.batches == 1

    def test_second_batch_hits_dry_memo(self):
        cells = sweep_cells()
        with ExperimentRunner(dry_run=True) as runner:
            first = runner.measure_many(cells)
            second = runner.measure_many(cells)
            assert second == first
            statuses = [e.status for e in runner.dry_run_plan.entries]
            assert statuses == ["execute"] * 3 + ["memo"] * 3

    def test_duplicates_counted_once(self):
        cell = sweep_cells()[0]
        with ExperimentRunner(dry_run=True) as runner:
            runner.measure_many([cell, cell, cell])
            assert len(runner.dry_run_plan.entries) == 1
            assert runner.dry_run_plan.duplicates == 2

    def test_cache_hits_resolve_real_results(self, tmp_path):
        cells = sweep_cells()
        with ExperimentRunner(cache_dir=tmp_path) as real:
            executed = real.measure_many(cells)
        with ExperimentRunner(cache_dir=tmp_path, dry_run=True) as dry:
            planned = dry.measure_many(cells)
            assert planned == executed  # real cached values, not stand-ins
            statuses = [e.status for e in dry.dry_run_plan.entries]
            assert statuses == ["cache"] * 3

    def test_render_summarizes_prefix_groups(self):
        cells = two_group_cells()
        with ExperimentRunner(dry_run=True) as runner:
            runner.measure_many(cells)
            text = runner.dry_run_plan.render()
        assert "6 cells planned -- 6 to execute" in text
        assert "warm-up prefixes to simulate: 2" in text
        assert "kind=dumbbell" in text and "seed=11" in text

    def test_empty_plan_renders(self):
        assert ExperimentRunner(dry_run=True).dry_run_plan.render() \
            == "dry run: no cells planned"
