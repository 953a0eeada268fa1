"""Warm-start scheduling: grouping, bit-identity, stats, pool lifecycle.

The contract under test: an :class:`ExperimentRunner` returns
byte-for-byte the same :class:`CellResult` objects as running
:func:`execute_cell` on each cell from scratch -- across attack shapes,
deployments, conformance detection, platforms, and job counts -- while
paying for each shared warm-up prefix once.
"""

import pytest

from repro.core.attack import PulseTrain
from repro.runner import (
    Cell,
    DeploymentSpec,
    ExperimentRunner,
    PlatformSpec,
    ResultCache,
    cell_key,
    execute_cell,
    execute_cell_group,
    get_default_runner,
    set_default_runner,
    warmup_key,
)
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms


def make_train(gamma):
    return PulseTrain.from_gamma(
        gamma=gamma, rate_bps=mbps(30), extent=ms(100),
        bottleneck_bps=mbps(15), n_pulses=3,
    )


def sweep_cells(*, seed=11, n_flows=2, warmup=1.0, window=2.0,
                gammas=(0.3, 0.6, 0.9), rate_floor_bps=None, kind="dumbbell"):
    platform = PlatformSpec(kind=kind, n_flows=n_flows, seed=seed)
    baseline = Cell(platform=platform, warmup=warmup, window=window,
                    rate_floor_bps=rate_floor_bps)
    return [baseline] + [
        Cell(platform=platform, warmup=warmup, window=window,
             train=make_train(g), rate_floor_bps=rate_floor_bps)
        for g in gammas
    ]


class TestWarmupKey:
    def test_same_prefix_same_key(self):
        cells = sweep_cells()
        keys = {warmup_key(cell) for cell in cells}
        assert len(keys) == 1  # attack shape is not part of the prefix

    def test_window_not_part_of_key(self):
        a = sweep_cells(window=2.0)[0]
        b = sweep_cells(window=9.0)[0]
        assert warmup_key(a) == warmup_key(b)

    @pytest.mark.parametrize("variation", [
        dict(seed=12), dict(warmup=2.0), dict(n_flows=3),
        dict(kind="testbed"),
    ])
    def test_prefix_changes_split_groups(self, variation):
        assert warmup_key(sweep_cells()[0]) != warmup_key(
            sweep_cells(**variation)[0])

    def test_rate_floor_shares_the_prefix(self):
        # The detector attaches after the warm-up, so a rate floor does
        # not change the prefix.
        assert warmup_key(sweep_cells()[0]) == warmup_key(
            sweep_cells(rate_floor_bps=mbps(1))[0])


class TestGroupExecutor:
    def test_group_matches_cell_by_cell(self):
        cells = sweep_cells()
        grouped = execute_cell_group(cells)
        assert list(grouped.results) == [execute_cell(c) for c in cells]
        assert grouped.warmup_sims == 1
        assert grouped.warm_starts == len(cells) - 1
        assert grouped.warmup_seconds_saved == pytest.approx(
            sum(c.warmup for c in cells[1:]))

    def test_group_rejects_mixed_prefixes(self):
        mixed = [sweep_cells(seed=1)[0], sweep_cells(seed=2)[0]]
        with pytest.raises(ValidationError, match="warmup prefix"):
            execute_cell_group(mixed)

    def test_detector_and_plain_cells_share_one_warmup(self):
        plain = sweep_cells(gammas=(1.2,))
        detected = sweep_cells(rate_floor_bps=mbps(0.05), gammas=(1.2,))
        cells = [plain[0], detected[1], plain[1], detected[0]]
        grouped = execute_cell_group(cells)
        assert grouped.warmup_sims == 1
        assert grouped.warm_starts == 3
        assert list(grouped.results) == [execute_cell(c) for c in cells]
        assert [r.flagged_sources for r in grouped.results] == [
            None, 1, None, 0]

    def test_empty_and_singleton_groups(self):
        assert execute_cell_group([]).results == ()
        cell = sweep_cells()[0]
        single = execute_cell_group([cell])
        assert single.results == (execute_cell(cell),)
        assert single.warm_starts == 0
        assert single.warmup_sims == 1


class TestBitIdentity:
    @staticmethod
    def run_both(cells, **kwargs):
        """The runner's results and the from-scratch reference."""
        with ExperimentRunner(**kwargs) as warm:
            warm_results = warm.measure_many(cells)
        cold_results = [execute_cell(cell) for cell in cells]
        return warm, warm_results, cold_results

    def test_sweep_identical_warm_vs_cold(self):
        warm, warm_results, cold_results = self.run_both(sweep_cells())
        assert warm_results == cold_results
        assert warm.stats.warm_starts == 3
        assert warm.stats.warmup_sims == 1

    def test_conformance_detection_identical(self):
        # Each fork gets its own detector, attached at t = warmup;
        # flagged counts must match from-scratch execution.
        cells = sweep_cells(rate_floor_bps=mbps(0.05), gammas=(0.6, 1.2))
        _, warm_results, cold_results = self.run_both(cells)
        assert warm_results == cold_results
        assert any(r.flagged_sources for r in warm_results)

    def test_deployment_cells_identical(self):
        platform = PlatformSpec(kind="dumbbell", n_flows=2, seed=4)
        deployment = DeploymentSpec(
            trains=(make_train(0.4), make_train(0.4)),
            offsets=(0.0, 0.5),
        )
        cells = [
            Cell(platform=platform, warmup=1.0, window=2.0),
            Cell(platform=platform, warmup=1.0, window=2.0,
                 deployment=deployment),
            Cell(platform=platform, warmup=1.0, window=2.0,
                 train=make_train(0.8)),
        ]
        _, warm_results, cold_results = self.run_both(cells)
        assert warm_results == cold_results

    def test_testbed_cells_identical(self):
        _, warm_results, cold_results = self.run_both(
            sweep_cells(kind="testbed", n_flows=2, gammas=(0.5, 1.0)))
        assert warm_results == cold_results

    def test_parallel_identical_and_saturates(self):
        cells = sweep_cells(gammas=(0.3, 0.5, 0.7, 0.9))
        warm, warm_results, cold_results = self.run_both(cells, jobs=2)
        assert warm_results == cold_results
        # One warm-up group split into chunks: some sharing survives.
        assert warm.stats.warmup_sims == 2
        assert warm.stats.warm_starts == len(cells) - 2

    def test_mixed_prefix_batch_identical(self):
        cells = sweep_cells(seed=21) + sweep_cells(seed=22, warmup=1.5)
        warm, warm_results, cold_results = self.run_both(cells)
        assert warm_results == cold_results
        assert warm.stats.warmup_sims == 2  # one per prefix group


class TestStatsAndCache:
    def test_distinct_prefixes_fork_nothing(self):
        # One cell per warm-up prefix: every unit is a single cell, so
        # nothing is forked and nothing is saved.
        runner = ExperimentRunner()
        runner.measure_many([sweep_cells(seed=seed)[1] for seed in (41, 42)])
        assert runner.stats.warm_starts == 0
        assert runner.stats.warmup_sims == 2
        assert runner.stats.warmup_seconds_saved == 0.0

    def test_cache_keys_unchanged_by_warm_start(self, tmp_path):
        # Forked results land under each cell's own key, holding what a
        # from-scratch execution of that cell returns.
        cells = sweep_cells()
        ExperimentRunner(cache_dir=tmp_path).measure_many(cells)
        cache = ResultCache(tmp_path)
        assert [cache.get(cell_key(cell)) for cell in cells] == [
            execute_cell(cell) for cell in cells]
        replay = ExperimentRunner(cache_dir=tmp_path)
        replay.measure_many(cells)
        assert replay.stats.cache_hits == len(cells)
        assert replay.stats.executed == 0

    def test_snapshot_carries_warm_start_fields(self):
        runner = ExperimentRunner()
        runner.measure_many(sweep_cells(gammas=(0.4, 0.8)))
        snap = runner.stats.snapshot()
        assert snap["warm_starts"] == 2
        assert snap["warmup_sims"] == 1
        assert snap["warmup_seconds_saved"] == pytest.approx(2.0)

    def test_intra_batch_duplicates_count_as_memo_hits(self):
        # Regression: duplicates inside one batch used to vanish from
        # the accounting entirely (neither executed nor hits).
        runner = ExperimentRunner()
        cell = sweep_cells()[1]
        runner.measure_many([cell, cell, cell])
        assert runner.stats.executed == 1
        assert runner.stats.memo_hits == 2
        assert runner.stats.cells == 3


class TestPersistentPool:
    def test_pool_persists_across_batches(self):
        runner = ExperimentRunner(jobs=2)
        runner.measure_many(sweep_cells(seed=31, gammas=(0.4, 0.8)))
        pool = runner._pool
        assert pool is not None
        runner.measure_many(sweep_cells(seed=32, gammas=(0.4, 0.8)))
        assert runner._pool is pool  # reused, not rebuilt
        runner.close()
        assert runner._pool is None

    def test_close_is_idempotent_and_reopens(self):
        runner = ExperimentRunner(jobs=2)
        runner.close()  # nothing created yet: no-op
        runner.measure_many(sweep_cells(seed=33, gammas=(0.4, 0.8)))
        runner.close()
        runner.close()
        # Runner stays usable: the next parallel batch makes a new pool.
        results = runner.measure_many(sweep_cells(seed=34, gammas=(0.4, 0.8)))
        assert len(results) == 3
        runner.close()

    def test_context_manager_closes_pool(self):
        with ExperimentRunner(jobs=2) as runner:
            runner.measure_many(sweep_cells(seed=35, gammas=(0.4, 0.8)))
            assert runner._pool is not None
        assert runner._pool is None

    def test_serial_runner_never_creates_pool(self):
        runner = ExperimentRunner(jobs=1)
        runner.measure_many(sweep_cells(seed=36))
        assert runner._pool is None


class TestEnvironment:
    def test_jobs_must_parse_as_integer(self, monkeypatch):
        set_default_runner(None)
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValidationError) as excinfo:
            get_default_runner()
        assert "REPRO_JOBS" in str(excinfo.value)
        assert "abc" in str(excinfo.value)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_must_be_at_least_one(self, monkeypatch, value):
        set_default_runner(None)
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValidationError, match="REPRO_JOBS"):
            get_default_runner()

    def test_blank_jobs_falls_back_to_default(self, monkeypatch):
        set_default_runner(None)
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert get_default_runner().jobs == 1
