"""The sqlite experiment store: schema, round trips, canned queries,
provenance, and robustness under concurrent and killed writers."""

import json
import multiprocessing
import signal

import numpy as np
import pytest

from repro.core.attack import PulseTrain
from repro.obs.recorder import FlightRecorder
from repro.obs.report import render_report
from repro.obs.store import (
    CANNED_QUERIES,
    ExperimentStore,
    git_sha,
    is_store,
    open_readonly,
)
from repro.util.units import mbps, ms


@pytest.fixture(scope="module")
def executed_cell():
    """One real executed cell with its flight-recorder capture."""
    from repro.runner import Cell, PlatformSpec, execute_cell

    cell = Cell(platform=PlatformSpec(kind="dumbbell", n_flows=2, seed=7),
                warmup=1.0, window=2.0)
    recorder = FlightRecorder()
    result = execute_cell(cell, recorder=recorder)
    return cell, result, recorder.harvest()


def make_store(tmp_path, name="store.sqlite"):
    store = ExperimentStore(tmp_path / name)
    store.begin_run("all", argv=["fig06"], git_sha="abc1234",
                    timestamp=100.0)
    store.begin_experiment("fig06", timestamp=101.0)
    return store


def insert_cell(store, *, key, source="executed", gamma=None, extent=None,
                rate_bps=None, goodput_rate=1000.0, n_flows=5, seed=1,
                elapsed=None, backend="packet", kind="dumbbell",
                worker=None):
    """A synthetic cells row (canned-query tests control every column)."""
    cursor = store._db.execute(
        "INSERT INTO cells (experiment_id, key, source, elapsed, spec,"
        " backend, kind, n_flows, seed, gamma, extent, rate_bps,"
        " goodput_bytes, goodput_rate, worker)"
        " VALUES (?, ?, ?, ?, '{}', ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (store._experiment_id, key, source, elapsed, backend, kind,
         n_flows, seed, gamma, extent, rate_bps,
         goodput_rate * 2.0, goodput_rate, worker),
    )
    store._db.commit()
    return int(cursor.lastrowid)


class TestSchema:
    def test_creates_all_tables(self, tmp_path):
        with ExperimentStore(tmp_path / "s.sqlite") as store:
            names, rows = store.query(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
                " ORDER BY name")
        assert [r[0] for r in rows] == [
            "cells", "experiments", "metrics", "runs", "series"]

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "s.sqlite"
        ExperimentStore(path).close()
        with ExperimentStore(path) as store:
            store.begin_run("x")
            assert store.query("SELECT count(*) FROM runs")[1] == [(1,)]

    def test_is_store_by_content_not_extension(self, tmp_path):
        db = tmp_path / "anything.bin"
        ExperimentStore(db).close()
        assert is_store(db)
        log = tmp_path / "runlog.jsonl"
        log.write_text('{"record": "run"}\n')
        assert not is_store(log)
        assert not is_store(tmp_path / "absent")

    def test_open_readonly_refuses_to_create(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such"):
            open_readonly(tmp_path / "absent.sqlite")


class TestRecordCell:
    def test_series_round_trip_bit_exact(self, tmp_path, executed_cell):
        cell, result, series = executed_cell
        store = make_store(tmp_path)
        cell_id = store.record_cell("deadbeef" * 8, cell, result,
                                    source="executed", elapsed=0.5,
                                    series=series)
        fetched = store.fetch_series(cell_id)
        assert [s.name for s in fetched] == sorted(s.name for s in series)
        by_name = {s.name: s for s in series}
        for item in fetched:
            original = by_name[item.name]
            assert item.columns == original.columns
            assert item.evicted == original.evicted
            # Bit-exact: blobs are raw float64, no text round trip.
            assert np.array_equal(item.data, original.data)

    def test_fetch_single_series_by_name(self, tmp_path, executed_cell):
        cell, result, series = executed_cell
        store = make_store(tmp_path)
        cell_id = store.record_cell("feed" * 16, cell, result,
                                    source="executed", series=series)
        only = store.fetch_series(cell_id, "tcp.cwnd")
        assert [s.name for s in only] == ["tcp.cwnd"]

    def test_find_cells_by_key_prefix(self, tmp_path, executed_cell):
        cell, result, _ = executed_cell
        store = make_store(tmp_path)
        store.record_cell("aabb" * 16, cell, result, source="executed")
        store.record_cell("ccdd" * 16, cell, result, source="cache")
        matches = store.find_cells("aabb")
        assert len(matches) == 1
        assert matches[0][1] == "aabb" * 16
        assert matches[0][2] == "fig06"
        assert matches[0][3] == "executed"

    def test_attack_cell_rows_carry_derived_gamma(self, tmp_path,
                                                  executed_cell):
        _, result, _ = executed_cell
        from repro.runner import Cell, PlatformSpec

        platform = PlatformSpec(kind="dumbbell", n_flows=2, seed=7)
        # Build the train against the platform's real bottleneck: the
        # stored gamma is Eq. 4 relative to the contested link the cell
        # actually runs on.
        bottleneck = platform.to_config().bottleneck_rate_bps
        attack = Cell(
            platform=platform, warmup=1.0, window=2.0,
            train=PulseTrain.from_gamma(
                gamma=0.5, rate_bps=mbps(30), extent=ms(100),
                bottleneck_bps=bottleneck, n_pulses=3),
        )
        store = make_store(tmp_path)
        store.record_cell("aa" * 32, attack, result, source="executed")
        names, rows = store.query(
            "SELECT gamma, extent, rate_bps, n_flows, seed FROM cells")
        gamma, extent, rate_bps, n_flows, seed = rows[0]
        # Eq. 4 over the spec's actual extents/period; from_gamma rounds
        # the period, so the derived gamma lands near the nominal 0.5.
        assert 0.4 < gamma < 0.6
        assert extent == pytest.approx(0.1)
        assert rate_bps == pytest.approx(mbps(30))
        assert (n_flows, seed) == (2, 7)

    def test_parking_lot_gamma_uses_the_tightest_attacked_segment(
            self, tmp_path, executed_cell):
        """γ normalizes by the spec's own contested rate, ``extra``
        included: 20 Mb/s here, not the 15 Mb/s config default."""
        _, result, _ = executed_cell
        from repro.runner import Cell, PlatformSpec

        # Attack on segment 0 (the default span), the 20 Mb/s one.
        platform = PlatformSpec(
            kind="parking_lot", n_flows=3, seed=1,
            extra=(("cross_flows", 1), ("n_segments", 2),
                   ("segment_rates_bps", (mbps(20), mbps(12)))),
        )
        attack = Cell(
            platform=platform, warmup=1.0, window=2.0,
            train=PulseTrain.from_gamma(
                gamma=0.5, rate_bps=mbps(30), extent=ms(100),
                bottleneck_bps=mbps(20), n_pulses=3),
        )
        store = make_store(tmp_path)
        store.record_cell("cc" * 32, attack, result, source="executed")
        (gamma, kind), = store.query("SELECT gamma, kind FROM cells")[1]
        assert kind == "parking_lot"
        assert gamma == pytest.approx(0.5)
        assert platform.bottleneck_bps == mbps(20)

    def test_baseline_rows_leave_gamma_null(self, tmp_path, executed_cell):
        cell, result, _ = executed_cell  # no train
        store = make_store(tmp_path)
        store.record_cell("bb" * 32, cell, result, source="executed")
        assert store.query("SELECT gamma, extent FROM cells")[1] == [
            (None, None)]


class TestRunAndExperimentRows:
    def test_experiment_records_round_trip(self, tmp_path):
        # `repro obs report` renders these dicts: every finished
        # experiment comes back with its run's provenance, its runner
        # delta and its metrics, scalar or not.
        store = make_store(tmp_path)
        metrics = {"engine.events_dispatched": 1000.0,
                   "engine.wall_seconds": 0.5,
                   "note": "text payload", "flag": True}
        runner = {"cells": 3, "hit_ratio": 0.0}
        store.finish_experiment(elapsed_seconds=1.5, runner=runner,
                                metrics=metrics)
        assert store.experiment_records() == [{
            "name": "fig06", "timestamp": 101.0, "git_sha": "abc1234",
            "full": False, "elapsed_seconds": 1.5, "runner": runner,
            "metrics": metrics,
        }]

    def test_run_accounting_persisted(self, tmp_path):
        store = make_store(tmp_path)
        store.finish_experiment(elapsed_seconds=1.0)
        store.finish_run(elapsed_seconds=2.5, runner={"cells": 4})
        names, rows = store.query(
            "SELECT name, git_sha, elapsed_seconds, runner FROM runs")
        assert rows == [("all", "abc1234", 2.5, '{"cells": 4}')]


class TestProvenance:
    def test_git_sha_in_this_checkout(self):
        # The repo is a git checkout, so a short SHA should come back;
        # the function contract allows None only outside a checkout.
        sha = git_sha()
        assert sha is None or (isinstance(sha, str) and len(sha) >= 7)

    def test_git_sha_cached_per_process(self, monkeypatch):
        # One subprocess call per process: the cached value answers
        # repeat calls even if git stops working mid-run.
        import subprocess

        git_sha.cache_clear()
        try:
            first = git_sha()

            def boom(*args, **kwargs):
                raise OSError("git gone")

            monkeypatch.setattr(subprocess, "run", boom)
            assert git_sha() == first      # served from the cache
            git_sha.cache_clear()
            assert git_sha() is None       # a cold call really shells out
        finally:
            git_sha.cache_clear()


CELLS_PER_EXPERIMENT = 5


def _synthetic_cell():
    from repro.runner import Cell, CellResult, PlatformSpec

    cell = Cell(platform=PlatformSpec(kind="dumbbell", n_flows=2, seed=7),
                warmup=1.0, window=2.0)
    return cell, CellResult(goodput_bytes=1000.0)


def _write_experiment(store, writer, index):
    """One experiment row with its cells and metrics, as the CLI writes."""
    cell, result = _synthetic_cell()
    store.begin_experiment(f"w{writer}-e{index}")
    for j in range(CELLS_PER_EXPERIMENT):
        store.record_cell(f"w{writer}-e{index}-c{j}", cell, result,
                          source="executed", elapsed=0.001)
    store.finish_experiment(elapsed_seconds=0.01,
                            runner={"cells": CELLS_PER_EXPERIMENT},
                            metrics={"writer": writer, "index": index})


def _concurrent_writer(path, writer, experiments):
    store = ExperimentStore(path)
    store.begin_run(f"writer-{writer}")
    for index in range(experiments):
        _write_experiment(store, writer, index)
    store.finish_run(elapsed_seconds=1.0)
    store.close()


def _endless_writer(path, first_done):
    store = ExperimentStore(path)
    store.begin_run("doomed")
    index = 0
    while True:
        _write_experiment(store, 0, index)
        first_done.set()
        index += 1


#: writer processes start from a fresh import, like separate invocations.
SPAWN = multiprocessing.get_context("spawn")


class TestConcurrentWriters:
    WRITERS = 4
    EXPERIMENTS = 20

    def test_every_row_lands_attached_to_its_writer(self, tmp_path):
        # Concurrent invocations sharing one store file: sqlite's busy
        # timeout serializes their short commit transactions.
        path = tmp_path / "shared.sqlite"
        procs = [SPAWN.Process(target=_concurrent_writer,
                             args=(path, writer, self.EXPERIMENTS))
                 for writer in range(self.WRITERS)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0] * self.WRITERS

        experiments = self.WRITERS * self.EXPERIMENTS
        with open_readonly(path) as store:
            def count(table):
                return store.query(f"SELECT count(*) FROM {table}")[1][0][0]

            assert count("runs") == self.WRITERS
            assert count("experiments") == experiments
            assert count("cells") == experiments * CELLS_PER_EXPERIMENT
            assert count("metrics") == experiments * 2
            # Each cell hangs off its own writer's experiment, and each
            # experiment off its own writer's run.
            _, rows = store.query(
                "SELECT c.key, e.name, r.name FROM cells c"
                " JOIN experiments e ON c.experiment_id = e.experiment_id"
                " JOIN runs r ON e.run_id = r.run_id")
            for key, experiment, run in rows:
                writer, index, _ = key.split("-")
                assert experiment == f"{writer}-{index}"
                assert run == f"writer-{writer[1:]}"
            _, rows = store.query(
                "SELECT e.name, m.value FROM metrics m JOIN experiments e"
                " ON m.experiment_id = e.experiment_id"
                " WHERE m.name = 'writer'")
            assert all(name.startswith(f"w{value:.0f}-")
                       for name, value in rows)


class TestKillMidWrite:
    def test_store_survives_sigkill(self, tmp_path):
        path = tmp_path / "killed.sqlite"
        first_done = SPAWN.Event()
        proc = SPAWN.Process(target=_endless_writer, args=(path, first_done))
        proc.start()
        try:
            assert first_done.wait(timeout=60)
            proc.join(timeout=0.2)  # let it get part-way through more rows
        finally:
            proc.kill()
            proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL

        with ExperimentStore(path) as store:
            assert store.query("PRAGMA integrity_check")[1] == [("ok",)]
            _, finished = store.query(
                "SELECT e.experiment_id, count(c.cell_id) FROM experiments e"
                " LEFT JOIN cells c ON c.experiment_id = e.experiment_id"
                " WHERE e.elapsed_seconds IS NOT NULL"
                " GROUP BY e.experiment_id")
            assert finished
            assert all(n == CELLS_PER_EXPERIMENT for _, n in finished)
            _, in_flight = store.query(
                "SELECT name FROM experiments WHERE elapsed_seconds IS NULL")
            assert len(in_flight) <= 1

        # The report renders the torn tail: an unfinished experiment
        # shows "-" for its wall time.
        rows = {line.split()[0]: line.split()
                for line in render_report([path]).splitlines()[3:]
                if line.startswith("w0-")}
        assert len(rows) == len(finished) + len(in_flight)
        for (name,) in in_flight:
            assert rows[name][1] == "-"

        # A later invocation appends to the same file.
        with ExperimentStore(path) as store:
            store.begin_run("after")
            _write_experiment(store, 1, 0)
            store.finish_run(elapsed_seconds=1.0)
            assert store.query(
                "SELECT count(*) FROM cells c JOIN experiments e"
                " ON c.experiment_id = e.experiment_id"
                " WHERE e.name = 'w1-e0'")[1] == [(CELLS_PER_EXPERIMENT,)]
            assert store.query("PRAGMA integrity_check")[1] == [("ok",)]


class TestCannedQueries:
    def test_registry_names_resolve_to_methods(self, tmp_path):
        store = ExperimentStore(tmp_path / "s.sqlite")
        for name, (method, description) in CANNED_QUERIES.items():
            assert callable(getattr(store, method))
            assert description

    def test_gamma_star_peaks_at_best_mean_gain(self, tmp_path):
        store = make_store(tmp_path)
        for seed in (1, 2):  # baselines: gamma NULL
            insert_cell(store, key=f"base{seed}", seed=seed,
                        goodput_rate=1000.0)
        for seed in (1, 2):  # gain (1-0.6)*(1-0.4) = 0.24
            insert_cell(store, key=f"g40s{seed}", seed=seed, gamma=0.4,
                        extent=0.05, rate_bps=mbps(25), goodput_rate=600.0)
        for seed in (1, 2):  # gain (1-0.7)*(1-0.5) = 0.15
            insert_cell(store, key=f"g50s{seed}", seed=seed, gamma=0.5,
                        extent=0.05, rate_bps=mbps(25), goodput_rate=700.0)
        names, rows = store.gamma_star()
        assert len(rows) == 1
        row = dict(zip(names, rows[0]))
        assert row["experiment"] == "fig06"
        assert row["gamma_star"] == pytest.approx(0.4)
        assert row["gain"] == pytest.approx(0.24)
        assert row["gammas"] == 2
        assert row["cells"] == 4

    def test_gamma_star_keeps_curves_that_differ_only_in_platform(
            self, tmp_path):
        """RED and drop-tail sweeps with equal flows, seed and attack
        are two curves, each gained against its own baseline."""
        from repro.runner import Cell, CellResult, PlatformSpec

        store = make_store(tmp_path)
        window = 10.0
        # queue -> (baseline rate, {gamma: attacked rate}), bytes/s.
        curves = {
            "red": (1000.0, {0.3: 400.0, 0.5: 700.0, 0.7: 800.0}),
            "droptail": (2000.0, {0.3: 1800.0, 0.5: 1600.0, 0.7: 200.0}),
        }
        for queue, (baseline, attacked) in curves.items():
            platform = PlatformSpec(kind="dumbbell", n_flows=5, seed=500,
                                    queue=queue)
            bottleneck = platform.to_config().bottleneck_rate_bps
            cells = [(Cell(platform=platform, warmup=1.0, window=window),
                      baseline)]
            cells += [
                (Cell(platform=platform, warmup=1.0, window=window,
                      train=PulseTrain.from_gamma(
                          gamma=gamma, rate_bps=mbps(30), extent=ms(100),
                          bottleneck_bps=bottleneck, n_pulses=4)),
                 rate)
                for gamma, rate in attacked.items()
            ]
            for index, (cell, rate) in enumerate(cells):
                store.record_cell(f"{queue}{index}", cell,
                                  CellResult(goodput_bytes=rate * window),
                                  source="executed")
        names, rows = store.gamma_star()
        assert len(rows) == 2
        by_platform = {row[names.index("platform")]: dict(zip(names, row))
                       for row in rows}
        red = by_platform["dumbbell red"]
        droptail = by_platform["dumbbell droptail"]
        assert red["gamma_star"] == pytest.approx(0.3)
        assert red["gain"] == pytest.approx(0.6 * 0.7)
        assert droptail["gamma_star"] == pytest.approx(0.7)
        assert droptail["gain"] == pytest.approx(0.9 * 0.3)
        assert red["cells"] == droptail["cells"] == 3

    def test_gamma_star_ignores_fluid_cells(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="base", goodput_rate=1000.0)
        insert_cell(store, key="fluid", gamma=0.9, extent=0.05,
                    rate_bps=mbps(25), goodput_rate=100.0, backend="fluid")
        assert store.gamma_star()[1] == []

    def test_slowest_cells_orders_executed_by_elapsed(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="fast", elapsed=0.1)
        insert_cell(store, key="slow", elapsed=3.0)
        insert_cell(store, key="hit!", elapsed=9.0, source="cache")
        names, rows = store.slowest_cells(limit=5)
        assert [r[0] for r in rows] == ["slow", "fast"]

    def test_cache_hits_accounts_by_source(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="a", source="executed")
        insert_cell(store, key="b", source="cache")
        insert_cell(store, key="c", source="memo")
        names, rows = store.cache_hits()
        row = dict(zip(names, rows[0]))
        assert row["cells"] == 3
        assert row["executed"] == 1
        assert row["cache_hits"] == 1
        assert row["memo_hits"] == 1
        assert row["hit_ratio"] == pytest.approx(0.667)

    def test_drop_sync_flags_synchronized_loss_bins(self, tmp_path):
        store = make_store(tmp_path)
        cell_id = insert_cell(store, key="sync", n_flows=2)
        # Two loss bins; both legitimate flows lose in each -> the
        # paper's quasi-global synchronization signature (ratio 1.0).
        data = np.array([
            [0.05, 0.0, 0.0], [0.06, 1.0, 0.0],
            [1.05, 0.0, 0.0], [1.06, 1.0, 0.0],
            [1.07, 7.0, 1.0],  # attack drop: excluded
        ])
        store._db.execute(
            "INSERT INTO series (cell_id, name, columns, n_rows, evicted,"
            " rows) VALUES (?, ?, ?, ?, 0, ?)",
            (cell_id, "link.bottleneck.drops",
             json.dumps(["time", "flow_id", "is_attack"]), len(data),
             data.tobytes()))
        store._db.commit()
        names, rows = store.drop_sync(bin_width=0.1)
        row = dict(zip(names, rows[0]))
        assert row["cell"] == cell_id
        assert row["link_a"] == "bottleneck"
        assert row["drops"] == 4  # legitimate only
        assert row["loss_bins"] == 2
        assert row["sync_ratio"] == pytest.approx(1.0)

    def test_drop_sync_correlates_two_links(self, tmp_path):
        store = make_store(tmp_path)
        cell_id = insert_cell(store, key="twolinks", n_flows=2)
        drops = np.array([[0.05, 0.0, 0.0], [1.05, 1.0, 0.0]])
        for label in ("bottleneck", "bottleneck_reverse"):
            store._db.execute(
                "INSERT INTO series (cell_id, name, columns, n_rows,"
                " evicted, rows) VALUES (?, ?, ?, ?, 0, ?)",
                (cell_id, f"link.{label}.drops",
                 json.dumps(["time", "flow_id", "is_attack"]), len(drops),
                 drops.tobytes()))
        store._db.commit()
        names, rows = store.drop_sync(bin_width=0.1)
        pairs = [dict(zip(names, r)) for r in rows
                 if r[names.index("link_b")] is not None]
        assert len(pairs) == 1
        assert pairs[0]["correlation"] == pytest.approx(1.0)


class TestRawQuery:
    def test_query_returns_names_and_rows(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="abc")
        names, rows = store.query(
            "SELECT key, source FROM cells WHERE key = ?", ("abc",))
        assert names == ["key", "source"]
        assert rows == [("abc", "executed")]


class TestWorkerAttribution:
    def test_record_cell_persists_worker(self, tmp_path, executed_cell):
        cell, result, _ = executed_cell
        store = make_store(tmp_path)
        store.record_cell("aa" * 32, cell, result, source="executed",
                          elapsed=0.5, worker="hostA:4242")
        store.record_cell("bb" * 32, cell, result, source="cache")
        names, rows = store.query(
            "SELECT key, worker FROM cells ORDER BY key")
        assert rows == [("aa" * 32, "hostA:4242"), ("bb" * 32, None)]

    def test_slowest_cells_names_the_worker(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="slow", elapsed=3.0, worker="hostB:7")
        insert_cell(store, key="fast", elapsed=0.1)
        names, rows = store.slowest_cells(limit=5)
        assert "worker" in names
        by_key = {row[0]: dict(zip(names, row)) for row in rows}
        assert by_key["slow"]["worker"] == "hostB:7"
        assert by_key["fast"]["worker"] == "-"  # unattributed rows

    def test_workers_rollup_attributes_stragglers(self, tmp_path):
        store = make_store(tmp_path)
        insert_cell(store, key="a1", elapsed=1.0, worker="hostA:1")
        insert_cell(store, key="a2", elapsed=3.0, worker="hostA:1")
        insert_cell(store, key="b1", elapsed=0.5, worker="hostB:2")
        insert_cell(store, key="hit", source="cache", worker="hostB:2")
        names, rows = store.workers()
        table = [dict(zip(names, row)) for row in rows]
        # Busiest worker first; cache hits are not execution time.
        assert [t["worker"] for t in table] == ["hostA:1", "hostB:2"]
        assert table[0]["cells"] == 2
        assert table[0]["busy_s"] == pytest.approx(4.0)
        assert table[0]["mean_s"] == pytest.approx(2.0)
        assert table[0]["max_s"] == pytest.approx(3.0)
        assert table[1]["cells"] == 1

    def test_workers_is_a_canned_query(self):
        assert "workers" in CANNED_QUERIES

    def test_pre_worker_store_is_migrated(self, tmp_path):
        """Opening a store created before the worker column adds it."""
        path = tmp_path / "old.sqlite"
        store = make_store(tmp_path, name="old.sqlite")
        store.close()
        import sqlite3

        db = sqlite3.connect(str(path))
        db.execute("ALTER TABLE cells DROP COLUMN worker")
        db.commit()
        db.close()
        with ExperimentStore(path) as reopened:
            names, _ = reopened.query("SELECT * FROM cells LIMIT 0")
            assert "worker" in names
