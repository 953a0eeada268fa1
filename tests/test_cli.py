"""The command-line experiment runner."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_listed(self):
        expected = {
            "fig01", "fig02", "fig03a", "fig03b", "fig04", "fig06", "fig07",
            "fig08", "fig09", "fig10", "fig12", "ablation-queues",
            "ablation-model", "ablation-victim", "flow-damage", "detection",
            "defense-rto", "defense-choke", "replication", "distributed", "mice-elephants",
            "multi-bottleneck",
        }
        assert set(EXPERIMENTS) == expected

    def test_every_experiment_names_an_importable_function(self):
        import repro.experiments
        from repro.cli import _ENTRY_POINTS

        assert set(_ENTRY_POINTS) == set(EXPERIMENTS)
        for function, _args in _ENTRY_POINTS.values():
            assert callable(getattr(repro.experiments, function))

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_full_flag(self):
        args = build_parser().parse_args(["fig04", "--full"])
        assert args.full

    def test_output_dir(self, tmp_path):
        args = build_parser().parse_args(["fig04", "-o", str(tmp_path)])
        assert args.output_dir == tmp_path

    def test_runner_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["fig06", "-j", "4", "--no-cache", "--cache-dir", str(tmp_path)]
        )
        assert args.jobs == 4
        assert args.no_cache
        assert args.cache_dir == tmp_path

    def test_runner_flag_defaults(self):
        args = build_parser().parse_args(["fig06"])
        assert args.jobs == 1
        assert not args.no_cache
        assert args.cache_dir is None

    def test_store_flag_off_by_default(self):
        args = build_parser().parse_args(["fig04"])
        assert args.store is None
        assert not args.verbose
        assert not args.quiet

    def test_verbose_and_quiet_are_exclusive(self):
        assert build_parser().parse_args(["fig04", "-v"]).verbose
        assert build_parser().parse_args(["fig04", "-q"]).quiet
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig04", "-v", "-q"])


class TestMain:
    def test_list_prints_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_runs_analytic_experiment(self, capsys, tmp_path):
        assert main(["fig04", "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "risk" in out
        assert (tmp_path / "fig04.txt").exists()

    def test_full_sets_env(self, monkeypatch, capsys):
        # Set (not deleted) so teardown removes the "1" main() writes.
        monkeypatch.setenv("REPRO_FULL", "0")
        import os
        main(["fig04", "--full"])
        assert os.environ.get("REPRO_FULL") == "1"

    def test_installs_configured_default_runner(self, capsys, tmp_path):
        from repro.runner import get_default_runner

        assert main(["fig04", "-j", "2", "--cache-dir", str(tmp_path)]) == 0
        runner = get_default_runner()
        assert runner.jobs == 2
        assert runner.cache.directory == tmp_path
        assert "[total: cells:" in capsys.readouterr().out

    def test_no_cache_disables_disk_cache(self, capsys):
        from repro.runner import get_default_runner

        assert main(["fig04", "--no-cache"]) == 0
        assert get_default_runner().cache is None

    def test_quiet_suppresses_timing_but_keeps_rendering(self, capsys):
        assert main(["fig04", "-q"]) == 0
        out = capsys.readouterr().out
        assert "risk" in out
        assert "[total:" not in out
        assert "[fig04:" not in out

    def test_verbose_shows_per_cell_lines(self, capsys):
        assert main(["fig01", "-v", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "executed in" in out  # per-cell debug line


class TestStoreFlag:
    def test_bare_store_flag_uses_default_path(self):
        from repro.cli import DEFAULT_STORE
        from repro.obs.store import DEFAULT_STORE_NAME

        assert DEFAULT_STORE == pathlib.Path(DEFAULT_STORE_NAME)
        args = build_parser().parse_args(["fig04", "--store"])
        assert args.store == DEFAULT_STORE
        assert not args.record

    def test_record_requires_store(self, capsys):
        assert main(["fig04", "--record"]) == 2
        assert "--record requires --store" in capsys.readouterr().err

    def test_writes_experiment_and_run_rows(self, capsys, tmp_path):
        import json

        from repro.obs.store import is_store, open_readonly

        db = tmp_path / "runlog.sqlite"
        assert main(["fig01", "--no-cache", "--store", str(db)]) == 0
        assert f"[experiment store -> {db}]" in capsys.readouterr().out
        assert is_store(db)
        with open_readonly(db) as store:
            names, runs = store.query(
                "SELECT name, argv, elapsed_seconds, runner FROM runs")
            [(name, argv, elapsed, runner)] = runs
            assert name == "fig01"
            assert json.loads(argv) == ["fig01", "--no-cache", "--store",
                                        str(db)]
            assert elapsed > 0
            # The invocation-wide RunnerStats snapshot lands on the run.
            assert json.loads(runner)["worker_utilization"] is None
            [experiment] = store.experiment_records()
        assert experiment["name"] == "fig01"
        assert experiment["elapsed_seconds"] > 0
        assert experiment["metrics"]["engine.events_dispatched"] > 0
        assert any(key.startswith("link.bottleneck.")
                   for key in experiment["metrics"])
        assert any(key.startswith("tcp.") for key in experiment["metrics"])
        # fig01 simulates directly rather than through runner cells, but
        # the accounting block is still present.
        assert experiment["runner"]["hit_ratio"] == 0.0

    def test_appends_across_invocations(self, capsys, tmp_path):
        from repro.obs.store import open_readonly

        db = tmp_path / "runlog.sqlite"
        assert main(["fig04", "--store", str(db)]) == 0
        assert main(["fig04", "--store", str(db)]) == 0
        with open_readonly(db) as store:
            assert store.query("SELECT count(*) FROM runs")[1] == [(2,)]
            assert len(store.experiment_records()) == 2

    def test_registry_disabled_after_run(self, capsys, tmp_path):
        from repro.obs import metrics

        main(["fig04", "--store", str(tmp_path / "s.sqlite")])
        assert metrics.active() is None

    def test_recorded_cells_land_in_store(self, capsys, tmp_path):
        # fig06 at smoke scale exercises the full path: runner cells,
        # per-cell rows keyed by the cache key, recorded series.
        from repro.experiments.fig06_09_gain import run_gain_figure
        from repro.obs.store import ExperimentStore
        from repro.runner import ExperimentRunner, set_default_runner
        from repro.util.units import ms

        db = tmp_path / "runlog.sqlite"
        store = ExperimentStore(db)
        store.begin_run("fig06")
        store.begin_experiment("fig06")
        previous = set_default_runner(None)
        try:
            runner = ExperimentRunner(jobs=1)
            runner.attach_store(store, record_series=True)
            set_default_runner(runner)
            figure = run_gain_figure(6, flow_counts=[2],
                                     extents=[ms(100)], gammas=(0.4, 0.7))
        finally:
            set_default_runner(previous)
        store.finish_experiment()

        names, cells = store.query(
            "SELECT cell_id, gamma, source FROM cells ORDER BY cell_id")
        assert cells  # one row per resolved cell
        assert {c[2] for c in cells} <= {"executed", "cache", "memo"}
        n_series = store.query("SELECT count(*) FROM series")[1][0][0]
        assert n_series > 0

        # gamma-star answers the figure's own peak-gamma question.
        points = figure.all_curves()[0].points
        best = max(points, key=lambda p: p.measured_gain)
        names, rows = store.gamma_star()
        row = dict(zip(names, rows[0]))
        assert row["gamma_star"] == pytest.approx(best.gamma, abs=0.05)
        store.close()

        assert main(["obs", "query", "gamma-star", "--store",
                     str(db)]) == 0
        out = capsys.readouterr().out
        assert "gamma_star" in out
        assert "fig06" in out


class TestObsReport:
    def test_report_renders_store(self, capsys, tmp_path):
        db = tmp_path / "runlog.sqlite"
        assert main(["fig03b", "--no-cache", "--store", str(db)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(db)]) == 0
        out = capsys.readouterr().out
        [row] = [line for line in out.splitlines()
                 if line.startswith("fig03b")]
        # name, wall s, cells, hit %, events, kev/s, goodput MB
        fields = row.split()
        assert len(fields) == 7
        assert fields[2] == "1"
        assert all(value != "-" for value in
                   (fields[1], fields[4], fields[5], fields[6]))
        assert "kev/s" in out
        assert "1 records" in out

    def test_report_rejects_non_store(self, capsys, tmp_path):
        log = tmp_path / "runlog.jsonl"
        log.write_text('{"record": "experiment", "name": "fig06"}\n')
        absent = tmp_path / "absent.sqlite"
        for path in (log, absent):
            assert main(["obs", "report", str(path)]) == 1
            assert (f"not an experiment store: {path}"
                    in capsys.readouterr().err)
        assert not absent.exists()


class TestObsQuery:
    @staticmethod
    def small_store(tmp_path):
        from repro.obs.store import ExperimentStore

        db = tmp_path / "store.sqlite"
        store = ExperimentStore(db)
        store.begin_run("fig06")
        store.begin_experiment("fig06")
        store._db.execute(
            "INSERT INTO cells (experiment_id, key, source, elapsed, spec,"
            " backend, kind, n_flows, seed, goodput_bytes, goodput_rate)"
            " VALUES (?, 'abcd1234', 'executed', 1.5, '{}', 'packet',"
            " 'dumbbell', 2, 7, 100.0, 50.0)", (store._experiment_id,))
        store._db.commit()
        store.close()
        return db

    def test_raw_sql(self, capsys, tmp_path):
        db = self.small_store(tmp_path)
        assert main(["obs", "query",
                     "SELECT key, n_flows FROM cells",
                     "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "abcd1234" in out
        assert "(1 row)" in out

    def test_canned_query(self, capsys, tmp_path):
        db = self.small_store(tmp_path)
        assert main(["obs", "query", "cache-hits", "--store",
                     str(db)]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "executed" in out

    def test_missing_store_fails(self, capsys, tmp_path):
        assert main(["obs", "query", "cache-hits", "--store",
                     str(tmp_path / "absent.sqlite")]) == 1
        assert "no such experiment store" in capsys.readouterr().err

    def test_bad_sql_fails_cleanly(self, capsys, tmp_path):
        db = self.small_store(tmp_path)
        assert main(["obs", "query", "SELECT nope FROM nowhere",
                     "--store", str(db)]) == 1
        assert "query failed" in capsys.readouterr().err

    def test_limit_truncates_rows(self, capsys, tmp_path):
        db = self.small_store(tmp_path)
        assert main(["obs", "query", "SELECT * FROM cells", "--limit",
                     "0", "--store", str(db)]) == 0
        assert "(0 rows)" in capsys.readouterr().out


class TestObsTrace:
    @staticmethod
    def recorded_store(tmp_path):
        import numpy as np

        from repro.obs.recorder import Series
        from repro.obs.store import ExperimentStore

        db = tmp_path / "store.sqlite"
        store = ExperimentStore(db)
        store.begin_run("fig06")
        store.begin_experiment("fig06")
        queue = Series("link.bottleneck.queue",
                       ("time", "queue_bytes", "queue_packets"),
                       np.array([[0.1, 1500.0, 1.0], [0.2, 3000.0, 2.0],
                                 [0.3, 0.1 + 0.2, 0.0]]))
        cwnd = Series("tcp.cwnd", ("time", "flow_id", "cwnd"),
                      np.array([[0.1, 0.0, 2.0]]))
        store._db.execute(
            "INSERT INTO cells (experiment_id, key, source, spec, backend,"
            " kind, n_flows, seed, goodput_bytes, goodput_rate)"
            " VALUES (?, 'abcd1234', 'executed', '{}', 'packet',"
            " 'dumbbell', 2, 7, 100.0, 50.0)", (store._experiment_id,))
        cell_id = store._db.execute(
            "SELECT max(cell_id) FROM cells").fetchone()[0]
        import json as json_module
        for series in (queue, cwnd):
            store._db.execute(
                "INSERT INTO series (cell_id, name, columns, n_rows,"
                " evicted, rows) VALUES (?, ?, ?, ?, 0, ?)",
                (cell_id, series.name,
                 json_module.dumps(list(series.columns)), series.n_rows,
                 series.data.tobytes()))
        store._db.commit()
        store.close()
        return db, cell_id, queue

    def test_lists_series_without_export(self, capsys, tmp_path):
        db, cell_id, _ = self.recorded_store(tmp_path)
        assert main(["obs", "trace", str(cell_id), "--store",
                     str(db)]) == 0
        out = capsys.readouterr().out
        assert "link.bottleneck.queue" in out
        assert "tcp.cwnd" in out

    def test_resolves_cell_by_key_prefix(self, capsys, tmp_path):
        db, _, _ = self.recorded_store(tmp_path)
        assert main(["obs", "trace", "abcd", "--store", str(db)]) == 0
        assert "tcp.cwnd" in capsys.readouterr().out

    def test_csv_export_round_trips_exactly(self, capsys, tmp_path):
        import numpy as np

        db, cell_id, queue = self.recorded_store(tmp_path)
        out_path = tmp_path / "queue.csv"
        assert main(["obs", "trace", str(cell_id),
                     "--series", "link.bottleneck.queue",
                     "--export", "csv", "-o", str(out_path),
                     "--store", str(db)]) == 0
        header = out_path.read_text().splitlines()[0]
        assert header == "time,queue_bytes,queue_packets"
        parsed = np.loadtxt(out_path, delimiter=",", skiprows=1)
        # %.17g preserves every float64 bit, 0.1+0.2 included.
        assert np.array_equal(parsed, queue.data)

    def test_npz_export_carries_all_series(self, capsys, tmp_path):
        import numpy as np

        db, cell_id, queue = self.recorded_store(tmp_path)
        out_path = tmp_path / "trace.npz"
        assert main(["obs", "trace", str(cell_id), "--export", "npz",
                     "-o", str(out_path), "--store", str(db)]) == 0
        archive = np.load(out_path)
        assert np.array_equal(archive["link.bottleneck.queue"],
                              queue.data)
        assert list(archive["tcp.cwnd.columns"]) == [
            "time", "flow_id", "cwnd"]

    def test_csv_export_of_multiple_series_refused(self, capsys,
                                                   tmp_path):
        db, cell_id, _ = self.recorded_store(tmp_path)
        assert main(["obs", "trace", str(cell_id), "--export", "csv",
                     "--store", str(db)]) == 1
        assert "exactly one series" in capsys.readouterr().err

    def test_unknown_cell_fails(self, capsys, tmp_path):
        db, _, _ = self.recorded_store(tmp_path)
        assert main(["obs", "trace", "9999", "--store", str(db)]) == 1
        assert "no such cell_id" in capsys.readouterr().err


class TestFastAndJobsFlags:
    def test_fast_flag_parses_off_by_default(self):
        assert not build_parser().parse_args(["fig04"]).fast
        assert build_parser().parse_args(["fig04", "--fast"]).fast

    def test_fast_sets_env(self, monkeypatch, capsys):
        import os

        # Set (not deleted) so teardown removes the "1" main() writes;
        # a leaked REPRO_FAST would put every later test in fast mode.
        monkeypatch.setenv("REPRO_FAST", "0")
        # fig01 is a cwnd trace -- unaffected by the planner, so this
        # stays cheap while still exercising the env hand-off.
        assert main(["fig01", "--fast", "--no-cache"]) == 0
        assert os.environ.get("REPRO_FAST") == "1"

    def test_non_positive_jobs_rejected_by_name(self):
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="--jobs"):
            main(["fig04", "-j", "0"])
        with pytest.raises(ValidationError, match="--jobs"):
            main(["fig04", "--jobs", "-3"])

    def test_non_integer_jobs_rejected_by_argparse(self):
        # argparse's type=int still screens non-numeric values.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig04", "-j", "two"])


class TestRunnerJobsValidation:
    def test_runner_rejects_non_positive_jobs(self):
        from repro.runner import ExperimentRunner
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="jobs"):
            ExperimentRunner(jobs=0)
        with pytest.raises(ValidationError, match="got -1"):
            ExperimentRunner(jobs=-1)

    def test_runner_rejects_non_integer_jobs(self):
        from repro.runner import ExperimentRunner
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError, match="must be an integer"):
            ExperimentRunner(jobs=2.5)
        with pytest.raises(ValidationError, match="must be an integer"):
            ExperimentRunner(jobs=True)

    def test_check_jobs_names_its_source(self):
        from repro.runner import check_jobs
        from repro.util.errors import ValidationError

        assert check_jobs(4) == 4
        with pytest.raises(ValidationError, match="REPRO_JOBS"):
            check_jobs(0, source="REPRO_JOBS")


class TestDryRunFlag:
    def test_plans_without_executing(self, capsys, tmp_path):
        from repro.runner import get_default_runner

        assert main(["fig06", "--dry-run", "--no-cache",
                     "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dry run:" in out
        assert "to execute" in out
        assert "warm-up prefixes to simulate" in out
        # Planning leaves no trace: nothing executed, nothing written.
        assert get_default_runner().stats.executed == 0
        assert not (tmp_path / "fig06.txt").exists()

    @pytest.mark.parametrize("name", ["fig03a", "fig03b", "detection",
                                      "flow-damage"])
    def test_runner_drivers_plan_without_simulating(self, capsys, name):
        from repro.sim.engine import total_events_dispatched

        before = total_events_dispatched()
        assert main([name, "--dry-run", "--no-cache"]) == 0
        assert total_events_dispatched() == before
        assert "to execute" in capsys.readouterr().out

    def test_rejects_observability_sinks(self, capsys, tmp_path):
        for extra in (["--store", str(tmp_path / "s.sqlite")],
                      ["--store", str(tmp_path / "s.sqlite"), "--record"]):
            assert main(["fig01", "--dry-run", *extra]) == 2
            assert "cannot be combined" in capsys.readouterr().err


    def test_rejects_fast_mode(self, capsys, monkeypatch):
        """The planner picks cells from measured gains; a dry run only
        has placeholders, so its plan would not be the real run's."""
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert main(["fig06", "--dry-run", "--fast", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "--fast" in err and "REPRO_FAST" in err
        assert "REPRO_FAST" not in os.environ  # rejected before it is set
        monkeypatch.setenv("REPRO_FAST", "1")
        assert main(["fig06", "--dry-run", "--no-cache"]) == 2
        assert "--dry-run cannot plan fast mode" in capsys.readouterr().err


class TestStartupImports:
    """A fresh process that only replays figures never imports scipy."""

    _REPORT = ("import json, sys; print(json.dumps(sorted(m for m in "
               "sys.modules if m == 'scipy' or m.startswith('scipy.'))))")

    def _scipy_modules(self, code):
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code + "\n" + self._REPORT],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        return json.loads(result.stdout.splitlines()[-1])

    def test_benchmark_setup_imports_skip_scipy(self):
        assert self._scipy_modules(
            "import repro.cli, repro.experiments\n"
            "from repro.runner import ExperimentRunner, code_version\n"
            "code_version('packet')") == []

    def test_fast_mode_intervals_skip_scipy(self):
        # The planner's (FAST_POLICY: at most 3 seeds) and replication's
        # (3 seeds) intervals, and the n = 10 case, read the t table.
        assert self._scipy_modules(
            "from repro.analysis.stats import ci_stable, mean_ci_halfwidth\n"
            "from repro.runner.planner import FAST_POLICY as p\n"
            "for n in (2, 3, 10):\n"
            "    mean_ci_halfwidth([float(i) for i in range(n)])\n"
            "ci_stable([0.5, 0.6, 0.55], rel_tol=p.ci_rel_tol,\n"
            "          confidence=p.confidence, scale_floor=p.gain_floor)"
        ) == []

    def test_help_skips_scipy(self):
        assert self._scipy_modules(
            "import repro.cli\n"
            "try:\n"
            "    repro.cli.main(['--help'])\n"
            "except SystemExit:\n"
            "    pass") == []
