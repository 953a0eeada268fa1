"""The ``repro obs report`` renderer."""

import pytest

from repro.obs.report import SORT_CHOICES, render_report, summarize_records


def experiment_record(name="fig06", **overrides):
    record = {
        "name": name,
        "elapsed_seconds": 12.5,
        "runner": {"cells": 32, "hit_ratio": 0.25},
        "metrics": {
            "engine.events_dispatched": 100_000.0,
            "engine.wall_seconds": 0.5,
        },
        "goodput_bytes": 20_000_000.0,
    }
    record.update(overrides)
    return record


class TestSummarize:
    def test_renders_full_row(self):
        text = summarize_records([experiment_record()])
        row = text.splitlines()[2]
        assert "fig06" in row
        assert "12.5" in row      # wall seconds
        assert "32" in row        # cells
        assert "25" in row        # hit %
        assert "200" in row       # 100k events / 0.5s = 200 kev/s
        assert row.endswith("20.00")  # goodput MB, the last column

    def test_sparse_record_renders_dashes(self):
        text = summarize_records([{"name": "fig04"}])
        row = text.splitlines()[2]
        assert "fig04" in row
        assert "-" in row

    def test_totals_footer(self):
        text = summarize_records(
            [experiment_record("a"), experiment_record("b")]
        )
        assert "2 records" in text
        assert "64 cells" in text


class TestSortAndLast:
    def records(self):
        return [
            experiment_record("fig07", elapsed_seconds=5.0, timestamp=1.0),
            experiment_record("fig06", elapsed_seconds=20.0, timestamp=2.0),
            experiment_record("fig09", elapsed_seconds=1.0, timestamp=3.0),
        ]

    @staticmethod
    def row_names(text):
        return [line.split()[0] for line in text.splitlines()[2:-1]
                if line and not line.startswith("(")]

    def test_time_sort_keeps_append_order(self):
        assert self.row_names(summarize_records(self.records())) == [
            "fig07", "fig06", "fig09"]

    def test_name_sort(self):
        text = summarize_records(self.records(), sort="name")
        assert self.row_names(text) == ["fig06", "fig07", "fig09"]

    def test_elapsed_sort_puts_most_expensive_first(self):
        text = summarize_records(self.records(), sort="elapsed")
        assert self.row_names(text) == ["fig06", "fig07", "fig09"]

    def test_elapsed_sort_puts_sparse_rows_last(self):
        records = self.records() + [{"name": "zz"}]
        text = summarize_records(records, sort="elapsed")
        assert self.row_names(text)[-1] == "zz"

    def test_last_keeps_most_recent_records(self):
        text = summarize_records(self.records(), last=2)
        assert self.row_names(text) == ["fig06", "fig09"]

    def test_last_applies_before_sorting(self):
        text = summarize_records(self.records(), sort="name", last=2)
        assert self.row_names(text) == ["fig06", "fig09"]

    def test_last_zero_keeps_nothing(self):
        assert "(no experiment records)" in summarize_records(
            self.records(), last=0)

    def test_invalid_sort_and_last_rejected(self):
        with pytest.raises(ValueError, match="sort"):
            summarize_records([], sort="goodput")
        with pytest.raises(ValueError, match="last"):
            summarize_records([], last=-1)
        assert set(SORT_CHOICES) == {"time", "name", "elapsed"}


def store_with(tmp_path, names, store_name="runlog.sqlite"):
    """A small store holding one experiment record per name."""
    from repro.obs.store import ExperimentStore

    store = ExperimentStore(tmp_path / store_name)
    store.begin_run("all", git_sha="abc1234", timestamp=10.0)
    for offset, name in enumerate(names):
        store.begin_experiment(name, timestamp=20.0 + offset)
        store.finish_experiment(
            elapsed_seconds=1.0,
            runner={"cells": 4, "hit_ratio": 0.5},
            metrics={"engine.events_dispatched": 1000.0,
                     "engine.wall_seconds": 0.5})
    store.close()
    return store.path


class TestRenderReport:
    def test_merges_multiple_stores(self, tmp_path):
        first = store_with(tmp_path, ["fig06"], store_name="one.sqlite")
        second = store_with(tmp_path, ["fig07"], store_name="two.sqlite")
        text = render_report([first, second])
        assert "fig06" in text
        assert "fig07" in text
        assert str(first) in text.splitlines()[0]
        assert "2 records" in text

    def test_renders_store_source(self, tmp_path):
        path = store_with(tmp_path, ["fig06", "fig07"])
        text = render_report([path])
        assert text.splitlines()[0] == f"experiment-store report: {path}"
        assert "fig06" in text
        assert "2 records" in text
        assert "8 cells" in text

    def test_sort_and_last_forwarded(self, tmp_path):
        path = store_with(tmp_path, ["zz", "aa"])
        text = render_report([path], sort="name", last=1)
        assert "1 records" in text
        assert "aa" in text
        assert "\nzz" not in text

    def test_missing_store_is_not_created(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such"):
            render_report([tmp_path / "absent.sqlite"])
        assert not (tmp_path / "absent.sqlite").exists()

    def test_goodput_sums_the_experiments_cells(self, tmp_path):
        # Goodput comes from the cell rows (one per distinct key), not
        # from gauges that hold only the network that ran last.
        from repro.obs.store import ExperimentStore
        from repro.runner import Cell, CellResult, PlatformSpec

        cell = Cell(platform=PlatformSpec(kind="dumbbell", n_flows=2,
                                          seed=7),
                    warmup=1.0, window=2.0)
        store = ExperimentStore(tmp_path / "runlog.sqlite")
        store.begin_run("fig06", timestamp=10.0)
        store.begin_experiment("fig06", timestamp=20.0)
        for key, goodput, source in (("a", 1_500_000.0, "executed"),
                                     ("b", 2_250_000.0, "executed"),
                                     ("a", 1_500_000.0, "memo")):
            store.record_cell(key, cell, CellResult(goodput_bytes=goodput),
                              source=source)
        store.finish_experiment(
            elapsed_seconds=1.0, runner={"cells": 3, "hit_ratio": 1 / 3},
            metrics={"tcp.goodput_bytes": 9_000_000.0})
        store.close()
        [row] = [line for line in render_report([store.path]).splitlines()
                 if line.startswith("fig06")]
        assert row.split()[-1] == "3.75"
