"""Shared benchmark plumbing.

Every bench regenerates one of the paper's figures (or an extension
experiment), times the run with pytest-benchmark, prints the rows/series
the paper plots, and archives them under ``benchmarks/results/`` so the
numbers survive the run.

Scale: benches default to the scaled-down sweeps (shorter measurement
windows, fewer γ samples, a subset of flow-count panels) so the whole
suite finishes in minutes.  Set ``REPRO_FULL=1`` for paper-scale runs.
"""

import json
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def best_of_reps(n, fn, *args, wall_of=None, **kwargs):
    """Fastest of *n* runs of ``fn(*args, **kwargs)``.

    Single runs jitter ~5-10% on shared boxes, so the trajectory
    archives (and the gates that read them) compare minima, which
    track machine capability.  Returns ``(result, best_wall,
    rep_walls)`` where ``rep_walls`` holds every rep's wall time so
    archived results can show the spread, and ``result`` is the return
    value of the fastest rep.

    *wall_of* extracts the wall time from ``fn``'s return value, for
    functions that time themselves (excluding their own setup);
    without it each call is timed externally.
    """
    results, walls = [], []
    for _ in range(n):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        results.append(result)
        walls.append(elapsed if wall_of is None else wall_of(result))
    index = min(range(n), key=walls.__getitem__)
    return results[index], walls[index], tuple(walls)


def format_reps(rep_walls) -> str:
    """Render per-rep wall times for an archived result line."""
    return "reps: " + " / ".join(f"{wall:.2f}s" for wall in rep_walls)


@pytest.fixture(autouse=True)
def fresh_runner():
    """A fresh default ExperimentRunner per bench.

    Installing a new runner isolates each bench's in-process memo (so
    one bench cannot serve another's cells and skew its timing) while
    still honouring ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` from the
    environment (parsed as :func:`~repro.runner.get_default_runner`
    does).  Yields the runner so benches can report cache stats.
    """
    from repro.runner import ExperimentRunner, set_default_runner
    from repro.util.env import env_int, env_str

    runner = ExperimentRunner(
        jobs=env_int("REPRO_JOBS", 1, minimum=1),
        cache_dir=env_str("REPRO_CACHE_DIR") or None,
    )
    previous = set_default_runner(runner)
    yield runner
    set_default_runner(previous)


@pytest.fixture
def record_result():
    """Print a rendered experiment and archive it under results/.

    Every call writes the human rendering to ``results/<name>.txt``
    *and* a machine-readable ``results/<name>.json`` sibling, so the
    perf trajectory is diffable across PRs without parsing the text.
    The JSON always carries the bench name and rendering; benches with
    structured numbers (events/sec, wall, speedup, gate) merge them in
    via *data*.
    """

    def _record(name: str, text: str, data=None) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        record = {"bench": name, "rendered": text}
        if data is not None:
            record.update(data)
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
        print(f"\n{text}\n"
              f"[archived to benchmarks/results/{name}.txt + {name}.json]")

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Time *fn* exactly once (simulation benches are minutes-scale)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
