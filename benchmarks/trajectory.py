"""Append a pdosbench run's numbers to the performance trajectory.

The trajectory is two JSON lists at the repository root, one entry per
measured commit each, oldest first:

* ``BENCH_e2e.json`` -- from untraced records (``--trace 0``): per
  workload the five end-to-end metrics that ``BENCHMARK.json``
  declares (``null`` where a number is unknown);
* ``BENCH_layers.json`` -- from traced records (``--trace 1``): per
  workload every per-layer ``*.share`` metric, the percentage of
  traced wall time spent in that layer.

Each entry holds the git SHA, the date, a host note, and per workload
how many runs, which seeds, and whether every output was correct.
``src_changed`` is true when ``src/`` differed from that SHA while it
was measured: the entry then describes the commit that adds it.

Usage, from the repository root, after one or more runs of
``pdosbench/run.py``::

    python benchmarks/trajectory.py                  # .pdosbench/*.json
    python benchmarks/trajectory.py --note "..." RECORD.json ...

Each record is a ``.pdosbench/<workload>[.trace].json`` file.  Several
records of one workload (one per seed, say) are folded into one row:
each metric is the median over the records' own medians.  Untraced
and traced records go to their own file; a run with both appends one
entry to each.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: ``trace`` flag -> (trajectory file, metrics each row carries).
TRAJECTORIES = {
    0: (ROOT / "BENCH_e2e.json",
        [metric["name"] for metric in _DECLARED["end_to_end"]]),
    1: (ROOT / "BENCH_layers.json",
        [metric["name"] for metric in _DECLARED["per_layer"]
         if metric["name"].endswith(".share")]),
}


def workload_rows(records: list, metrics: list) -> dict:
    """``{workload: row}`` from pdosbench records, medians across runs."""
    runs: dict = {}
    for record in records:
        runs.setdefault(record["workload"], []).append(record)
    rows = {}
    for workload, group in sorted(runs.items()):
        row = {"runs": len(group),
               "seeds": sorted(record["seed"] for record in group),
               "correct": all(record["check"]["failed"] == 0
                              for record in group)}
        for name in metrics:
            row[name] = statistics.median(
                record["metrics"][name] for record in group)
        rows[workload] = row
    return rows


def host_note() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"{os.cpu_count()} CPUs ({cpu}), {platform.system()}, "
            f"Python {platform.python_version()}")


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="*", type=Path,
                        help="pdosbench records (default: .pdosbench/*.json)")
    parser.add_argument("--sha", help="the commit measured, when the "
                        "records came from another checkout of it "
                        "(default: git HEAD of this checkout)")
    parser.add_argument("--note", default="",
                        help="what the entry measures, e.g. parent or change")
    args = parser.parse_args(argv)
    paths = args.records or sorted((ROOT / ".pdosbench").glob("*.json"))
    if not paths:
        print("no pdosbench records found; run pdosbench/run.py first",
              file=sys.stderr)
        return 1
    if args.sha:
        sha, src_changed = args.sha, False
    else:
        sha = git("rev-parse", "HEAD").stdout.strip()
        # Measured before committing: the entry describes the commit
        # that adds it, on top of HEAD.
        src_changed = bool(git("status", "--porcelain", "--", "src").stdout)
    records = [json.loads(path.read_text()) for path in paths]
    for trace, (path, metrics) in TRAJECTORIES.items():
        measured = [record for record in records if record["trace"] == trace]
        if not measured:
            continue
        entry = {
            "sha": sha,
            "src_changed": src_changed,
            "date": datetime.date.today().isoformat(),
            "host": host_note(),
            "note": args.note,
            "workloads": workload_rows(measured, metrics),
        }
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"{path.name}:\n{json.dumps(entry, indent=1)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
