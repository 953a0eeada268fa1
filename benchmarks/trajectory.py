"""Append a pdosbench run's end-to-end medians to ``BENCH_e2e.json``.

The performance trajectory is one JSON list at the repository root,
one entry per measured commit, oldest first.  Each entry holds the git
SHA, the date, a host note, and per workload the five end-to-end
metrics that ``BENCHMARK.json`` declares (``null`` where a number is
unknown), plus how many runs, which seeds, and whether every output
was correct.  ``src_changed`` is true when ``src/`` differed from that
SHA while it was measured: the entry then describes the commit that
adds it.

Usage, from the repository root, after one or more runs of
``pdosbench/run.py --trace 0``::

    python benchmarks/trajectory.py                  # .pdosbench/*.json
    python benchmarks/trajectory.py --note "..." RECORD.json ...

Each record is a ``.pdosbench/<workload>.json`` file.  Several records
of one workload (one per seed, say) are folded into one row: each
metric is the median over the records' own medians.  Traced records
(``--trace 1``) carry per-layer shares, not these metrics, and are
refused.
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
TRAJECTORY = ROOT / "BENCH_e2e.json"
METRICS = [metric["name"] for metric in
           json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def workload_rows(records: list) -> dict:
    """``{workload: row}`` from pdosbench records, medians across runs."""
    runs: dict = {}
    for record in records:
        if record["trace"]:
            raise SystemExit(
                f"{record['workload']} seed {record['seed']} is a traced "
                "record; end-to-end metrics come from --trace 0 runs")
        runs.setdefault(record["workload"], []).append(record)
    rows = {}
    for workload, group in sorted(runs.items()):
        row = {"runs": len(group),
               "seeds": sorted(record["seed"] for record in group),
               "correct": all(record["check"]["failed"] == 0
                              for record in group)}
        for name in METRICS:
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
    paths = args.records or sorted(
        path for path in (ROOT / ".pdosbench").glob("*.json")
        if not path.name.endswith(".trace.json"))
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
    entry = {
        "sha": sha,
        "src_changed": src_changed,
        "date": datetime.date.today().isoformat(),
        "host": host_note(),
        "note": args.note,
        "workloads": workload_rows(
            [json.loads(path.read_text()) for path in paths]),
    }
    trajectory = (json.loads(TRAJECTORY.read_text())
                  if TRAJECTORY.exists() else [])
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
