"""Put the legacy microbenchmark archives next to the benchmark's trace.

Usage (from the repository root, after ``run.py --trace 1`` runs)::

    python3 pdosbench/legacy.py

For each microbenchmark archive under ``benchmarks/results`` this prints
the median and quartiles of its archived rep walls and, when the traced
run of the workload it stands for has been recorded, the share of that
workload's traced wall time spent in the layers the microbenchmark
exercises -- the most its gate could ever save end to end.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ARCHIVES = ROOT / "benchmarks" / "results"
TRACES = ROOT / ".pdosbench"

#: microbenchmark -> (workload, layers it exercises).
LEGACY = {
    "sim_core": ("exact-serial", ("sim.engine", "sim.link", "sim.tcp",
                                  "sim.packet", "sim.attacker")),
    "many_flows": ("many-flows", ("sim.engine",)),
    "forwarding": ("many-flows", ("sim.forwarding",)),
    "warm_start": ("exact-serial", ("sim.checkpoint",)),
    "fabric": ("pool-2", ("runner.runner",)),
}

_REPS = re.compile(r"reps: ((?:[\d.]+s(?: / )?)+)")


def rep_walls(name: str) -> dict:
    """Every archived list of rep walls: ``{label: [seconds]}``."""
    found = {}
    archive = ARCHIVES / f"{name}.json"
    if archive.is_file():
        def walk(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}" if path else key)
            elif path.endswith("rep_walls") and isinstance(node, list):
                found[path] = [float(wall) for wall in node]
        walk(json.loads(archive.read_text()), "")
    text = ARCHIVES / f"{name}.txt"
    if not found and text.is_file():
        for line in text.read_text().splitlines():
            match = _REPS.search(line)
            if match:
                label = re.split(r"\s{2,}", line.strip())[0]
                found[label] = [float(wall.rstrip("s"))
                                for wall in match.group(1).split(" / ")]
    return found


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; with fewer than two values, all the same."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def layer_share(workload: str, layers) -> str:
    trace = TRACES / f"{workload}.trace.json"
    if not trace.is_file():
        return f"no traced {workload} run recorded"
    metrics = json.loads(trace.read_text())["metrics"]
    share = sum(metrics[f"{layer}.share"] for layer in layers)
    return (f"{'+'.join(layers)} = {share:.1f}% of traced {workload} "
            "wall time")


def main() -> int:
    for name, (workload, layers) in LEGACY.items():
        print(f"{name}:")
        walls = rep_walls(name)
        if not walls:
            print("  no archived rep walls")
        for label, values in walls.items():
            q1, median, q3 = quartiles(values)
            print(f"  {label}: median {median:.3f}s, quartiles "
                  f"{q1:.3f}s / {q3:.3f}s over {len(values)} reps")
        print(f"  layer share: {layer_share(workload, layers)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
