"""The repository benchmark: regenerate slices of the paper's figures.

Usage (from the repository root)::

    python3 pdosbench/run.py --workload exact-serial --seed 0 --seconds 25 --trace 0
    python3 pdosbench/run.py --regen-goldens 0-31

Each run repeats one workload rep, each in a fresh Python process
(``rep.py``), until ``--seconds`` have passed (at least three reps; four
when tracing), and reports medians over the reps.  The three figure
workloads then re-render every rep twice from the cache it filled, each
time in another fresh process (the warm replay).  Outputs are checked
against the first rep (determinism), against the replays (cache round
trip), and against ``goldens.json`` when it holds the seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced reps and prints the per-layer metrics.  Every
metric is printed by name with its unit, the full record is written to
``.pdosbench/<workload>[.trace].json``, and the last line of standard
output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import LAYERS  # noqa: E402

WORKLOADS = ("exact-serial", "fast-serial", "pool-2", "many-flows")
FIGURE_WORKLOADS = ("exact-serial", "fast-serial", "pool-2")
GOLDENS = HERE / "goldens.json"
OUT_DIR = ROOT / ".pdosbench"

MIN_REPS = {0: 3, 1: 4}
#: Warm replays per figure-workload rep: a replay is about 1 s, mostly
#: imports, so two per rep steady ``replay_s`` and ``setup_s``.
REPLAYS = 2
#: Stop starting reps once a run could pass this, and kill a rep that
#: would pass the hard limit, so a run ends within three minutes.
RUN_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0
CHILD_TIMEOUT_S = 120.0
#: A fast-mode gamma* may sit one step of the exact golden's default
#: gamma grid (0.1, 0.3, ..., 0.9) away from the exact peak: the exact
#: reference only resolves gamma* to that grid.
GAMMA_TOLERANCE = 0.2

#: Metric name -> unit, in print order.
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "replay_s": "s",
    "events_per_s": "1/s", "peak_rss_mb": "MiB",
}
PER_LAYER = {
    **{f"{layer}.share": "%" for layer in LAYERS},
    "trace.samples": "count", "trace.coverage": "%", "trace.overhead": "%",
    "setup.import_s": "s", "setup.fingerprint_s": "s", "setup.build_s": "s",
    "runner.cache.key_calls": "count", "runner.cache.get_calls": "count",
    "runner.cache.put_calls": "count", "runner.cache.hit_ratio": "%",
    "runner.cells.executed": "count", "runner.cells.warmups": "count",
    "runner.cells.warm_starts": "count", "runner.cells.per_s": "1/s",
    "runner.planner.rounds": "count", "runner.planner.cells_saved": "count",
    "runner.planner.seeds_saved": "count", "runner.pool.utilization": "%",
    "sim.fluid.cells": "count", "sim.convergence.truncated_cells": "count",
    "sim.checkpoint.snapshots": "count", "sim.checkpoint.forks": "count",
    "sim.engine.events": "count", "sim.engine.calendar_builds": "count",
}


class RepFailed(RuntimeError):
    """A rep process exited abnormally or printed no result."""


def run_child(request: dict, deadline: float) -> dict:
    """Run one rep process and return its result.

    The result gains ``process_s``, the process's wall time from spawn
    to exit.  The child gets its own session, so on a timeout its whole
    process group (pool workers included) is killed and reaped.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(request)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{request['phase']} rep timed out after "
                        f"{timeout:.0f}s") from None
    wall = time.perf_counter() - started
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{request['phase']} rep exited with "
                        f"{proc.returncode}:\n{err.strip()}")
    return dict(json.loads(lines[-1]), process_s=wall)


def run_reps(workload: str, seed: int, seconds: float, trace: int,
             scratch: Path) -> list:
    """Repeat the workload until *seconds* pass; returns the reps."""
    reps, durations = [], []
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    replays = REPLAYS if workload in FIGURE_WORKLOADS else 0
    while True:
        rep_started = time.perf_counter()
        traced = bool(trace) and len(reps) % 2 == 1
        request = {"workload": workload, "seed": seed, "traced": traced,
                   "cache_dir": tempfile.mkdtemp(dir=scratch)}
        rep = {"traced": traced,
               "cold": run_child(dict(request, phase="cold"), deadline),
               "replays": [run_child(dict(request, phase="replay"), deadline)
                           for _ in range(replays)]}
        shutil.rmtree(request["cache_dir"])
        reps.append(rep)
        durations.append(time.perf_counter() - rep_started)
        elapsed = time.perf_counter() - started
        typical = statistics.median(durations)
        if len(reps) >= MIN_REPS[trace] and elapsed + typical > seconds:
            return reps
        if elapsed + typical > RUN_LIMIT_S:
            return reps


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def _mismatches(reference: dict, got: dict) -> int:
    """Entries missing from either side or holding different values."""
    return sum(reference.get(key) != got.get(key)
               for key in set(reference) | set(got))


def check(workload: str, reps: list, golden) -> dict:
    """Count attempted and failed outputs across every rep.

    A cell counts once per rep (and once per replay); so do a panel's
    gamma*, a rendering, and the many-flows fingerprint.
    """
    attempted = failed = gamma_misses = 0
    first = reps[0]["cold"]["outputs"]
    for rep in reps:
        outputs = rep["cold"]["outputs"]
        if workload == "many-flows":
            reference = golden["fingerprint"] if golden else (
                first["fingerprint"])
            attempted += 1
            failed += outputs["fingerprint"] != reference
            continue
        cells = outputs["cells"]
        reference = golden["cells"] if golden and "cells" in golden else (
            first["cells"])
        attempted += len(cells) + 1
        failed += _mismatches(reference, cells)
        failed += sum(not (values[0] > 0 and math.isfinite(values[0]))
                      for values in cells.values())
        failed += outputs["render"] != first["render"]
        if workload == "fast-serial":
            stars = outputs["gamma_star"]
            attempted += len(stars)
            failed += _mismatches(first["gamma_star"], stars)
            if golden:
                misses = sum(
                    abs(stars.get(label, math.inf) - exact)
                    > GAMMA_TOLERANCE + 1e-9
                    for label, exact in golden["gamma_star"].items())
                gamma_misses += misses
                failed += misses
        for replay in rep["replays"]:
            attempted += replay["runner"]["cells"] + 1
            failed += replay["runner"]["executed"]
            failed += replay["outputs"]["render"] != outputs["render"]
            if workload == "fast-serial":
                failed += (replay["outputs"]["gamma_star"]
                           != outputs["gamma_star"])
    return {"attempted": attempted, "failed": failed,
            "gamma_star_miss": gamma_misses, "golden": golden is not None}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of *values* (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int):
    """The highest whole percentile with at least 10 samples beyond it.

    Returns ``None`` when fewer than 11 samples leave no such percentile.
    """
    if n < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n) + 1e-9)


def _processes(reps: list) -> list:
    """Every rep process's result: cold reps and replays."""
    return [result for rep in reps for result in [rep["cold"]]
            + rep["replays"]]


def end_to_end(workload: str, reps: list) -> dict:
    plain = [rep for rep in reps if not rep["traced"]]
    cold = [rep["cold"] for rep in plain]
    # many-flows persists nothing: getting its result again is a
    # fresh-process rerun.
    replays = [replay for rep in plain for replay in rep["replays"]] or cold
    return {
        "wall_s": _median([c["wall_s"] for c in cold]),
        "setup_s": _median([p["setup"]["total_s"]
                            for p in _processes(plain)]),
        "replay_s": _median([replay["process_s"] for replay in replays]),
        "events_per_s": _median([c["work"]["events"] / c["wall_s"]
                                 for c in cold]),
        "peak_rss_mb": _median([c["rss_mb"] for c in cold]),
    }


def per_layer(workload: str, reps: list) -> tuple:
    """The declared per-layer metrics plus the finer details.

    Returns ``(metrics, details)``; details carry the latency and
    self-time figures that are zero by construction on some workloads.
    """
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    tcold = [rep["cold"] for rep in traced]
    samples = sum(c["trace"]["samples"] for c in tcold)
    layer_samples = {layer: sum(c["trace"]["layers"].get(layer, 0)
                                for c in tcold) for layer in LAYERS}
    traced_wall = _median([c["wall_s"] for c in tcold])
    plain_wall = _median([rep["cold"]["wall_s"] for rep in plain])

    def share(count):
        return 100.0 * count / samples if samples else 0.0

    def med(fn):
        return _median([fn(rep) for rep in traced])

    def cache_calls(rep, name):
        return [call for process in _processes([rep])
                for call in process.get("cache", {}).get(name, [])]

    def runner(rep, name):
        return (rep["cold"].get("runner") or {}).get(name) or 0

    metrics = {f"{layer}.share": share(layer_samples[layer])
               for layer in LAYERS}
    metrics.update({
        "trace.samples": med(lambda r: r["cold"]["trace"]["samples"]),
        "trace.coverage": share(samples - sum(
            c["trace"]["unmapped"] for c in tcold)),
        "trace.overhead": 100.0 * (traced_wall / plain_wall - 1.0),
    })
    for part in ("import_s", "fingerprint_s", "build_s"):
        metrics[f"setup.{part}"] = _median(
            [process["setup"][part] for process in _processes(reps)])
    hits = med(lambda r: sum(process.get("cache", {}).get("hits", 0)
                             for process in _processes([r])))
    gets = med(lambda r: len(cache_calls(r, "get")))
    metrics.update({
        "runner.cache.key_calls": med(lambda r: len(cache_calls(r, "key"))),
        "runner.cache.get_calls": gets,
        "runner.cache.put_calls": med(lambda r: len(cache_calls(r, "put"))),
        "runner.cache.hit_ratio": 100.0 * hits / gets if gets else 0.0,
        "runner.cells.executed": med(lambda r: runner(r, "executed")),
        "runner.cells.warmups": med(lambda r: runner(r, "warmup_sims")),
        "runner.cells.warm_starts": med(lambda r: runner(r, "warm_starts")),
        "runner.cells.per_s": _median(
            [runner(rep, "executed") / rep["cold"]["wall_s"]
             for rep in plain]),
        "runner.planner.rounds": med(lambda r: runner(r, "planner_rounds")),
        "runner.planner.cells_saved": med(
            lambda r: runner(r, "planner_cells_saved")),
        "runner.planner.seeds_saved": med(
            lambda r: runner(r, "planner_seeds_saved")),
        "runner.pool.utilization": 100.0 * med(
            lambda r: runner(r, "worker_utilization")),
        "sim.fluid.cells": med(lambda r: runner(r, "fluid_cells")),
        "sim.convergence.truncated_cells": med(
            lambda r: runner(r, "truncated_cells")),
    })
    for name, key in (("sim.checkpoint.snapshots", "snapshots"),
                      ("sim.checkpoint.forks", "forks"),
                      ("sim.engine.events", "events"),
                      ("sim.engine.calendar_builds", "calendar_builds")):
        metrics[name] = med(lambda r, key=key: r["cold"]["work"][key])

    cell_seconds = [s for c in tcold for s in c.get("cell_seconds", [])]
    tail = tail_percentile(len(cell_seconds))
    gets_s = [s for rep in traced for s in cache_calls(rep, "get")]
    details = {f"{layer}.self_s": share(layer_samples[layer]) / 100.0
               * traced_wall for layer in LAYERS}
    details.update({
        "runner.cache.key_s": med(lambda r: sum(cache_calls(r, "key"))),
        "runner.cache.get_s": med(lambda r: sum(cache_calls(r, "get"))),
        "runner.cache.put_s": med(lambda r: sum(cache_calls(r, "put"))),
        "runner.cache.get_p50_ms": 1e3 * percentile(gets_s, 50),
        "runner.cache.get_p99_ms": 1e3 * percentile(gets_s, 99),
        "runner.cells.cell_p50_s": percentile(cell_seconds, 50),
        "runner.cells.cell_tail_s": (
            percentile(cell_seconds, tail) if tail else None),
        "runner.cells.cell_tail_pct": tail,
        "runner.cells.cell_tail_n": len(cell_seconds),
        "runner.pool.busy_s": med(
            lambda r: runner(r, "parallel_busy_seconds")),
        "runner.pool.wait_s": med(
            lambda r: r["cold"]["trace"]["pool_wait"]
            / max(r["cold"]["trace"]["samples"], 1) * r["cold"]["wall_s"]),
        "sim.convergence.truncated_sim_s": med(
            lambda r: runner(r, "truncated_sim_seconds")),
        "replay.wall_s": _median([replay["process_s"] for rep in reps
                                  for replay in rep["replays"]]),
        "trace.wall_s": traced_wall,
    })
    return metrics, details


# ----------------------------------------------------------------------
# goldens
# ----------------------------------------------------------------------
def load_goldens() -> dict:
    if not GOLDENS.is_file():
        return {}
    return json.loads(GOLDENS.read_text())


def _golden_seeds(workload: str, seeds) -> list:
    # fast-serial runs the same panels for every seed (rep.fast_panels).
    return [0] if workload == "fast-serial" else list(seeds)


def golden_for(workload: str, seed: int):
    """The stored reference outputs for this run, or ``None``."""
    key = str(_golden_seeds(workload, [seed])[0])
    return load_goldens().get(workload, {}).get(key)


def regen_goldens(seeds, scratch: Path) -> None:
    """Recompute and store the reference outputs of every workload."""
    goldens = load_goldens()
    deadline = time.perf_counter() + 24 * 3600
    for workload in WORKLOADS:
        for seed in _golden_seeds(workload, seeds):
            request = {"workload": workload, "seed": seed,
                       "phase": "golden",
                       "cache_dir": tempfile.mkdtemp(dir=scratch)}
            result, wall = run_child(request, deadline)
            shutil.rmtree(request["cache_dir"])
            goldens.setdefault(workload, {})[str(seed)] = result
            print(f"{workload} seed {seed}: {wall:.1f}s", flush=True)
    GOLDENS.write_text(json.dumps(goldens, sort_keys=True,
                                  separators=(",", ":")) + "\n")


def _seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-goldens", metavar="FIRST-LAST",
                        help="recompute goldens.json for these seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if args.workload is None and args.regen_goldens is None:
        parser.error("--workload is required")
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="tmp-"))
    try:
        if args.regen_goldens is not None:
            regen_goldens(_seed_range(args.regen_goldens), scratch)
            return 0
        reps = run_reps(args.workload, args.seed, args.seconds, args.trace,
                        scratch)
    except RepFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    golden = golden_for(args.workload, args.seed)
    verdict = check(args.workload, reps, golden)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "reps": len(reps), "check": verdict}
    if args.trace:
        values, record["details"] = per_layer(args.workload, reps)
        units = PER_LAYER
    else:
        values = end_to_end(args.workload, reps)
        units = END_TO_END
    record["metrics"] = values
    record["raw"] = reps
    suffix = ".trace.json" if args.trace else ".json"
    (OUT_DIR / f"{args.workload}{suffix}").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(reps)} reps, "
          f"{verdict['failed']}/{verdict['attempted']} outputs failed "
          f"(goldens: {'checked' if golden else 'none for this seed'}"
          + (f", gamma* misses: {verdict['gamma_star_miss']}"
             if args.workload == "fast-serial" else "") + ")")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
