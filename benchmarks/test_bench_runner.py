"""Bench: the parallel, cached experiment runner itself.

Times one representative multi-cell sweep batch three ways -- executed
serially, executed with worker processes, and replayed from a warm disk
cache -- and archives the comparison.  The checks encode the runner's
two contracts:

* results are bit-identical across serial, parallel, and cached
  resolution (determinism is the whole point of cell-level seeding);
* a warm cache replays the batch at least 5x faster than executing it.
"""

import os
import time

from benchmarks.conftest import run_once
from repro.experiments.base import (
    DumbbellPlatform,
    plan_gain_sweep,
    run_gain_sweeps,
)
from repro.runner import ExperimentRunner
from repro.util.units import mbps, ms

GAMMAS = (0.3, 0.5, 0.7, 0.9)


def _plan():
    return plan_gain_sweep(
        DumbbellPlatform(n_flows=5, seed=42),
        rate_bps=mbps(30), extent=ms(100), gammas=GAMMAS,
        warmup=2.0, window=6.0, label="runner-bench",
    )


def _sweep_with(runner):
    started = time.perf_counter()
    curve = run_gain_sweeps([_plan()], runner=runner)[0]
    return curve, time.perf_counter() - started


def test_runner_parallel_and_cached(benchmark, record_result, tmp_path):
    jobs = min(2, os.cpu_count() or 1)
    with ExperimentRunner(jobs=1) as serial_runner:
        serial, serial_wall = _sweep_with(serial_runner)

    with ExperimentRunner(jobs=jobs) as parallel_runner:
        parallel, parallel_wall = run_once(
            benchmark, _sweep_with, parallel_runner
        )

    _sweep_with(ExperimentRunner(jobs=1, cache_dir=tmp_path))  # populate
    cached_runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
    cached, cached_wall = _sweep_with(cached_runner)

    modes = {
        "serial": (serial_wall, serial_runner.stats),
        f"jobs={jobs}": (parallel_wall, parallel_runner.stats),
        "cached": (cached_wall, cached_runner.stats),
    }
    rows = [
        "Runner bench -- one 4-gamma sweep (5 flows, 8 s/cell) resolved "
        "three ways",
        f"{'mode':<8} {'wall':>7} {'warm-ups':>9} {'warm starts':>12} "
        f"{'utilization':>12}",
    ]
    for mode, (wall, stats) in modes.items():
        utilization = stats.worker_utilization
        rows.append(
            f"{mode:<8} {wall:>6.2f}s {stats.warmup_sims:>9} "
            f"{stats.warm_starts:>12} "
            + (f"{100.0 * utilization:>11.0f}%" if utilization is not None
               else f"{'-':>12}")
        )
    rows += [
        f"cached replay: {serial_wall / max(cached_wall, 1e-9):.0f}x "
        "faster than serial",
        f"jobs={jobs} splits the one warm-up group into "
        f"{parallel_runner.stats.warmup_sims} chunks; each chunk "
        "re-simulates the shared warm-up",
    ]
    record_result("runner", "\n".join(rows), data={
        "serial_wall": serial_wall, "parallel_wall": parallel_wall,
        "cached_wall": cached_wall, "jobs": jobs,
        "cached_speedup": serial_wall / max(cached_wall, 1e-9),
        "modes": {
            mode: {"wall": wall, "warmup_sims": stats.warmup_sims,
                   "warm_starts": stats.warm_starts,
                   "worker_utilization": stats.worker_utilization}
            for mode, (wall, stats) in modes.items()
        },
    })

    for other in (parallel, cached):
        assert [p.measured_degradation for p in other.points] == [
            p.measured_degradation for p in serial.points
        ]
    assert serial_wall >= 5.0 * cached_wall
