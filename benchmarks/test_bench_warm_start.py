"""Bench: warm-start checkpointing vs from-scratch warm-ups.

Times one representative multi-γ attack panel -- the shape every gain
figure sweeps -- through the runner (warm starts) and through
``execute_cell`` per cell (every warm-up from scratch), best of three
runs each, and archives the comparison.  The checks encode the
subsystem's two contracts:

* results are bit-identical to from-scratch execution;
* sharing the warm-up prefix is at least 1.2x faster at ``jobs=1`` on a
  panel whose warm-up dominates the per-cell simulation (the paper's
  sweeps warm up for 6-10 s and measure 20-50 s windows at full scale;
  this bench uses the smoke-scale 6 s warm-up / 2 s window, where the
  prefix is ~75% of each cell).
"""

import time

from benchmarks.conftest import best_of_reps, format_reps, run_once
from repro.core.attack import PulseTrain
from repro.runner import Cell, ExperimentRunner, PlatformSpec, execute_cell
from repro.util.units import mbps, ms

BEST_OF = 3
GAMMAS = (0.3, 0.45, 0.6, 0.75, 0.9, 1.2)
WARMUP = 6.0
WINDOW = 2.0


def _panel():
    platform = PlatformSpec(kind="dumbbell", n_flows=15, seed=42)
    baseline = Cell(platform=platform, warmup=WARMUP, window=WINDOW)
    return [baseline] + [
        Cell(
            platform=platform, warmup=WARMUP, window=WINDOW,
            train=PulseTrain.from_gamma(
                gamma=gamma, rate_bps=mbps(60), extent=ms(100),
                bottleneck_bps=mbps(15), n_pulses=2,
            ),
        )
        for gamma in GAMMAS
    ]


def _warm(cells):
    return ExperimentRunner(jobs=1).measure_many(cells)


def _from_scratch(cells):
    return [execute_cell(cell) for cell in cells]


def _best_of(measure):
    """Best wall time of *measure* over BEST_OF runs of the panel."""

    def _run():
        cells = _panel()
        started = time.perf_counter()
        results = measure(cells)
        return results, time.perf_counter() - started

    (results, _), best_wall, rep_walls = best_of_reps(
        BEST_OF, _run, wall_of=lambda run: run[1])
    return results, best_wall, rep_walls


def test_warm_start_speedup(benchmark, record_result):
    cold_results, cold_wall, cold_reps = _best_of(_from_scratch)
    warm_results, warm_wall, warm_reps = run_once(benchmark, _best_of, _warm)

    speedup = cold_wall / max(warm_wall, 1e-9)
    cells = len(_panel())
    rows = [
        f"Warm-start bench -- one {len(GAMMAS)}-gamma panel + baseline "
        f"({cells} cells, 15 flows, {WARMUP:.0f}s warm-up / "
        f"{WINDOW:.0f}s window), best of {BEST_OF}, jobs=1",
        f"{'mode':<16} {'wall':>8}",
        f"{'from scratch':<16} {cold_wall:>7.2f}s  ({format_reps(cold_reps)})",
        f"{'warm-start':<16} {warm_wall:>7.2f}s ({speedup:.2f}x)  "
        f"({format_reps(warm_reps)})",
    ]
    record_result("warm_start", "\n".join(rows), data={
        "cold_wall": cold_wall, "cold_rep_walls": cold_reps,
        "warm_wall": warm_wall, "warm_rep_walls": warm_reps,
        "speedup": speedup, "gate_min_speedup": 1.2,
    })

    assert warm_results == cold_results  # bit-identical, field for field
    assert speedup >= 1.2, (
        f"warm-start speedup {speedup:.2f}x below the 1.2x floor "
        f"(cold {cold_wall:.2f}s, warm {warm_wall:.2f}s)"
    )
