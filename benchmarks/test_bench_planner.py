"""Bench: the fast-mode pipeline vs exact dense sweep on a gain panel.

Resolves the same three-extent gain panel (the shape of a Fig. 6-9
figure) two ways and compares wall time and answers:

* **exact** -- a dense γ grid at the planner's target resolution
  (0.05 over [0.1, 0.9] -> 17 γ per curve), full measurement windows,
  the default bit-identical path.  This is what localizing γ* to
  ±0.05 costs without adaptivity.
* **fast** -- :func:`repro.runner.planner.run_planned_sweep` with
  :data:`FAST_POLICY`, the ``--fast`` pipeline: a fluid (ODE) pre-pass
  localizes γ*, three packet cells one resolution step apart confirm
  it, CI-driven seed allocation sets the replicas, and in-sim
  convergence early-exit ends windows.

Gates:

* fast resolves the panel >= 3x faster;
* the fluid pre-pass ran on every panel, at least its stage-1
  half-grid per extent;
* each fast γ* lands within one coarse-grid step of the exact argmax;
* the exact peak gain sits inside the planner's reported CI (with an
  absolute floor -- a 1-2 seed CI can be narrower than the exact
  path's byte-based vs rate-based measurement difference).

Results (including per-γ* rows the docs cite) are archived to
``benchmarks/results/planner.txt``.
"""

import time

from benchmarks.conftest import best_of_reps, format_reps, run_once
from repro.experiments.base import (
    DumbbellPlatform,
    plan_gain_sweep,
    run_gain_sweeps,
)
from repro.runner import ExperimentRunner
from repro.runner.planner import FAST_POLICY, run_planned_sweep
from repro.util.units import mbps, ms

RATE = mbps(30)
EXTENTS = (ms(50), ms(75), ms(100))
N_FLOWS = 15
SEED = 42
#: Near-paper-scale measurement window (full scale is 50 s): the
#: longer the window, the more an in-sim convergence exit saves, so
#: the smoke-scale 20 s default would understate the fast path.
WARMUP = 6.0
WINDOW = 40.0

#: Exact side: dense grid at the planner's γ* resolution.
DENSE_STEP = FAST_POLICY.gamma_resolution
DENSE_GAMMAS = tuple(
    round(0.1 + i * DENSE_STEP, 10)
    for i in range(int(round((0.9 - 0.1) / DENSE_STEP)) + 1)
)

#: One coarse-grid step -- the γ* agreement bar.
COARSE_STEP = (0.9 - 0.1) / (FAST_POLICY.coarse_points - 1)

#: Absolute CI floor for the peak-gain agreement check (see module doc).
CI_FLOOR = 0.05

SPEEDUP_GATE = 3.0


def _platform():
    return DumbbellPlatform(n_flows=N_FLOWS, seed=SEED)


def _run_exact():
    """The dense panel through the default exact path, timed."""
    runner = ExperimentRunner(jobs=1, cache_dir=None)
    platform = _platform()
    plans = [
        plan_gain_sweep(
            platform, rate_bps=RATE, extent=extent, gammas=DENSE_GAMMAS,
            warmup=WARMUP, window=WINDOW,
            label=f"T_extent={extent * 1e3:.0f}ms",
        )
        for extent in EXTENTS
    ]
    started = time.perf_counter()
    curves = run_gain_sweeps(plans, runner=runner)
    return curves, time.perf_counter() - started, runner


def _run_fast():
    """The same panel through the adaptive planner, timed."""
    runner = ExperimentRunner(jobs=1, cache_dir=None)
    platform = _platform()
    started = time.perf_counter()
    sweeps = [
        run_planned_sweep(
            platform, rate_bps=RATE, extent=extent,
            warmup=WARMUP, window=WINDOW,
            label=f"T_extent={extent * 1e3:.0f}ms [fast]",
            policy=FAST_POLICY, runner=runner,
        )
        for extent in EXTENTS
    ]
    return sweeps, time.perf_counter() - started, runner


def test_bench_planner(benchmark, record_result):
    curves, exact_wall, exact_runner = _run_exact()
    (sweeps, fast_wall, fast_runner), _, rep_walls = run_once(
        benchmark, best_of_reps, 1, _run_fast, wall_of=lambda run: run[1])

    speedup = exact_wall / max(fast_wall, 1e-9)
    rows = [
        "Planner bench -- three-extent gain panel "
        f"(R_attack={RATE / 1e6:.0f}M, {N_FLOWS} flows, "
        f"{WARMUP:.0f}s warm-up / {WINDOW:.0f}s window), jobs=1",
        f"exact: dense {len(DENSE_GAMMAS)}-gamma grid "
        f"(step {DENSE_STEP:.2f}) per extent; "
        "fast: fluid pre-pass + packet confirm grid (FAST_POLICY)",
        f"{'mode':<8} {'wall':>8}",
        f"{'exact':<8} {exact_wall:>7.2f}s",
        f"{'fast':<8} {fast_wall:>7.2f}s ({speedup:.2f}x)  "
        f"({format_reps(rep_walls)})",
        "",
        f"{'extent':<8} {'exact g*':>9} {'exact G':>8} "
        f"{'fast g*':>8} {'fast G':>7} {'CI':>6} {'seeds':>6}",
    ]
    for extent, curve, sweep in zip(EXTENTS, curves, sweeps):
        exact_peak = curve.peak_measured()
        rows.append(
            f"{extent * 1e3:>5.0f}ms  {exact_peak.gamma:>9.3f} "
            f"{exact_peak.measured_gain:>8.3f} {sweep.gamma_star:>8.3f} "
            f"{sweep.gain_at_peak:>7.3f} {sweep.ci_at_peak:>6.3f} "
            f"{sweep.seeds_at_peak:>6}"
        )
    rows.append("")
    rows.extend(sweep.summary() for sweep in sweeps)
    rows.append(f"fast runner: {fast_runner.stats.summary()}")
    rows.append(f"exact runner: {exact_runner.stats.summary()}")
    record_result("planner", "\n".join(rows), data={
        "exact_wall": exact_wall, "fast_wall": fast_wall,
        "speedup": speedup, "rep_walls": rep_walls,
    })

    # The planner actually adapted: the fluid pre-pass localized every
    # panel, and early exits happened.  (The fluid floor is each
    # panel's stage-1 half-grid; the extent-independent fluid baseline
    # is memoized after the first panel, and memo hits are not
    # re-counted.)
    stats = fast_runner.stats
    assert all(sweep.fluid_gamma_star is not None for sweep in sweeps)
    assert (stats.fluid_cells
            >= len(EXTENTS) * (FAST_POLICY.fluid_grid_points // 2 + 1))
    assert stats.truncated_cells > 0
    assert stats.planner_cells_saved > 0

    for extent, curve, sweep in zip(EXTENTS, curves, sweeps):
        exact_peak = curve.peak_measured()
        assert abs(sweep.gamma_star - exact_peak.gamma) <= COARSE_STEP + 1e-9, (
            f"extent {extent * 1e3:.0f}ms: planner gamma*="
            f"{sweep.gamma_star:.3f} is more than one coarse step "
            f"({COARSE_STEP:.2f}) from the exact argmax "
            f"{exact_peak.gamma:.3f}"
        )
        tolerance = max(sweep.ci_at_peak, CI_FLOOR)
        assert abs(sweep.gain_at_peak - exact_peak.measured_gain) <= tolerance, (
            f"extent {extent * 1e3:.0f}ms: planner peak G="
            f"{sweep.gain_at_peak:.3f} vs exact {exact_peak.measured_gain:.3f} "
            f"differs by more than {tolerance:.3f}"
        )

    assert speedup >= SPEEDUP_GATE, (
        f"planner speedup {speedup:.2f}x below the {SPEEDUP_GATE}x gate "
        f"(exact {exact_wall:.2f}s, fast {fast_wall:.2f}s)"
    )
