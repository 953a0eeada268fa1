"""Adaptive planner: policy validation, fluid pre-pass, seed allocation.

The orchestration logic (fluid localization and packet confirmation,
CI-driven replica allocation, savings accounting) is exercised against
a stub runner whose "measurements" come from a synthetic gain curve
with a known peak -- fast and exact control over the shape the planner
explores.
A small real-simulator integration at the end checks the pieces the
stub cannot: distinct cache identities for planner cells, convergence
truncation, and runner counters.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments.base import DumbbellPlatform
from repro.runner import Cell, CellResult, ExperimentRunner, PlatformSpec
from repro.runner.planner import (
    FAST_POLICY,
    PlannerPolicy,
    active_policy,
    fast_mode,
    run_planned_sweep,
)
from repro.runner.runner import RunnerStats
from repro.sim.convergence import ConvergenceConfig
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms

BOTTLENECK = mbps(15)


class StubRunner:
    """Serves synthetic measurements from a known gain curve.

    Baseline cells deliver a fixed rate; attacked cells deliver the
    rate degraded so the planner's reconstructed gain is
    ``height * exp(-((gamma - peak) / width)**2)`` plus an optional
    per-seed alternating jitter (so CI stopping has variance to react
    to).  Deterministic, instant, and shaped however a test needs.
    """

    def __init__(self, *, peak=0.42, height=0.5, width=0.25, noise=0.0):
        self.stats = RunnerStats()
        self.peak = peak
        self.height = height
        self.width = width
        self.noise = noise
        self.cells_measured = []

    def measure_many(self, cells):
        self.cells_measured.extend(cells)
        return [self._result(cell) for cell in cells]

    def _result(self, cell):
        rate = 1e6  # baseline bytes/sec
        if cell.train is not None:
            gamma = cell.train.gamma(BOTTLENECK)
            gain = self.height * np.exp(-((gamma - self.peak)
                                          / self.width) ** 2)
            gain += self.noise * (1 if cell.platform.seed % 2 == 0 else -1)
            degradation = gain / (1.0 - gamma)
            rate *= 1.0 - degradation
        return CellResult(goodput_bytes=rate * cell.window)


def policy(**overrides):
    base = dict(
        coarse_points=5, gamma_resolution=0.05, min_seeds=1, max_seeds=1,
        confirm_peak_seeds=1, early_exit=None,
    )
    base.update(overrides)
    return PlannerPolicy(**base)


def sweep(runner, planner_policy, **kwargs):
    kwargs.setdefault("rate_bps", mbps(30))
    kwargs.setdefault("extent", ms(100))
    kwargs.setdefault("warmup", 1.0)
    kwargs.setdefault("window", 10.0)
    return run_planned_sweep(
        DumbbellPlatform(n_flows=2, seed=0), policy=planner_policy,
        runner=runner, **kwargs,
    )


class TestPolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(coarse_points=2),
        dict(gamma_resolution=0.0),
        dict(min_seeds=0),
        dict(min_seeds=4, max_seeds=3),
        dict(ci_rel_tol=0.0),
        dict(confidence=1.0),
        dict(gain_floor=-0.1),
        dict(confirm_peak_seeds=0),
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PlannerPolicy(**kwargs)

    def test_fast_mode_follows_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert not fast_mode()
        assert active_policy() is None
        monkeypatch.setenv("REPRO_FAST", "1")
        assert fast_mode()
        assert active_policy() is FAST_POLICY
        assert FAST_POLICY == PlannerPolicy()
        monkeypatch.setenv("REPRO_FAST", "0")
        assert not fast_mode()


class TestRefinement:
    def test_custom_grid_bounds_the_fluid_and_confirm_grids(self):
        runner = StubRunner(peak=0.42)
        result = sweep(runner, policy(), gammas=(0.2, 0.4, 0.6))
        assert result.fluid_gamma_star is not None
        gammas = [cell.train.gamma(BOTTLENECK)
                  for cell in runner.cells_measured
                  if cell.train is not None]
        assert min(gammas) >= 0.2 - 1e-12
        assert max(gammas) <= 0.6 + 1e-12

    def test_savings_accounting_is_consistent(self):
        runner = StubRunner()
        result = sweep(runner, policy(max_seeds=3, confirm_peak_seeds=2))
        dense = int((0.9 - 0.1) / 0.05) + 1  # 17-cell dense grid
        assert result.cells_saved == dense - result.gammas_sampled
        assert result.seeds_saved == sum(
            3 - point.n_seeds for point in result.points)
        assert runner.stats.planner_cells_saved == result.cells_saved
        assert runner.stats.planner_seeds_saved == result.seeds_saved

    def test_rejects_degenerate_custom_grids(self):
        runner = StubRunner()
        with pytest.raises(ValidationError, match=">= 3"):
            sweep(runner, policy(), gammas=(0.3, 0.5))
        with pytest.raises(ValidationError, match="C_attack"):
            sweep(runner, policy(), gammas=(0.3, 0.5, 3.0))

    def test_rejects_repeated_gammas(self):
        # A repeat would be measured twice on one seed, and the planner
        # would report the two identical samples as a confirmed peak.
        runner = StubRunner(noise=0.2)
        with pytest.raises(ValidationError, match="0.3 repeats"):
            sweep(runner, FAST_POLICY, gammas=(0.3, 0.3, 0.35))
        assert runner.cells_measured == []


class TestFluidPrepass:
    def test_localizes_on_fluid_then_confirms_with_packet(self):
        runner = StubRunner(peak=0.42)
        result = sweep(runner, policy())
        # Two-stage sampling of the 17-point grid: the fluid baseline,
        # 9 coarse points, then the 2 full-resolution peak neighbors.
        assert result.fluid_cells == 12
        assert result.fluid_gamma_star == pytest.approx(0.42, abs=0.05)
        # Packet confirmation shrank to 3 points around the fluid peak.
        assert result.gammas_sampled == 3
        assert list(result.curve.gammas()) == pytest.approx(
            [0.35, 0.40, 0.45])
        fluid = [c for c in runner.cells_measured if c.backend == "fluid"]
        packet = [c for c in runner.cells_measured if c.backend == "packet"]
        assert len(fluid) == 12
        # Pre-pass cells integrate at the policy's coarse step; packet
        # cells never carry the fluid-only knob.
        assert all(c.fluid_max_step == FAST_POLICY.fluid_max_step
                   for c in fluid)
        assert all(c.fluid_max_step is None for c in packet)
        # 3 attacked packet cells + 1 packet baseline.
        assert len(packet) == 4
        assert "fluid pre-pass localized" in result.summary()

    def test_confirm_grid_clamps_to_the_sweep_bounds(self):
        runner = StubRunner(peak=0.05, width=0.1)
        result = sweep(runner, policy())
        sampled = result.curve.gammas()
        assert sampled.min() >= 0.1 - 1e-12
        assert result.gammas_sampled == 3

    def test_narrow_grids_skip_the_prepass(self):
        # A span of <= 2 resolution steps cannot be narrowed further,
        # so the fluid cells would be pure overhead.
        runner = StubRunner(peak=0.42)
        result = sweep(runner, policy(), gammas=(0.3, 0.35, 0.4))
        assert result.fluid_cells == 0
        assert result.fluid_gamma_star is None
        assert all(c.backend == "packet" for c in runner.cells_measured)

    def test_savings_count_against_the_dense_packet_grid(self):
        runner = StubRunner(peak=0.42)
        result = sweep(runner, policy())
        dense = int((0.9 - 0.1) / 0.05) + 1
        assert result.cells_saved == dense - result.gammas_sampled
        assert runner.stats.planner_cells_saved == result.cells_saved

    @pytest.mark.parametrize("kwargs", [
        dict(fluid_grid_points=2),
        dict(fluid_confirm_points=2),
        dict(fluid_max_step=0.0),
    ])
    def test_bad_prepass_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PlannerPolicy(**kwargs)


class TestSeedAllocation:
    def test_noise_free_samples_settle_at_two_seeds(self):
        # Zero variance -> the CI half-width is 0 after two replicas,
        # so min_seeds=2 is also where allocation stops.
        runner = StubRunner(noise=0.0)
        result = sweep(runner, policy(min_seeds=2, max_seeds=5,
                                      confirm_peak_seeds=2))
        assert all(point.n_seeds == 2 for point in result.points)
        assert result.seeds_saved == 3 * len(result.points)

    def test_noisy_samples_escalate_to_the_seed_cap(self):
        # Alternating per-seed jitter keeps the CI wide: every gamma
        # escalates to max_seeds and nothing is saved.
        runner = StubRunner(noise=0.2)
        result = sweep(runner, policy(min_seeds=2, max_seeds=4,
                                      confirm_peak_seeds=2))
        assert result.seeds_at_peak == 4
        assert all(point.n_seeds == 4 for point in result.points)
        assert result.seeds_saved == 0

    def test_single_seed_points_report_infinite_ci(self):
        runner = StubRunner()
        result = sweep(runner, policy())
        assert all(np.isinf(p.ci_halfwidth) for p in result.points)
        assert result.seeds_at_peak == 1
        assert "n/a" in result.summary()  # inf CI renders as n/a


class TestCellIdentity:
    def test_early_exit_changes_the_cache_identity(self):
        base = Cell(
            platform=PlatformSpec(kind="dumbbell", n_flows=1, seed=3),
            warmup=0.5, window=1.0,
        )
        fast = dataclasses.replace(base, early_exit=ConvergenceConfig())
        assert "early_exit" not in base.describe()
        assert base.describe() != fast.describe()

    def test_planner_cells_never_hit_exact_memos(self):
        runner = ExperimentRunner(jobs=1, cache_dir=None)
        base = Cell(
            platform=PlatformSpec(kind="dumbbell", n_flows=1, seed=3),
            warmup=0.5, window=4.0,
        )
        fast = dataclasses.replace(
            base, early_exit=ConvergenceConfig(
                check_interval=0.5, min_fraction=0.2, rel_tol=0.5))
        runner.measure(base)
        runner.measure(fast)
        assert runner.stats.executed == 2
        assert runner.stats.memo_hits == 0


class TestIntegration:
    def test_real_sweep_truncates_and_counts(self):
        runner = ExperimentRunner(jobs=1, cache_dir=None)
        relaxed = ConvergenceConfig(
            check_interval=0.5, min_fraction=0.2, rel_tol=0.5,
            stable_checks=2,
        )
        result = sweep(
            runner,
            policy(coarse_points=3, early_exit=relaxed),
            window=6.0,
        )
        assert 0.1 <= result.gamma_star <= 0.9
        assert len(result.points) == result.gammas_sampled
        # The generous tolerance guarantees early exits on this quiet
        # 2-flow dumbbell, and every truncation is accounted.
        assert runner.stats.truncated_cells > 0
        assert runner.stats.truncated_sim_seconds > 0.0
        assert "early exits truncated" in runner.stats.summary()
