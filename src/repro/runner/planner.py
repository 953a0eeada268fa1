"""Adaptive experiment planner: fluid γ* pre-pass with CI stopping.

The gain figures only need ``G(γ) = Γ·(1−γ)^κ`` resolved accurately
near its peak γ* (Propositions 2-4), yet a dense fixed grid spends the
same budget on every γ.  :func:`run_planned_sweep` replaces the dense
grid with three stacked economies, all layered on the existing
:class:`~repro.runner.runner.ExperimentRunner` (so memoization, disk
caching, warm-start forking, and parallel fan-out keep working):

* **Fluid pre-pass** -- localize γ* on the fluid (ODE) backend, at
  milliseconds per cell, then confirm it at packet level on
  :attr:`PlannerPolicy.fluid_confirm_points` γ spaced
  :attr:`PlannerPolicy.gamma_resolution` apart around the fluid peak.
  A span already too narrow to shrink is sampled on the coarse grid
  directly.
* **Sequential seed allocation** -- each γ starts at
  :attr:`PlannerPolicy.min_seeds` replicas and gains more only while
  the gain estimate's t-based CI half-width
  (:func:`repro.analysis.stats.ci_stable`) exceeds the tolerance; the
  peak is always confirmed with enough replicas for a finite CI.
  Replicas differ only in platform seed, so they share their per-seed
  warm-up group with the runner's warm-start scheduler.
* **In-sim convergence early-exit** -- every planner cell carries the
  policy's :class:`~repro.sim.convergence.ConvergenceConfig`, so a
  simulation ends as soon as its windowed goodput rate stabilizes and
  measurements are compared as *rates* over the truncated span.

The pre-pass needs a fluid model of the platform, so the planner plans
dumbbell and test-bed sweeps; the fluid backend refuses parking lots.

Everything here is strictly opt-in: the fast path activates only
through an explicit :class:`PlannerPolicy`, the ``--fast`` CLI flag, or
``REPRO_FAST=1`` (:func:`active_policy`).  Planner cells serialize
their early-exit config into the cache key, so fast and exact results
never mix, and with the planner disabled no code path here runs at all.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import ci_stable, mean_ci_halfwidth
from repro.core.attack import PulseTrain
from repro.core.gain import attack_gain
from repro.core.throughput import c_psi
from repro.runner.cells import Cell, PlatformSpec, goodput_rate
from repro.runner.runner import ExperimentRunner, get_default_runner
from repro.sim.convergence import ConvergenceConfig
from repro.util.env import env_flag
from repro.util.errors import ValidationError
from repro.util.validate import check_positive

__all__ = ["PlannerPolicy", "PlannedPoint", "PlannedSweep",
           "run_planned_sweep", "fast_mode", "active_policy",
           "FAST_POLICY"]


@dataclasses.dataclass(frozen=True)
class PlannerPolicy:
    """How aggressively the planner trades coverage for speed.

    Attributes:
        coarse_points: γ samples in the default grid (>= 3).  The grid
            sets the sweep span, and is the packet grid itself when the
            span is too narrow for the pre-pass.
        gamma_resolution: spacing of the packet confirm grid and of the
            dense grid that :attr:`PlannedSweep.cells_saved` counts
            against; spans of at most two steps skip the pre-pass.
        min_seeds: replicas every sampled γ starts with.
        max_seeds: replica budget per γ (sequential allocation stops
            here regardless of CI width).
        ci_rel_tol: stop adding replicas once the gain CI half-width is
            below this fraction of the estimate's scale.
        confidence: CI confidence level.
        gain_floor: scale floor for the relative CI criterion (gains
            near zero would otherwise demand absurd precision).
        confirm_peak_seeds: minimum replicas at the final peak γ, so
            the reported peak always carries a finite CI.
        early_exit: convergence early-exit config stamped on every
            planner cell, or ``None`` to always run full windows.
        fluid_grid_points: resolution of the fluid localization grid --
            the pre-pass localizes γ* as finely as an N-point grid over
            the sweep span, but samples it in two stages (every other
            point, then just the peak's immediate neighbors), so it
            only integrates about half the grid.
        fluid_confirm_points: packet-level γ samples (spaced
            :attr:`gamma_resolution` apart, centered on the fluid peak)
            that confirm the peak.
        fluid_max_step: integration step cap for pre-pass fluid cells.
            Coarser than the fluid backend's full-fidelity default: the
            pre-pass only needs the γ landscape's shape, and the packet
            confirm grid absorbs a one-step localization error.
    """

    coarse_points: int = 5
    gamma_resolution: float = 0.05
    min_seeds: int = 1
    max_seeds: int = 3
    ci_rel_tol: float = 0.15
    confidence: float = 0.95
    gain_floor: float = 0.1
    confirm_peak_seeds: int = 2
    early_exit: Optional[ConvergenceConfig] = ConvergenceConfig()
    fluid_grid_points: int = 17
    fluid_confirm_points: int = 3
    fluid_max_step: float = 0.05

    def __post_init__(self) -> None:
        if self.coarse_points < 3:
            raise ValidationError(
                f"coarse_points must be >= 3, got {self.coarse_points}"
            )
        check_positive("gamma_resolution", self.gamma_resolution)
        if self.min_seeds < 1:
            raise ValidationError(
                f"min_seeds must be >= 1, got {self.min_seeds}"
            )
        if self.max_seeds < self.min_seeds:
            raise ValidationError(
                f"max_seeds ({self.max_seeds}) must be >= min_seeds "
                f"({self.min_seeds})"
            )
        if self.confirm_peak_seeds < 1:
            raise ValidationError(
                f"confirm_peak_seeds must be >= 1, got "
                f"{self.confirm_peak_seeds}"
            )
        check_positive("ci_rel_tol", self.ci_rel_tol)
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.gain_floor < 0.0:
            raise ValidationError(
                f"gain_floor must be >= 0, got {self.gain_floor}"
            )
        if self.fluid_grid_points < 3:
            raise ValidationError(
                f"fluid_grid_points must be >= 3, got "
                f"{self.fluid_grid_points}"
            )
        if self.fluid_confirm_points < 3:
            raise ValidationError(
                f"fluid_confirm_points must be >= 3, got "
                f"{self.fluid_confirm_points}"
            )
        check_positive("fluid_max_step", self.fluid_max_step)


#: The policy ``--fast`` / ``REPRO_FAST=1`` selects.
FAST_POLICY = PlannerPolicy()


def fast_mode() -> bool:
    """True when ``REPRO_FAST=1``: figure drivers use the planner."""
    return env_flag("REPRO_FAST")


def active_policy() -> Optional[PlannerPolicy]:
    """The environment-selected policy: :data:`FAST_POLICY` or ``None``.

    Figure drivers call this when no explicit policy is passed, so the
    planner stays invisible unless the user opted in.
    """
    return FAST_POLICY if fast_mode() else None


@dataclasses.dataclass(frozen=True)
class PlannedPoint:
    """One γ the planner sampled, with its replication economics."""

    gamma: float
    mean_gain: float
    mean_degradation: float
    ci_halfwidth: float
    n_seeds: int


@dataclasses.dataclass(frozen=True)
class PlannedSweep:
    """What an adaptive sweep resolved, plus what it saved.

    Attributes:
        curve: the classified gain curve over every sampled γ,
            structurally identical to an exact sweep's
            :class:`~repro.experiments.base.GainCurve`.
        gamma_star: the empirical peak γ.
        gain_at_peak / ci_at_peak / seeds_at_peak: the peak's gain
            estimate, its CI half-width, and how many replicas back it.
        gammas_sampled: distinct γ simulated.
        cells_saved: γ samples a dense grid at
            :attr:`PlannerPolicy.gamma_resolution` would have needed but
            the planner skipped.
        seeds_saved: replica budget left unspent by CI stopping.
        points: per-γ replication detail.
        fluid_gamma_star: the fluid pre-pass's peak estimate, or
            ``None`` when the pre-pass did not run.
        fluid_cells: fluid-backend measurements the pre-pass resolved
            (baseline included).
    """

    curve: Any
    gamma_star: float
    gain_at_peak: float
    ci_at_peak: float
    seeds_at_peak: int
    gammas_sampled: int
    cells_saved: int
    seeds_saved: int
    points: Tuple[PlannedPoint, ...]
    fluid_gamma_star: Optional[float] = None
    fluid_cells: int = 0

    def summary(self) -> str:
        ci = "n/a" if math.isinf(self.ci_at_peak) else f"{self.ci_at_peak:.3f}"
        line = (
            f"planner[{self.curve.label}]: gamma*={self.gamma_star:.3f} "
            f"G={self.gain_at_peak:.3f} (CI +-{ci}, "
            f"{self.seeds_at_peak} seeds); "
            f"{self.gammas_sampled} gammas sampled, {self.cells_saved} grid "
            f"cells + {self.seeds_saved} seeds saved"
        )
        if self.fluid_gamma_star is not None:
            line += (
                f"; fluid pre-pass localized gamma*~"
                f"{self.fluid_gamma_star:.3f} with {self.fluid_cells} cells"
            )
        return line


def run_planned_sweep(
    platform: PlatformSpec,
    *,
    rate_bps: float,
    extent: float,
    gammas: Optional[Sequence[float]] = None,
    kappa: float = 1.0,
    warmup: Optional[float] = None,
    window: Optional[float] = None,
    label: str = "",
    policy: Optional[PlannerPolicy] = None,
    runner: Optional[ExperimentRunner] = None,
    exclude_shrew_from_classification: bool = True,
) -> PlannedSweep:
    """Adaptively resolve one gain curve on *platform*.

    The drop-in fast counterpart of
    :func:`repro.experiments.base.run_gain_sweep`: same platform
    spec, same Eq.-(4) period inversion per γ, same paired
    same-seed baseline -- but the packet grid is aimed at the fluid
    peak, replicas are allocated by CI width, and every cell may end
    its window at convergence.  Measurements are therefore compared as
    goodput *rates* (:func:`repro.runner.cells.goodput_rate`).

    *gammas* overrides the coarse grid (>= 3 distinct values); the
    fluid and confirm grids stay inside its span.
    """
    # Imported late: experiments.base imports repro.runner at module
    # load, so a top-level import here would be circular.
    from repro.experiments.base import build_classified_curve, full_scale

    policy = policy if policy is not None else PlannerPolicy()
    runner = runner if runner is not None else get_default_runner()
    check_positive("rate_bps", rate_bps)
    check_positive("extent", extent)
    if warmup is None:
        warmup = 10.0 if full_scale() else 6.0
    if window is None:
        window = 50.0 if full_scale() else 20.0

    bottleneck = platform.bottleneck_bps
    c_psi_value = c_psi(
        platform.victim_population(), extent=extent, rate_bps=rate_bps,
        bottleneck_bps=bottleneck,
    )
    c_attack = rate_bps / bottleneck
    if gammas is None:
        grid = np.linspace(0.1, min(0.9, c_attack), policy.coarse_points)
    else:
        grid = np.asarray(sorted(float(g) for g in gammas), dtype=float)
        if grid.size < 3:
            raise ValidationError(
                f"the planner needs >= 3 coarse gammas, got {grid.size}"
            )
        repeated = grid[1:][np.diff(grid) == 0.0]
        if repeated.size:
            raise ValidationError(
                f"the planner's gammas must be distinct; {float(repeated[0])} "
                f"repeats"
            )
        if grid[-1] > c_attack + 1e-12:
            raise ValidationError(
                f"gamma {grid[-1]} exceeds C_attack={c_attack:.3f}"
            )
    lo, hi = float(grid[0]), float(grid[-1])

    def _train(gamma: float) -> PulseTrain:
        period = PulseTrain.period_from_gamma(
            gamma=gamma, rate_bps=rate_bps, extent=extent,
            bottleneck_bps=bottleneck,
        )
        return PulseTrain.from_gamma(
            gamma=gamma, rate_bps=rate_bps, extent=extent,
            bottleneck_bps=bottleneck,
            n_pulses=int(math.ceil(window / period)) + 2,
        )

    def _cell(gamma: Optional[float], seed_index: int) -> Cell:
        spec = dataclasses.replace(platform, seed=platform.seed + seed_index)
        return Cell(
            platform=spec, warmup=warmup, window=window,
            train=None if gamma is None else _train(gamma),
            early_exit=policy.early_exit,
        )

    def _fluid_cell(gamma: Optional[float]) -> Cell:
        return Cell(
            platform=platform, warmup=warmup, window=window,
            train=None if gamma is None else _train(gamma),
            backend="fluid", fluid_max_step=policy.fluid_max_step,
        )

    def _fluid_localize() -> Tuple[float, int]:
        """Find the γ* neighborhood on the fluid backend (two stages)."""
        full = np.linspace(lo, hi, policy.fluid_grid_points)
        stage = list(range(0, policy.fluid_grid_points, 2))
        cells = [_fluid_cell(None)]
        cells.extend(_fluid_cell(float(full[i])) for i in stage)
        results = runner.measure_many(cells)
        base_rate = goodput_rate(cells[0], results[0])
        if base_rate <= 0:
            raise ValidationError(
                "fluid baseline goodput is zero; the measurement window "
                "is too short"
            )
        n_cells = len(cells)

        def _gain(cell, result, g):
            return ((1.0 - goodput_rate(cell, result) / base_rate)
                    * (1.0 - g) ** kappa)

        gains = {i: _gain(cell, result, float(full[i]))
                 for i, cell, result in zip(stage, cells[1:], results[1:])}
        # Stage 2: fill in the full-resolution neighbors of the coarse
        # argmax -- the true grid peak cannot sit outside them, so this
        # recovers the full grid's localization with about half its
        # cells.
        peak_i = max(gains, key=gains.get)
        fill = [i for i in (peak_i - 1, peak_i + 1)
                if 0 <= i < policy.fluid_grid_points and i not in gains]
        if fill:
            cells = [_fluid_cell(float(full[i])) for i in fill]
            results = runner.measure_many(cells)
            gains.update(
                (i, _gain(cell, result, float(full[i])))
                for i, cell, result in zip(fill, cells, results)
            )
            n_cells += len(cells)
        peak_i = max(gains, key=gains.get)
        return float(full[peak_i]), n_cells

    fluid_gamma_star: Optional[float] = None
    fluid_cells = 0
    # The epsilon keeps float noise (0.4 - 0.3 > 0.1) from triggering a
    # pre-pass on a grid already too narrow to shrink.
    if hi - lo > 2.0 * policy.gamma_resolution + 1e-9:
        fluid_gamma_star, fluid_cells = _fluid_localize()
        # Re-aim the packet-level coarse grid at the fluid peak's
        # neighborhood: confirm points spaced one resolution step apart,
        # clamped so the whole grid stays inside [lo, hi].  Seed
        # allocation and peak confirmation operate on this narrow grid;
        # the dense-grid savings baseline keeps the original [lo, hi]
        # span.
        half_span = (policy.fluid_confirm_points - 1) / 2.0
        center = min(max(fluid_gamma_star,
                         lo + half_span * policy.gamma_resolution),
                     hi - half_span * policy.gamma_resolution)
        grid = center + policy.gamma_resolution * (
            np.arange(policy.fluid_confirm_points) - half_span
        )

    # γ -> per-replica samples, in seed order; seed_index -> baseline rate.
    gains: Dict[float, List[float]] = {}
    degradations: Dict[float, List[float]] = {}
    baseline_rates: Dict[int, float] = {}

    def _measure(requests: Sequence[Tuple[float, int]]) -> None:
        """Resolve (γ, seed_index) measurements in one runner batch."""
        cells: List[Cell] = []
        slots: List[Tuple[str, Any]] = []
        for idx in sorted({i for _g, i in requests
                           if i not in baseline_rates}):
            cells.append(_cell(None, idx))
            slots.append(("baseline", idx))
        for gamma, idx in requests:
            cells.append(_cell(gamma, idx))
            slots.append(("attack", (gamma, idx)))
        results = runner.measure_many(cells)
        for (kind, ref), cell, result in zip(slots, cells, results):
            if kind != "baseline":
                continue
            rate = goodput_rate(cell, result)
            if rate <= 0:
                raise ValidationError(
                    "baseline goodput is zero; the measurement window "
                    "is too short"
                )
            baseline_rates[ref] = rate
        for (kind, ref), cell, result in zip(slots, cells, results):
            if kind != "attack":
                continue
            gamma, idx = ref
            degradation = 1.0 - goodput_rate(cell, result) / baseline_rates[idx]
            degradations.setdefault(gamma, []).append(degradation)
            gains.setdefault(gamma, []).append(
                degradation * (1.0 - gamma) ** kappa
            )

    def _needs_more(gamma: float) -> bool:
        samples = gains.get(gamma, ())
        if len(samples) < policy.min_seeds:
            return True
        if len(samples) >= policy.max_seeds or len(samples) < 2:
            # One replica carries no variance estimate; escalation past
            # a single seed is the peak-confirmation stage's call.
            return False
        return not ci_stable(
            samples, rel_tol=policy.ci_rel_tol,
            confidence=policy.confidence, scale_floor=policy.gain_floor,
        )

    def _settle(active: Sequence[float]) -> None:
        """Add one replica per still-unstable γ until all settle."""
        while True:
            requests = [(g, len(gains.get(g, ())))
                        for g in active if _needs_more(g)]
            if not requests:
                return
            _measure(requests)

    def _mean_gain(gamma: float) -> float:
        return float(np.mean(gains[gamma]))

    _settle([float(g) for g in grid])

    # Confirm the peak with enough replicas for a finite, stable CI (the
    # argmax can move as replicas sharpen the estimates, so re-check).
    confirm = min(max(policy.confirm_peak_seeds, policy.min_seeds),
                  policy.max_seeds)
    while True:
        sampled = sorted(gains)
        peak = max(sampled, key=_mean_gain)
        n = len(gains[peak])
        if n < confirm or (n < policy.max_seeds and not ci_stable(
            gains[peak], rel_tol=policy.ci_rel_tol,
            confidence=policy.confidence, scale_floor=policy.gain_floor,
        )):
            _measure([(peak, n)])
            continue
        break

    sampled = sorted(gains)
    dense_cells = int(math.floor((hi - lo) / policy.gamma_resolution
                                 + 1e-9)) + 1
    cells_saved = max(0, dense_cells - len(sampled))
    seeds_saved = sum(policy.max_seeds - len(v) for v in gains.values())
    stats = runner.stats
    stats.planner_cells_saved += cells_saved
    stats.planner_seeds_saved += seeds_saved

    from repro.experiments.base import GainPoint

    curve_points = [
        GainPoint(
            gamma=g,
            period=_train(g).period,
            analytic_gain=attack_gain(g, c_psi_value, kappa),
            measured_gain=_mean_gain(g),
            measured_degradation=float(np.mean(degradations[g])),
            is_shrew=False,
        )
        for g in sampled
    ]
    curve = build_classified_curve(
        curve_points,
        label=(label or f"R={rate_bps / 1e6:.0f}M "
                        f"T_extent={extent * 1e3:.0f}ms [fast]"),
        rate_bps=rate_bps,
        extent=extent,
        kappa=kappa,
        c_psi=c_psi_value,
        min_rto=platform.min_rto,
        exclude_shrew=exclude_shrew_from_classification,
    )

    planned_points = tuple(
        PlannedPoint(
            gamma=g,
            mean_gain=_mean_gain(g),
            mean_degradation=float(np.mean(degradations[g])),
            ci_halfwidth=mean_ci_halfwidth(gains[g], policy.confidence),
            n_seeds=len(gains[g]),
        )
        for g in sampled
    )
    peak = max(sampled, key=_mean_gain)
    return PlannedSweep(
        curve=curve,
        gamma_star=peak,
        gain_at_peak=_mean_gain(peak),
        ci_at_peak=mean_ci_halfwidth(gains[peak], policy.confidence),
        seeds_at_peak=len(gains[peak]),
        gammas_sampled=len(sampled),
        cells_saved=cells_saved,
        seeds_saved=seeds_saved,
        points=planned_points,
        fluid_gamma_star=fluid_gamma_star,
        fluid_cells=fluid_cells,
    )
