"""Multi-seed replication: mean gains with confidence intervals.

Single simulation runs are deterministic but seed-dependent (RED's
coin-flips, flow start jitter).  For publication-grade numbers the
sweep is replicated across seeds and each γ sample is reported as
``mean ± t-based 95% CI`` -- the experimental rigor a reviewer would ask
of the paper's Figs. 6-9 symbols.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import mean_ci_halfwidth
from repro.experiments.base import (
    DumbbellPlatform,
    GainCurve,
    default_gammas,
    run_gain_sweep,
)
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms

__all__ = ["ReplicatedPoint", "ReplicatedCurve", "replicate_gain_sweep"]


@dataclasses.dataclass(frozen=True)
class ReplicatedPoint:
    """One γ sample aggregated across seeds.

    Attributes:
        gamma: the swept normalized rate.
        analytic_gain: the (seed-independent) model prediction.
        mean_gain / std_gain: measured-gain statistics across seeds.
        ci_low / ci_high: t-based 95% confidence interval of the mean.
        n_seeds: replication count.
    """

    gamma: float
    analytic_gain: float
    mean_gain: float
    std_gain: float
    ci_low: float
    ci_high: float
    n_seeds: int

    def ci_contains(self, value: float) -> bool:
        """Whether *value* falls inside the 95% CI."""
        return self.ci_low <= value <= self.ci_high


@dataclasses.dataclass(frozen=True)
class ReplicatedCurve:
    """A gain curve replicated across seeds."""

    label: str
    points: List[ReplicatedPoint]
    curves: List[GainCurve]   #: the per-seed raw curves

    def render(self) -> str:
        lines = [
            f"Replicated sweep: {self.label} "
            f"({self.points[0].n_seeds} seeds, 95% CI)",
            f"{'gamma':>7} {'analytic':>9} {'mean':>8} {'std':>7} "
            f"{'95% CI':>19}",
        ]
        for p in self.points:
            lines.append(
                f"{p.gamma:7.2f} {p.analytic_gain:9.3f} {p.mean_gain:8.3f} "
                f"{p.std_gain:7.3f} [{p.ci_low:8.3f},{p.ci_high:8.3f}]"
            )
        return "\n".join(lines)

    def max_ci_width(self) -> float:
        """The widest confidence interval across the sweep."""
        return max(p.ci_high - p.ci_low for p in self.points)


def replicate_gain_sweep(
    *,
    seeds: Sequence[int] = (11, 23, 47),
    platform_factory: Optional[Callable[[int], DumbbellPlatform]] = None,
    rate_bps: float = mbps(30),
    extent: float = ms(100),
    gammas=None,
    kappa: float = 1.0,
    confidence: float = 0.95,
    **sweep_kwargs,
) -> ReplicatedCurve:
    """Run :func:`~repro.experiments.base.run_gain_sweep` across seeds.

    Args:
        seeds: the replication seeds; at least two.
        platform_factory: ``seed -> platform``; defaults to a 15-flow
            dumbbell.
        confidence: CI level for the t-interval.
        Remaining arguments are forwarded to ``run_gain_sweep``.
    """
    if len(seeds) < 2:
        raise ValidationError("replication needs at least two seeds")
    if not 0 < confidence < 1:
        raise ValidationError(f"confidence must be in (0, 1), got {confidence}")
    if platform_factory is None:
        platform_factory = lambda seed: DumbbellPlatform(n_flows=15, seed=seed)
    if gammas is None:
        gammas = default_gammas()

    curves = [
        run_gain_sweep(
            platform_factory(seed),
            rate_bps=rate_bps, extent=extent, gammas=gammas, kappa=kappa,
            label=f"seed={seed}", **sweep_kwargs,
        )
        for seed in seeds
    ]

    points: List[ReplicatedPoint] = []
    n = len(seeds)
    for index, gamma in enumerate(gammas):
        samples = np.array([c.points[index].measured_gain for c in curves])
        mean = float(samples.mean())
        std = float(samples.std(ddof=1))
        half_width = mean_ci_halfwidth(samples, confidence)
        points.append(ReplicatedPoint(
            gamma=float(gamma),
            analytic_gain=curves[0].points[index].analytic_gain,
            mean_gain=mean,
            std_gain=std,
            ci_low=mean - half_width,
            ci_high=mean + half_width,
            n_seeds=n,
        ))
    label = (f"R={rate_bps / 1e6:.0f}M T_extent={extent * 1e3:.0f}ms "
             f"kappa={kappa:g}")
    return ReplicatedCurve(label=label, points=points, curves=curves)
