"""Shared experiment machinery: platforms, gain sweeps, and renderers.

Every gain figure in the paper (Figs. 6-9, 10, 12) is the same
measurement repeated on different scenarios: sweep the normalized attack
rate γ (by varying T_space at fixed R_attack and T_extent), measure the
TCP throughput with and without the attack, and compare the measured
attack gain ``G = Γ_measured · (1 − γ)^κ`` against the analytical curve
``(1 − C_ψ/γ)(1 − γ)^κ``.

:func:`DumbbellPlatform` and :func:`TestbedPlatform` describe the two
validation environments as :class:`~repro.runner.PlatformSpec` values
with the paper's stacks; :func:`run_gain_sweep` does the paired
baseline/attack measurement per γ.

Experiment scale: by default sweeps run at a reduced horizon so the
whole benchmark suite completes in minutes; set the environment variable
``REPRO_FULL=1`` for paper-scale runs (longer windows, more γ samples,
all flow-count panels).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.attack import PulseTrain
from repro.core.classify import GainComparison, classify_gain
from repro.core.gain import attack_gain
from repro.core.shrew import flag_shrew_points, ShrewPoint
from repro.core.throughput import c_psi
from repro.runner import Cell, ExperimentRunner, PlatformSpec, get_default_runner
from repro.sim.tcp import TCPConfig, TCPVariant
from repro.util.env import env_flag
from repro.util.errors import ValidationError
from repro.util.validate import check_positive

__all__ = [
    "full_scale",
    "DumbbellPlatform",
    "TestbedPlatform",
    "GainPoint",
    "GainCurve",
    "GainSweepPlan",
    "build_classified_curve",
    "plan_gain_sweep",
    "run_gain_sweep",
    "run_gain_sweeps",
    "render_curve_table",
    "default_gammas",
]


def full_scale() -> bool:
    """True when ``REPRO_FULL=1``: run paper-scale sweeps."""
    return env_flag("REPRO_FULL")


def default_gammas(n: Optional[int] = None) -> np.ndarray:
    """The swept γ grid: 9 points at full scale, 5 when scaled down."""
    if n is None:
        n = 9 if full_scale() else 5
    return np.linspace(0.1, 0.9, n)


def _dumbbell_tcp_config() -> TCPConfig:
    """The ns-2-style stack used in the dumbbell experiments.

    NewReno (as the paper states), delayed ACKs d = 2 (the value the
    paper's analysis plugs in), and ns-2's 1 s minimum RTO -- the value
    that places the Fig.-10 shrew points at 1000/n ms.
    """
    return TCPConfig(variant=TCPVariant.NEWRENO, delayed_ack=2, min_rto=1.0)


def DumbbellPlatform(*, n_flows: int = 15, queue: str = "red",
                     seed: int = 1,
                     tcp: Optional[TCPConfig] = None) -> PlatformSpec:
    """The ns-2-style dumbbell environment (Figs. 6-10)."""
    return PlatformSpec(
        kind="dumbbell", n_flows=n_flows, seed=seed, queue=queue,
        tcp=tcp if tcp is not None else _dumbbell_tcp_config(),
    )


def TestbedPlatform(*, n_flows: int = 10, seed: int = 7) -> PlatformSpec:
    """The Dummynet test-bed environment (Fig. 12): RED pipe, Linux stack."""
    return PlatformSpec(kind="testbed", n_flows=n_flows, seed=seed)


# ----------------------------------------------------------------------
# gain sweeps
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class GainPoint:
    """One swept γ sample.

    Attributes:
        gamma: the normalized average attack rate.
        period: the realized attack period T_AIMD, seconds.
        analytic_gain: the model's G_attack at this γ.
        measured_gain: Γ_measured · (1 − γ)^κ from the paired runs.
        measured_degradation: Γ_measured = 1 − Ψ_attack/Ψ_normal.
        is_shrew: whether T_AIMD sits on a minRTO harmonic (§4.1.3).
    """

    gamma: float
    period: float
    analytic_gain: float
    measured_gain: float
    measured_degradation: float
    is_shrew: bool


@dataclasses.dataclass(frozen=True)
class GainCurve:
    """A full swept curve plus its §4.1.1 classification."""

    label: str
    rate_bps: float
    extent: float
    kappa: float
    c_psi: float
    points: List[GainPoint]
    comparison: GainComparison

    def gammas(self) -> np.ndarray:
        return np.array([p.gamma for p in self.points])

    def analytic(self) -> np.ndarray:
        return np.array([p.analytic_gain for p in self.points])

    def measured(self) -> np.ndarray:
        return np.array([p.measured_gain for p in self.points])

    def peak_measured(self) -> GainPoint:
        """The sample with the largest measured gain."""
        return max(self.points, key=lambda p: p.measured_gain)

    def peak_analytic(self) -> GainPoint:
        """The sample with the largest analytical gain."""
        return max(self.points, key=lambda p: p.analytic_gain)

    def plot(self, *, height: int = 12, width: int = 56) -> str:
        """An ASCII scatter of measured vs analytic gain over γ.

        Analytic values are clamped at 0 for display (the model's domain
        is γ > C_ψ), matching how the paper's figures draw the lines.
        """
        from repro.analysis.plot import scatter_grid

        return scatter_grid(
            self.gammas(),
            [self.measured(), np.clip(self.analytic(), 0.0, None)],
            labels=["measured", "analytic"],
            height=height,
            width=width,
            y_min=0.0,
        )


@dataclasses.dataclass(frozen=True)
class GainSweepPlan:
    """A fully resolved sweep: the cells to measure and how to read them.

    Produced by :func:`plan_gain_sweep`; consumed (possibly many at a
    time) by :func:`run_gain_sweeps`, which fans every plan's cells out
    through the experiment runner in one batch.
    """

    platform_spec: PlatformSpec
    rate_bps: float
    extent: float
    gammas: tuple
    trains: tuple  #: one PulseTrain per γ, sized to cover the window
    kappa: float
    warmup: float
    window: float
    label: str
    exclude_shrew: bool
    c_psi: float
    min_rto: float

    def cells(self) -> List[Cell]:
        """The baseline cell followed by one attack cell per γ."""
        baseline = Cell(
            platform=self.platform_spec, train=None,
            warmup=self.warmup, window=self.window,
        )
        return [baseline] + [
            Cell(platform=self.platform_spec, train=train,
                 warmup=self.warmup, window=self.window)
            for train in self.trains
        ]

    def assemble(self, baseline: float,
                 attacked: Sequence[float]) -> GainCurve:
        """Turn measured goodputs back into a classified curve."""
        if baseline <= 0:
            raise ValidationError(
                "baseline goodput is zero; the measurement window is too short"
            )
        points: List[GainPoint] = []
        for gamma, train, goodput in zip(self.gammas, self.trains, attacked):
            degradation_measured = 1.0 - goodput / baseline
            points.append(GainPoint(
                gamma=gamma,
                period=train.period,
                analytic_gain=attack_gain(gamma, self.c_psi, self.kappa),
                measured_gain=(
                    degradation_measured * (1.0 - gamma) ** self.kappa
                ),
                measured_degradation=degradation_measured,
                is_shrew=False,  # filled in by build_classified_curve
            ))
        return build_classified_curve(
            points,
            label=self.label,
            rate_bps=self.rate_bps,
            extent=self.extent,
            kappa=self.kappa,
            c_psi=self.c_psi,
            min_rto=self.min_rto,
            exclude_shrew=self.exclude_shrew,
        )


def build_classified_curve(
    points: Sequence[GainPoint],
    *,
    label: str,
    rate_bps: float,
    extent: float,
    kappa: float,
    c_psi: float,
    min_rto: float,
    exclude_shrew: bool = True,
) -> GainCurve:
    """Flag shrew points and classify a swept curve (§4.1.1-4.1.3).

    The shared back half of every sweep: exact dense sweeps
    (:meth:`GainSweepPlan.assemble`) and adaptive planner sweeps
    (:func:`repro.runner.planner.run_planned_sweep`) both feed their
    measured points through this, so classification and shrew handling
    can never drift between the two paths.
    """
    shrew: List[ShrewPoint] = flag_shrew_points(
        [p.period for p in points], min_rto,
    )
    shrew_indices = {sp.index for sp in shrew}
    points = [
        dataclasses.replace(point, is_shrew=(index in shrew_indices))
        for index, point in enumerate(points)
    ]

    valid = [p for p in points if p.gamma > c_psi]
    if exclude_shrew:
        kept = [p for p in valid if not p.is_shrew] or valid or points
    else:
        kept = valid or points
    comparison = classify_gain(
        [p.measured_gain for p in kept],
        [p.analytic_gain for p in kept],
    )
    return GainCurve(
        label=label,
        rate_bps=rate_bps,
        extent=extent,
        kappa=kappa,
        c_psi=c_psi,
        points=points,
        comparison=comparison,
    )


def plan_gain_sweep(
    platform: PlatformSpec,
    *,
    rate_bps: float,
    extent: float,
    gammas: Optional[Sequence[float]] = None,
    kappa: float = 1.0,
    warmup: Optional[float] = None,
    window: Optional[float] = None,
    label: str = "",
    exclude_shrew_from_classification: bool = True,
) -> GainSweepPlan:
    """Resolve a sweep's defaults and pre-build its per-γ pulse trains.

    The attack period of each γ comes from
    :meth:`PulseTrain.period_from_gamma` -- the same (space-clamped)
    inversion :meth:`PulseTrain.from_gamma` applies -- so the pulse
    count sized to cover the window can never drift from the train
    actually built.
    """
    check_positive("rate_bps", rate_bps)
    check_positive("extent", extent)
    if gammas is None:
        gammas = default_gammas()
    if warmup is None:
        warmup = 10.0 if full_scale() else 6.0
    if window is None:
        window = 50.0 if full_scale() else 20.0

    victims = platform.victim_population()
    bottleneck = platform.bottleneck_bps
    c_psi_value = c_psi(
        victims, extent=extent, rate_bps=rate_bps, bottleneck_bps=bottleneck
    )

    trains: List[PulseTrain] = []
    for gamma in gammas:
        period = PulseTrain.period_from_gamma(
            gamma=float(gamma), rate_bps=rate_bps, extent=extent,
            bottleneck_bps=bottleneck,
        )
        trains.append(PulseTrain.from_gamma(
            gamma=float(gamma), rate_bps=rate_bps, extent=extent,
            bottleneck_bps=bottleneck,
            n_pulses=int(math.ceil(window / period)) + 2,
        ))

    return GainSweepPlan(
        platform_spec=platform,
        rate_bps=rate_bps,
        extent=extent,
        gammas=tuple(float(g) for g in gammas),
        trains=tuple(trains),
        kappa=kappa,
        warmup=warmup,
        window=window,
        label=label or f"R={rate_bps / 1e6:.0f}M T_extent={extent * 1e3:.0f}ms",
        exclude_shrew=exclude_shrew_from_classification,
        c_psi=c_psi_value,
        min_rto=platform.min_rto,
    )


def run_gain_sweeps(
    plans: Sequence[GainSweepPlan],
    *,
    runner: Optional[ExperimentRunner] = None,
) -> List[GainCurve]:
    """Measure many sweeps' cells in one runner batch.

    This is how multi-curve figures parallelize: the union of every
    plan's (baseline + per-γ) cells is handed to the runner at once, so
    with ``jobs > 1`` the cells of *different* curves overlap too, and
    cells shared between plans (e.g. a common baseline) are measured
    exactly once.
    """
    runner = runner if runner is not None else get_default_runner()
    cells: List[Cell] = []
    bounds: List[tuple] = []
    for plan in plans:
        start = len(cells)
        cells.extend(plan.cells())
        bounds.append((start, len(cells)))
    results = runner.measure_many(cells)
    return [
        plan.assemble(
            results[start].goodput_bytes,
            [r.goodput_bytes for r in results[start + 1:end]],
        )
        for plan, (start, end) in zip(plans, bounds)
    ]


def run_gain_sweep(
    platform: PlatformSpec,
    *,
    rate_bps: float,
    extent: float,
    gammas: Optional[Sequence[float]] = None,
    kappa: float = 1.0,
    warmup: Optional[float] = None,
    window: Optional[float] = None,
    label: str = "",
    exclude_shrew_from_classification: bool = True,
    runner: Optional[ExperimentRunner] = None,
) -> GainCurve:
    """Sweep γ on *platform* and compare measured vs analytical gain.

    For each γ the attack period follows from Eq. (4); the measured gain
    uses a paired (same-seed) no-attack baseline.  Shrew points
    (T_AIMD ≈ minRTO/n) are flagged, and -- following the paper's own
    practice in §4.1.2 -- excluded from the normal/under/over-gain
    classification unless *exclude_shrew_from_classification* is False.
    Samples with γ ≤ C_ψ are likewise excluded from classification: the
    model's Γ ∈ (0, 1) domain (Eq. 12) requires C_ψ < γ, so the analytic
    prediction is undefined (negative) there.

    Measurements route through *runner* (default: the process-wide
    runner), which parallelizes across γ when configured with
    ``jobs > 1`` and reuses memoized/cached cells.
    """
    plan = plan_gain_sweep(
        platform,
        rate_bps=rate_bps,
        extent=extent,
        gammas=gammas,
        kappa=kappa,
        warmup=warmup,
        window=window,
        label=label,
        exclude_shrew_from_classification=exclude_shrew_from_classification,
    )
    return run_gain_sweeps([plan], runner=runner)[0]


def render_curve_table(curves: Sequence[GainCurve], title: str = "") -> str:
    """Render swept curves as the rows the paper's figures plot."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for curve in curves:
        lines.append(
            f"\n{curve.label}  (C_psi={curve.c_psi:.3f}, kappa={curve.kappa:g}, "
            f"classified: {curve.comparison.regime.value}, "
            f"mean discrepancy {curve.comparison.mean_discrepancy:+.3f})"
        )
        lines.append(
            f"{'gamma':>7} {'T_AIMD(ms)':>11} {'G_analytic':>11} "
            f"{'G_measured':>11} {'Gamma_meas':>11} {'shrew':>6}"
        )
        for p in curve.points:
            lines.append(
                f"{p.gamma:7.2f} {p.period * 1e3:11.0f} {p.analytic_gain:11.3f} "
                f"{p.measured_gain:11.3f} {p.measured_degradation:11.3f} "
                f"{'*' if p.is_shrew else '':>6}"
            )
    return "\n".join(lines)
