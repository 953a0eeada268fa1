"""Extension experiment: does γ* survive on multi-bottleneck topologies?

The paper's analysis (and Figs. 6-9) normalizes the attack by a single
dumbbell bottleneck.  Real attack paths cross chains of constrained
links carrying unrelated cross traffic -- the parking-lot topology of
the buffer-sizing literature (arXiv cs/0703063).  This experiment
sweeps the same normalized attack rate γ on a panel of parking-lot
scenarios (:class:`~repro.sim.topology.ParkingLotConfig`) and asks
whether the maximization point γ* -- the heart of the paper's
optimization claim -- survives when the attacked link is *not* the only
constraint:

* ``single`` -- a one-segment chain with no cross traffic: the
  dumbbell question re-asked on the graph-topology machinery.  Its γ*
  must agree with the Fig.-6 dumbbell reference (same R_attack,
  T_extent, and victim count) to within one γ grid step.
* ``cross`` -- two equal-rate segments with per-segment cross
  traffic; the pulses hit segment 0 only, so the victims' damage mixes
  the attacked queue's losses with ambient congestion behind it.
* ``span`` -- the same chain, but the attack path crosses *both*
  segments, loading two AQMs with every pulse.

γ is always normalized by the tightest *attacked* segment
(:meth:`~repro.sim.topology.ParkingLotConfig.contested_rate_bps`), so
the sweeps stay comparable across panels.

Scale: honours ``REPRO_FULL=1`` like every driver; additionally
``REPRO_SMOKE=1`` shrinks flows, windows, and the γ grid to CI-smoke
size (seconds, not minutes).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.base import (
    DumbbellPlatform,
    GainCurve,
    _dumbbell_tcp_config,
    default_gammas,
    full_scale,
    plan_gain_sweep,
    render_curve_table,
    run_gain_sweeps,
)
from repro.runner import PlatformSpec
from repro.sim.tcp import TCPConfig
from repro.util.env import env_flag
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms

__all__ = [
    "ParkingLotPlatform",
    "MultiBottleneckResult",
    "run_multi_bottleneck",
    "smoke_scale",
]


def smoke_scale() -> bool:
    """True when ``REPRO_SMOKE=1``: CI-smoke parameters (seconds)."""
    return env_flag("REPRO_SMOKE")


def ParkingLotPlatform(*, n_flows: int = 8, queue: str = "red",
                       seed: int = 1, tcp: Optional[TCPConfig] = None,
                       **config_fields) -> PlatformSpec:
    """The N-bottleneck parking-lot environment, sweep-ready.

    *config_fields* are further
    :class:`~repro.sim.topology.ParkingLotConfig` fields.  The victims
    are the *long* flows (the ones crossing every segment), and γ
    normalizes by the tightest attacked segment.
    """
    spec = PlatformSpec(
        kind="parking_lot", n_flows=n_flows, seed=seed, queue=queue,
        tcp=tcp if tcp is not None else _dumbbell_tcp_config(),
        extra=tuple(sorted(config_fields.items())) or None,
    )
    spec.to_config()  # validates eagerly (segment counts, attack span, RTTs)
    return spec


@dataclasses.dataclass(frozen=True)
class MultiBottleneckResult:
    """The experiment's panel of classified curves plus the γ* check.

    Attributes:
        curves: one classified gain curve per topology key.
        reference: the Fig.-6-style dumbbell sweep the ``single``
            panel's γ* is checked against.
        gamma_step: the swept grid's spacing (the agreement tolerance).
        rate_bps / extent: the attack parameters shared by all panels.
    """

    curves: Dict[str, GainCurve]
    reference: GainCurve
    gamma_step: float
    rate_bps: float
    extent: float

    def gamma_star(self, key: str) -> float:
        """The measured maximization point of one topology panel."""
        return self.curves[key].peak_measured().gamma

    def reference_gamma_star(self) -> float:
        return self.reference.peak_measured().gamma

    def single_matches_reference(self) -> bool:
        """Whether the single-bottleneck γ* reproduces the dumbbell's.

        Agreement within one grid step: both sweeps sample the same γ
        grid, so the tightest claim a discrete sweep supports is that
        the peaks land on the same or adjacent samples.
        """
        delta = abs(self.gamma_star("single") - self.reference_gamma_star())
        return delta <= self.gamma_step + 1e-9

    def render(self) -> str:
        parts = [render_curve_table(
            list(self.curves.values()),
            title=(
                f"Multi-bottleneck gain panel -- R_attack="
                f"{self.rate_bps / 1e6:.0f} Mb/s, T_extent="
                f"{self.extent * 1e3:.0f} ms "
                f"(gamma normalized by the tightest attacked segment)"
            ),
        )]
        lines = ["maximization points (gamma*):"]
        for key, curve in self.curves.items():
            peak = curve.peak_measured()
            lines.append(
                f"  {key:>8}: gamma*={peak.gamma:.2f} "
                f"(G={peak.measured_gain:.3f}, "
                f"{curve.comparison.regime.value})"
            )
        ref_peak = self.reference.peak_measured()
        lines.append(
            f"  dumbbell reference: gamma*={ref_peak.gamma:.2f} "
            f"(G={ref_peak.measured_gain:.3f})"
        )
        verdict = "agrees" if self.single_matches_reference() else "DIVERGES"
        lines.append(
            f"  single-bottleneck gamma* {verdict} with the dumbbell "
            f"reference (tolerance: one grid step = {self.gamma_step:.2f})"
        )
        parts.append("\n".join(lines))
        return "\n\n".join(parts)


def _scale() -> dict:
    """Resolved per-scale parameters (smoke < default < full)."""
    if smoke_scale():
        return dict(long_flows=4, cross_flows=2, warmup=3.0, window=8.0,
                    gammas=np.linspace(0.2, 0.8, 3))
    if full_scale():
        return dict(long_flows=15, cross_flows=8, warmup=10.0, window=50.0,
                    gammas=default_gammas())
    return dict(long_flows=8, cross_flows=4, warmup=6.0, window=20.0,
                gammas=default_gammas())


def run_multi_bottleneck(
    *,
    rate_bps: float = mbps(25),
    extent: float = ms(75),
    gammas: Optional[Sequence[float]] = None,
    seed: int = 11,
) -> MultiBottleneckResult:
    """Sweep γ on the parking-lot panel and check γ* against Fig. 6.

    All panels share R_attack = 25 Mb/s and T_extent = 75 ms (the
    middle series of Fig. 6) and a 15 Mb/s tightest-segment rate, so
    every curve is normalized identically and the ``single`` panel is
    directly comparable to the dumbbell reference.
    """
    scale = _scale()
    if gammas is None:
        gammas = scale["gammas"]
    gammas = np.asarray(list(gammas), dtype=float)
    if len(gammas) < 2:
        raise ValidationError("the sweep needs at least 2 gamma samples")
    long_flows = scale["long_flows"]
    cross = scale["cross_flows"]
    warmup, window = scale["warmup"], scale["window"]

    panels: List[Tuple[str, str, PlatformSpec]] = [
        # The dumbbell question re-asked on the chain machinery.
        ("single", "1 segment, no cross traffic", ParkingLotPlatform(
            n_flows=long_flows, seed=seed,
            n_segments=1, cross_flows=0,
        )),
        # Cross traffic behind the attacked segment.
        ("cross", "2 segments, attack on segment 0", ParkingLotPlatform(
            n_flows=long_flows, seed=seed,
            n_segments=2, cross_flows=cross, attack_segments=(0,),
        )),
        # The attack path loads both AQMs.
        ("span", "2 segments, attack spans both", ParkingLotPlatform(
            n_flows=long_flows, seed=seed,
            n_segments=2, cross_flows=cross, attack_segments=(0, 1),
        )),
    ]
    reference = DumbbellPlatform(n_flows=long_flows, seed=seed)

    plans = [
        plan_gain_sweep(
            platform,
            rate_bps=rate_bps,
            extent=extent,
            gammas=gammas,
            warmup=warmup,
            window=window,
            label=f"{key}: {detail}",
        )
        for key, detail, platform in panels
    ]
    plans.append(plan_gain_sweep(
        reference,
        rate_bps=rate_bps,
        extent=extent,
        gammas=gammas,
        warmup=warmup,
        window=window,
        label="dumbbell reference (Fig. 6 scenario)",
    ))
    curves = run_gain_sweeps(plans)

    return MultiBottleneckResult(
        curves={key: curve for (key, _, _), curve in zip(panels, curves)},
        reference=curves[-1],
        gamma_step=float(gammas[1] - gammas[0]),
        rate_bps=rate_bps,
        extent=extent,
    )
