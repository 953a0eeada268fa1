"""Ablation: victim TCP variant under the same PDoS attack.

The paper's analysis is variant-agnostic AIMD; its experiments use
NewReno.  This ablation asks the defender-relevant question the paper
leaves open: does a better loss-recovery stack (SACK) blunt the attack,
and how much worse off are older stacks (Reno, Tahoe)?

Each variant's victims face the identical attack sweep; the per-variant
measured degradation is compared.  Expectation: Tahoe ≥ Reno ≥ NewReno ≥
SACK in damage -- SACK repairs a pulse's scattered losses in about one
RTT, while Tahoe pays a full slow-start restart per pulse.  The AIMD
analysis applies to all of them (same a, b), which is exactly why the
attack remains effective even against SACK.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.experiments.base import (
    DumbbellPlatform,
    GainCurve,
    _dumbbell_tcp_config,
    default_gammas,
    plan_gain_sweep,
    render_curve_table,
    run_gain_sweeps,
)
from repro.sim.tcp import TCPVariant
from repro.util.units import mbps, ms

__all__ = ["VictimAblation", "run_victim_ablation"]


@dataclasses.dataclass(frozen=True)
class VictimAblation:
    """Per-variant sweeps of the same attack."""

    curves: Dict[TCPVariant, GainCurve]

    def mean_degradation(self, variant: TCPVariant) -> float:
        curve = self.curves[variant]
        return float(np.mean([p.measured_degradation for p in curve.points]))

    def render(self) -> str:
        parts = [render_curve_table(
            list(self.curves.values()),
            title="Ablation -- victim TCP variant under the same attack",
        )]
        ordering = sorted(
            self.curves,
            key=self.mean_degradation,
            reverse=True,
        )
        summary = " > ".join(
            f"{variant.value} ({self.mean_degradation(variant):.3f})"
            for variant in ordering
        )
        parts.append(f"  mean degradation by variant: {summary}")
        parts.append(
            "  (the attack stays effective against every variant -- its "
            "leverage is the shared AIMD law, not any recovery detail)"
        )
        return "\n".join(parts)


def run_victim_ablation(
    *,
    rate_bps: float = mbps(30),
    extent: float = ms(100),
    n_flows: int = 15,
    gammas=None,
    variants=(TCPVariant.TAHOE, TCPVariant.RENO, TCPVariant.NEWRENO,
              TCPVariant.SACK),
) -> VictimAblation:
    """Sweep the same attack against each victim variant (same seed)."""
    if gammas is None:
        gammas = default_gammas()
    plans = [
        plan_gain_sweep(
            DumbbellPlatform(
                n_flows=n_flows, seed=700,
                tcp=dataclasses.replace(_dumbbell_tcp_config(),
                                        variant=variant),
            ),
            rate_bps=rate_bps, extent=extent, gammas=gammas,
            label=variant.value,
        )
        for variant in variants
    ]
    return VictimAblation(curves=dict(zip(variants, run_gain_sweeps(plans))))
