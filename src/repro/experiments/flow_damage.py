"""Per-flow damage distribution: who suffers, by RTT.

Section 2.3 observes that "some TCP flows may survive the attack without
experiencing any packet loss", and §4.1.3 that large-RTT flows can
survive timeout-based attacks.  This experiment measures the per-flow
degradation across the RTT spread, computes Jain's fairness index before
and during the attack, and annotates each flow with the timeout-aware
model's regime classification.

Note that per-flow *relative* degradation does not sort neatly by
regime: short-RTT flows start from the largest baseline share, so even
in the fast-recovery regime they lose the most in relative terms once
the attack squeezes every flow toward a similar floor.  The report
therefore presents both the absolute before/after volumes and the
relative degradation.

The baseline and the attacked run are two runner cells on one warm-up;
each reports its per-flow goodput (``CellResult.flow_goodput_bytes``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.stats import FlowDamage, jain_fairness_index, per_flow_damage
from repro.core.attack import PulseTrain
from repro.core.timeout_model import FlowRegime, per_flow_predictions
from repro.experiments.base import DumbbellPlatform
from repro.runner import Cell, get_default_runner
from repro.util.units import mbps, ms

__all__ = ["FlowDamageReport", "run_flow_damage"]


@dataclasses.dataclass(frozen=True)
class FlowDamageReport:
    """Per-flow outcome of one attack run.

    Attributes:
        damages: per-flow before/after records, ordered by RTT.
        regimes: the timeout-aware model's per-flow classification.
        fairness_before / fairness_during: Jain indices of the per-flow
            goodputs.
    """

    damages: List[FlowDamage]
    regimes: List[FlowRegime]
    fairness_before: float
    fairness_during: float

    def mean_degradation(self, regime: Optional[FlowRegime] = None) -> float:
        """Mean per-flow degradation, optionally for one predicted regime."""
        values = [
            d.degradation for d, r in zip(self.damages, self.regimes)
            if regime is None or r is regime
        ]
        return float(np.mean(values)) if values else float("nan")

    def render(self) -> str:
        lines = [
            "Per-flow damage distribution under a PDoS attack",
            f"{'RTT(ms)':>8} {'baseline(Mb)':>13} {'attacked(Mb)':>13} "
            f"{'degradation':>12} {'model regime':>13}",
        ]
        for damage, regime in zip(self.damages, self.regimes):
            lines.append(
                f"{damage.rtt * 1e3:8.0f} {damage.baseline_bytes * 8 / 1e6:13.2f} "
                f"{damage.attacked_bytes * 8 / 1e6:13.2f} "
                f"{damage.degradation:12.3f} {regime.value:>13}"
            )
        lines.append(
            f"Jain fairness: {self.fairness_before:.3f} before -> "
            f"{self.fairness_during:.3f} during the attack"
        )
        for regime in FlowRegime:
            mean = self.mean_degradation(regime)
            if not np.isnan(mean):
                lines.append(
                    f"mean degradation of {regime.value}-classified flows: "
                    f"{mean:.3f}"
                )
        return "\n".join(lines)


def run_flow_damage(
    *,
    n_flows: int = 15,
    rate_bps: float = mbps(30),
    extent: float = ms(100),
    gamma: float = 0.4,
    warmup: float = 6.0,
    window: float = 25.0,
    seed: int = 31,
) -> FlowDamageReport:
    """Measure per-flow damage and cross-validate the regime model."""
    platform = DumbbellPlatform(n_flows=n_flows, seed=seed)
    train = PulseTrain.from_gamma(
        gamma=gamma, rate_bps=rate_bps, extent=extent,
        bottleneck_bps=platform.bottleneck_bps,
        n_pulses=int(np.ceil(window / 0.2)) + 2,
    )

    baseline, attacked = (
        np.array(result.flow_goodput_bytes)
        for result in get_default_runner().measure_many([
            Cell(platform=platform, warmup=warmup, window=window,
                 train=attack)
            for attack in (None, train)
        ])
    )

    victims = platform.victim_population()
    predictions = per_flow_predictions(
        victims, period=train.period, min_rto=platform.min_rto,
        bottleneck_bps=platform.bottleneck_bps,
    )
    return FlowDamageReport(
        damages=per_flow_damage(victims.rtts, baseline, attacked),
        regimes=[p.regime for p in predictions],
        fairness_before=jain_fairness_index(baseline),
        fairness_during=jain_fairness_index(np.clip(attacked, 0, None)),
    )
