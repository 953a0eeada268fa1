"""Mice vs elephants: who does the pulsing attack hurt more?

Kuzmanovic & Knightly titled the shrew paper "the shrew vs. the mice and
elephants"; the PDoS paper's victims are all elephants (long-lived bulk
flows).  This experiment adds a churn of short transfers (mice) to the
dumbbell and measures both populations with and without the attack:

* elephants report aggregate goodput (the paper's Γ);
* mice report flow-completion-time percentiles and the fraction of
  transfers that never finish within the window.

Expectation: the mice's tail FCT inflates by multiples of the RTO --
a short flow that loses its initial window has no duplicate-ACK budget
and must wait a full timeout -- so the attack's damage to interactive
traffic far exceeds what the aggregate throughput number suggests.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.attack import PulseTrain
from repro.experiments.base import DumbbellPlatform
from repro.runner import Cell, CellResult, get_default_runner
from repro.util.units import mbps, ms

__all__ = ["MiceElephantsResult", "run_mice_elephants"]


@dataclasses.dataclass(frozen=True)
class PopulationOutcome:
    """Measurements for one condition (baseline or attacked)."""

    elephant_goodput_bps: float
    mice_completed: int
    mice_launched: int
    fct_p50: float
    fct_p90: float
    fct_p99: float
    unfinished_fraction: float


@dataclasses.dataclass(frozen=True)
class MiceElephantsResult:
    """Baseline vs attacked outcomes."""

    baseline: PopulationOutcome
    attacked: PopulationOutcome

    def elephant_degradation(self) -> float:
        return 1.0 - (self.attacked.elephant_goodput_bps
                      / self.baseline.elephant_goodput_bps)

    def mice_p90_inflation(self) -> float:
        """How many times the mice's 90th-percentile FCT grew."""
        if self.baseline.fct_p90 == 0:
            return float("inf")
        return self.attacked.fct_p90 / self.baseline.fct_p90

    def render(self) -> str:
        rows = [
            ("elephant goodput (Mb/s)",
             f"{self.baseline.elephant_goodput_bps / 1e6:.2f}",
             f"{self.attacked.elephant_goodput_bps / 1e6:.2f}"),
            ("mice completed / launched",
             f"{self.baseline.mice_completed}/{self.baseline.mice_launched}",
             f"{self.attacked.mice_completed}/{self.attacked.mice_launched}"),
            ("mice FCT p50 (s)",
             f"{self.baseline.fct_p50:.3f}", f"{self.attacked.fct_p50:.3f}"),
            ("mice FCT p90 (s)",
             f"{self.baseline.fct_p90:.3f}", f"{self.attacked.fct_p90:.3f}"),
            ("mice FCT p99 (s)",
             f"{self.baseline.fct_p99:.3f}", f"{self.attacked.fct_p99:.3f}"),
            ("mice unfinished fraction",
             f"{self.baseline.unfinished_fraction:.2f}",
             f"{self.attacked.unfinished_fraction:.2f}"),
        ]
        lines = [
            "Mice vs elephants under a PDoS attack",
            f"{'metric':<28} {'baseline':>12} {'attacked':>12}",
        ]
        lines += [f"{name:<28} {b:>12} {a:>12}" for name, b, a in rows]
        lines.append(
            f"elephant degradation {self.elephant_degradation():.2f}; "
            f"mice p90 FCT inflated {self.mice_p90_inflation():.1f}x"
        )
        return "\n".join(lines)


def _outcome(result: CellResult, window: float) -> PopulationOutcome:
    """One condition's populations, from its cell's raw outcome.

    The percentiles and the unfinished fraction are computed as
    :class:`~repro.sim.workload.ShortFlowWorkload` computes them.
    """
    fcts = list(result.mice_fcts)
    launched = result.mice_launched
    percentiles = {
        p: float(np.percentile(fcts, p)) if fcts else float("nan")
        for p in (50, 90, 99)
    }
    return PopulationOutcome(
        elephant_goodput_bps=result.goodput_bytes * 8 / window,
        mice_completed=len(fcts),
        mice_launched=launched,
        fct_p50=percentiles[50],
        fct_p90=percentiles[90],
        fct_p99=percentiles[99],
        unfinished_fraction=(
            (launched - len(fcts)) / launched if launched else 0.0),
    )


def run_mice_elephants(
    *,
    gamma: float = 0.5,
    rate_bps: float = mbps(30),
    extent: float = ms(100),
    n_elephants: int = 10,
    warmup: float = 6.0,
    window: float = 30.0,
    seed: int = 41,
) -> MiceElephantsResult:
    """Measure both populations with and without the attack.

    The mice launch from ``t = warmup``, a mean 0.4 s apart.
    """
    platform = dataclasses.replace(
        DumbbellPlatform(n_flows=n_elephants, seed=seed),
        extra=(("mice_interarrival", 0.4),),
    )
    train = PulseTrain.from_gamma(
        gamma=gamma, rate_bps=rate_bps, extent=extent,
        bottleneck_bps=platform.bottleneck_bps,
        n_pulses=int(np.ceil(window / 0.2)) + 2,
    )
    baseline, attacked = (
        _outcome(result, window)
        for result in get_default_runner().measure_many([
            Cell(platform=platform, warmup=warmup, window=window,
                 train=attack)
            for attack in (None, train)
        ])
    )
    return MiceElephantsResult(baseline=baseline, attacked=attacked)
