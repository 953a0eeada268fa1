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
from typing import Dict, Optional

import numpy as np

from repro.core.attack import PulseTrain
from repro.experiments.base import DumbbellPlatform
from repro.runner import PlatformSpec
from repro.sim.workload import ShortFlowWorkload
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


def _run_condition(train: Optional[PulseTrain], *, platform: PlatformSpec,
                   warmup: float, window: float) -> PopulationOutcome:
    net = platform.build()
    mice_src, mice_dst = net.add_host_pair(rtt=ms(100))
    workload = ShortFlowWorkload(
        net.sim, mice_src, mice_dst, tcp=platform.tcp,
        mean_size_segments=15.0, mean_interarrival=0.4,
        seed=platform.seed + 1,
    )
    net.start_flows()
    net.run(until=warmup)
    elephants_before = net.aggregate_goodput_bytes()
    workload.start()
    if train is not None:
        net.add_attack(train, start_time=warmup).start()
    net.run(until=warmup + window)
    workload.finalize()

    goodput = (net.aggregate_goodput_bytes() - elephants_before) * 8 / window
    percentiles = workload.fct_percentiles((50, 90, 99))
    return PopulationOutcome(
        elephant_goodput_bps=goodput,
        mice_completed=len(workload.completed_records()),
        mice_launched=workload.launched,
        fct_p50=percentiles[50],
        fct_p90=percentiles[90],
        fct_p99=percentiles[99],
        unfinished_fraction=workload.unfinished_fraction(),
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
    """Measure both populations with and without the attack."""
    platform = DumbbellPlatform(n_flows=n_elephants, seed=seed)
    train = PulseTrain.from_gamma(
        gamma=gamma, rate_bps=rate_bps, extent=extent,
        bottleneck_bps=platform.bottleneck_bps,
        n_pulses=int(np.ceil(window / 0.2)) + 2,
    )
    kwargs = dict(platform=platform, warmup=warmup, window=window)
    return MiceElephantsResult(
        baseline=_run_condition(None, **kwargs),
        attacked=_run_condition(train, **kwargs),
    )
