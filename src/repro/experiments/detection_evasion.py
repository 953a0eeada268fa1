"""Extension experiment: detection evasion of the optimized PDoS attack.

Quantifies the paper's motivating claim (Section 1): a PDoS attack tuned
to the optimal γ* slips past detectors tuned for flooding attacks, while
an equal-pulse-rate flooding attack is caught immediately.

Three detectors from :mod:`repro.detection` inspect the bottleneck's
offered load (and per-flow profiles) under (a) no attack, (b) the
optimized PDoS attack, and (c) a flooding attack of the same pulse rate:

* the volume threshold detector should flag only the flood;
* the DTW pulse detector *can* see the PDoS pulses -- unless T_extent is
  below its sampling period (the paper's criticism of reference [8]),
  which the experiment demonstrates by running it at two sampling rates;
* the conformance filter flags the flood's one-way bulk but scores the
  low-average-rate PDoS flow under its rate floor.

Each condition is one runner cell on a shared 5 s warm-up: the cell's
binned arrival series feeds the volume and DTW detectors, and its rate
floor (half the bottleneck's capacity) gives the conformance verdict.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.attack import PulseTrain
from repro.core.optimizer import optimal_attack
from repro.detection.dtw import DTWPulseDetector, DTWVerdict
from repro.detection.flood import FloodDetector, FloodVerdict
from repro.experiments.base import DumbbellPlatform, full_scale
from repro.runner import Cell, CellResult, get_default_runner
from repro.runner.cells import ARRIVAL_BIN_WIDTH
from repro.util.units import mbps, ms

__all__ = ["EvasionScenario", "EvasionReport", "run_detection_evasion"]

#: The victims every condition measures: 15 flows, the ns-2 stack.
_PLATFORM = DumbbellPlatform(n_flows=15, seed=77)


@dataclasses.dataclass(frozen=True)
class EvasionScenario:
    """Detector verdicts for one traffic condition."""

    name: str
    flood_verdict: FloodVerdict
    dtw_fast: DTWVerdict          #: DTW sampling at 0.1 s (< T_extent)
    dtw_slow: DTWVerdict          #: DTW sampling at 1.0 s (> T_extent)
    conformance_flagged: bool     #: attack flow flagged by the filter
    mean_rate_fraction: float     #: offered load / capacity over the window


@dataclasses.dataclass(frozen=True)
class EvasionReport:
    """The four-condition comparison."""

    scenarios: Dict[str, EvasionScenario]
    gamma_star: float
    gamma_star_averse: float = float("nan")

    def render(self) -> str:
        lines = [
            "Detection evasion -- optimized PDoS vs flooding",
            f"gamma* (risk-neutral) = {self.gamma_star:.3f}, "
            f"gamma* (risk-averse) = {self.gamma_star_averse:.3f}",
            f"{'condition':<12} {'volume':>8} {'dtw@0.1s':>9} "
            f"{'dtw@1s':>7} {'conformance':>12} {'load':>6}",
        ]
        for name, s in self.scenarios.items():
            lines.append(
                f"{name:<12} {str(s.flood_verdict.detected):>8} "
                f"{str(s.dtw_fast.detected):>9} {str(s.dtw_slow.detected):>7} "
                f"{str(s.conformance_flagged):>12} "
                f"{s.mean_rate_fraction:6.2f}"
            )
        return "\n".join(lines)


def _cell(train: Optional[PulseTrain], horizon: float) -> Cell:
    """One condition: warm up, then *train* (or no attack) for *horizon*."""
    return Cell(
        platform=_PLATFORM, warmup=5.0, window=horizon, train=train,
        rate_floor_bps=0.5 * _PLATFORM.bottleneck_bps, arrival_series=True,
    )


def _scenario(name: str, result: CellResult,
              horizon: float) -> EvasionScenario:
    """The detectors' verdicts on one measured condition."""
    capacity = _PLATFORM.bottleneck_bps
    load = np.array(result.arrival_bytes)
    volume = FloodDetector(capacity, threshold_fraction=1.2, window=5.0)
    flood_verdict = volume.inspect(load, ARRIVAL_BIN_WIDTH)
    # The DTW detector, like its reference, examines a window of traffic
    # in progress -- skip the attack-onset transient (the TCP collapse
    # step would otherwise dominate the shape).
    steady = load[int(5.0 / ARRIVAL_BIN_WIDTH):]
    dtw_fast = DTWPulseDetector(sample_period=0.1).detect(
        steady, ARRIVAL_BIN_WIDTH)
    dtw_slow = DTWPulseDetector(sample_period=1.0).detect(
        steady, ARRIVAL_BIN_WIDTH)
    mean_rate = float(load.sum()) * 8.0 / horizon / capacity
    return EvasionScenario(
        name=name,
        flood_verdict=flood_verdict,
        dtw_fast=dtw_fast,
        dtw_slow=dtw_slow,
        conformance_flagged=result.flagged_sources > 0,
        mean_rate_fraction=mean_rate,
    )


def run_detection_evasion(*, kappa_neutral: float = 1.0,
                          kappa_averse: float = 8.0,
                          horizon: Optional[float] = None) -> EvasionReport:
    """Run the four-condition detection comparison.

    Conditions: no attack; the risk-neutral optimum (κ = 1); a
    risk-averse optimum (κ = 8, whose lower γ* drops the average rate
    under the conformance filter's floor); and an equal-pulse-rate
    flood.  The κ knob is exactly the paper's stealth/damage trade-off
    made operational.
    """
    if horizon is None:
        horizon = 60.0 if full_scale() else 25.0
    victims = _PLATFORM.victim_population()
    rate = mbps(30)
    extent = ms(100)

    def plan_for(kappa: float):
        return optimal_attack(
            victims, rate_bps=rate, extent=extent,
            bottleneck_bps=_PLATFORM.bottleneck_bps, kappa=kappa,
            n_pulses=int(horizon / 0.2) + 2,
        )

    neutral = plan_for(kappa_neutral)
    averse = plan_for(kappa_averse)
    flood = PulseTrain.flooding(rate, horizon)

    trains = {
        "baseline": None,
        "pdos-k1": neutral.train,
        "pdos-k8": averse.train,
        "flooding": flood,
    }
    results = get_default_runner().measure_many(
        [_cell(train, horizon) for train in trains.values()])
    scenarios = {
        name: _scenario(name, result, horizon)
        for name, result in zip(trains, results)
    }
    return EvasionReport(scenarios=scenarios, gamma_star=neutral.gamma_star,
                         gamma_star_averse=averse.gamma_star)
