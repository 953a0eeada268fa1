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
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.attack import PulseTrain
from repro.core.optimizer import optimal_attack
from repro.detection.dtw import DTWPulseDetector, DTWVerdict
from repro.detection.feature import ConformanceDetector
from repro.detection.flood import FloodDetector, FloodVerdict
from repro.experiments.base import DumbbellPlatform, full_scale
from repro.sim.trace import RateMonitor
from repro.util.units import mbps, ms

__all__ = ["EvasionScenario", "EvasionReport", "run_detection_evasion"]

_BIN_WIDTH = 0.02

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


def _run_condition(name: str, train: Optional[PulseTrain],
                   horizon: float) -> EvasionScenario:
    net = _PLATFORM.build()
    capacity = _PLATFORM.bottleneck_bps
    conformance = ConformanceDetector(min_rate_bps=0.5 * capacity)

    warmup = 5.0
    net.start_flows()
    net.run(until=warmup)
    offset = net.sim.now
    arrivals = []
    net.bottleneck.arrival_tap = arrivals.append
    net.bottleneck.monitors.append(conformance.observe_forward)
    net.reverse_bottleneck.monitors.append(conformance.observe_reverse)

    attack_flow_id = None
    if train is not None:
        source = net.add_attack(train, start_time=warmup)
        source.start()
        attack_flow_id = source.flow_id
    net.run(until=warmup + horizon)

    rows = np.array(arrivals)
    rows[:, 0] -= offset
    monitor = RateMonitor(_BIN_WIDTH, horizon)
    monitor.ingest(rows)
    volume = FloodDetector(capacity, threshold_fraction=1.2, window=5.0)
    flood_verdict = volume.inspect(monitor.bytes_per_bin, _BIN_WIDTH)
    # The DTW detector, like its reference, examines a window of traffic
    # in progress -- skip the attack-onset transient (the TCP collapse
    # step would otherwise dominate the shape).
    steady = monitor.bytes_per_bin[int(5.0 / _BIN_WIDTH):]
    dtw_fast = DTWPulseDetector(sample_period=0.1).detect(steady, _BIN_WIDTH)
    dtw_slow = DTWPulseDetector(sample_period=1.0).detect(steady, _BIN_WIDTH)
    flagged = (
        conformance.is_flagged(attack_flow_id)
        if attack_flow_id is not None else False
    )
    mean_rate = float(monitor.bytes_per_bin.sum()) * 8.0 / horizon / capacity
    return EvasionScenario(
        name=name,
        flood_verdict=flood_verdict,
        dtw_fast=dtw_fast,
        dtw_slow=dtw_slow,
        conformance_flagged=flagged,
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

    scenarios = {
        "baseline": _run_condition("baseline", None, horizon),
        "pdos-k1": _run_condition("pdos-k1", neutral.train, horizon),
        "pdos-k8": _run_condition("pdos-k8", averse.train, horizon),
        "flooding": _run_condition("flooding", flood, horizon),
    }
    return EvasionReport(scenarios=scenarios, gamma_star=neutral.gamma_star,
                         gamma_star_averse=averse.gamma_star)
