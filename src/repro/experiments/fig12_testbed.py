"""Figure 12: test-bed gain curves.

Section 4.2: 10 victim Iperf flows through a 10 Mb/s, 150 ms Dummynet
pipe with the rule-of-thumb RED buffer; three attacks share
``T_extent = 150 ms`` but differ in rate, R_attack ∈ {15, 20, 30} Mb/s.
The paper reports a normal-gain outcome at 20 Mb/s, over-gain (analysis
under-estimates) at 30 Mb/s, and under-gain (analysis over-estimates)
at 15 Mb/s.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.experiments.base import (
    GainCurve,
    TestbedPlatform,
    default_gammas,
    plan_gain_sweep,
    render_curve_table,
    run_gain_sweeps,
)
from repro.util.units import mbps, ms

__all__ = ["TestbedFigure", "TESTBED_RATES", "run_fig12"]

#: The paper's three test-bed pulse rates, bits/s.
TESTBED_RATES: Sequence[float] = (mbps(15), mbps(20), mbps(30))

#: The common pulse width, seconds.
TESTBED_EXTENT: float = ms(150)


@dataclasses.dataclass(frozen=True)
class TestbedFigure:
    """The three test-bed curves of Fig. 12."""

    __test__ = False  # not a pytest class, despite the name

    curves: List[GainCurve]

    def render(self) -> str:
        parts = [render_curve_table(
            self.curves,
            title="Fig. 12 -- test-bed: 10 flows, T_extent=150 ms",
        )]
        for curve in self.curves:
            peak = curve.peak_measured()
            parts.append(
                f"  [{curve.label}] peak measured gain {peak.measured_gain:.3f}"
                f" at gamma={peak.gamma:.2f}; regime "
                f"{curve.comparison.regime.value}"
            )
        return "\n".join(parts)


def run_fig12(*, gammas=None, n_flows: int = 10) -> TestbedFigure:
    """Reproduce Fig. 12 on the Dummynet test-bed emulation."""
    if gammas is None:
        gammas = default_gammas()
    # One batch across the three rates: curves parallelize together and
    # share the single no-attack baseline cell.
    plans = [
        plan_gain_sweep(
            TestbedPlatform(n_flows=n_flows, seed=42),
            rate_bps=rate,
            extent=TESTBED_EXTENT,
            gammas=gammas,
            label=f"R_attack={rate / 1e6:.0f}M",
        )
        for rate in TESTBED_RATES
    ]
    return TestbedFigure(curves=run_gain_sweeps(plans))
