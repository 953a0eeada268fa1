"""Figure 3: the quasi-global synchronization phenomenon, measured.

Fig. 3(a): ns-2 dumbbell, 24 victim flows, attack
``T_extent = 50 ms, T_space = 1950 ms, R_attack = 100 Mb/s`` -- a
one-minute snapshot shows 30 evenly spaced pinnacles, i.e. a 2 s period
equal to T_AIMD.

Fig. 3(b): test-bed, 15 victim flows, attack ``T_extent = 100 ms,
T_space = 2400 ms, R_attack = 50 Mb/s`` -- 24 pinnacles in a minute,
period 2.5 s = T_AIMD.

Each panel is one runner cell: a 5 s attack-free warm-up, then the
attack train over the observation window, with the bottleneck's
offered load binned (``Cell.arrival_series``).  This driver applies
the paper's normalize-then-PAA transform to that series and reports
the pinnacle count and three period estimates.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.analysis.paa import normalize, paa_series
from repro.analysis.sync import SynchronizationReport, analyze_synchronization
from repro.core.attack import PulseTrain
from repro.experiments.base import full_scale
from repro.runner import Cell, PlatformSpec, get_default_runner
from repro.runner.cells import ARRIVAL_BIN_WIDTH
from repro.util.units import mbps, ms

__all__ = ["SyncResult", "run_fig03_ns2", "run_fig03_testbed"]

#: PAA segment width in bins (0.1 s segments, resolving >= 0.5 s periods).
_PAA_WIDTH = 5
#: attack-free warm-up before the observation window opens, seconds.
_WARMUP = 5.0


@dataclasses.dataclass(frozen=True)
class SyncResult:
    """Result of one Fig.-3 panel.

    Attributes:
        platform: "ns-2" or "test-bed".
        attack_period: ground-truth T_AIMD, seconds.
        horizon: observation window, seconds.
        expected_pinnacles: horizon / T_AIMD (the paper's count).
        report: the measured synchronization analysis.
        series: the normalized, PAA-reduced display series.
    """

    platform: str
    attack_period: float
    horizon: float
    expected_pinnacles: int
    report: SynchronizationReport
    series: np.ndarray

    def render(self) -> str:
        r = self.report
        period = (
            f"{r.pinnacle_period:.2f} s" if r.pinnacle_period else "n/a"
        )
        return "\n".join([
            f"Fig. 3 ({self.platform}) -- quasi-global synchronization",
            f"attack period T_AIMD = {self.attack_period:.2f} s, "
            f"window = {self.horizon:.0f} s",
            f"pinnacles: measured {r.pinnacles}, expected "
            f"{self.expected_pinnacles}",
            f"period from pinnacles = {period}; ACF = "
            f"{r.acf_period and round(r.acf_period, 2)} s; FFT = "
            f"{r.fft_period and round(r.fft_period, 2)} s",
            f"consistent with T_AIMD: {r.consistent_with(self.attack_period)}",
        ])


def _offered_load(platform: PlatformSpec, train: PulseTrain,
                  horizon: float) -> np.ndarray:
    """The bottleneck's binned offered load over the *horizon* seconds
    after the warm-up, under *train*."""
    cell = Cell(platform=platform, warmup=_WARMUP, window=horizon,
                train=train, arrival_series=True)
    [result] = get_default_runner().measure_many([cell])
    return np.array(result.arrival_bytes)


def _analyze(raw: np.ndarray, attack_period: float, horizon: float,
             platform: str) -> SyncResult:
    display = paa_series(normalize(raw), _PAA_WIDTH)
    paa_bin = ARRIVAL_BIN_WIDTH * _PAA_WIDTH
    report = analyze_synchronization(display, paa_bin)
    return SyncResult(
        platform=platform,
        attack_period=attack_period,
        horizon=horizon,
        expected_pinnacles=int(round(horizon / attack_period)),
        report=report,
        series=display,
    )


def run_fig03_ns2(*, horizon: Optional[float] = None) -> SyncResult:
    """Fig. 3(a): the dumbbell run with the paper's exact attack."""
    if horizon is None:
        horizon = 60.0 if full_scale() else 24.0
    train = PulseTrain.uniform(
        ms(50), mbps(100), ms(1950),
        n_pulses=int(np.ceil(horizon / 2.0)) + 2,
    )
    platform = PlatformSpec(kind="dumbbell", n_flows=24, seed=11)
    return _analyze(_offered_load(platform, train, horizon), train.period,
                    horizon, "ns-2")


def run_fig03_testbed(*, horizon: Optional[float] = None) -> SyncResult:
    """Fig. 3(b): the test-bed run with the paper's exact attack.

    The paper runs 15 victim flows here (vs the 10 of Fig. 12).
    """
    if horizon is None:
        horizon = 60.0 if full_scale() else 25.0
    train = PulseTrain.uniform(
        ms(100), mbps(50), ms(2400),
        n_pulses=int(np.ceil(horizon / 2.5)) + 2,
    )
    platform = PlatformSpec(kind="testbed", n_flows=15, seed=13)
    return _analyze(_offered_load(platform, train, horizon), train.period,
                    horizon, "test-bed")
