"""Defense evaluations: randomized RTO and CHOKe RED-hardening.

Two defense claims from the paper are made quantitative here:

* **Randomized RTO** (Yang, Gerla & Sanadidi, the paper's reference
  [7]).  Section 1.1: "it is proposed to randomize the timeout value...
  However, this method cannot defend the AIMD-based attack, because the
  attack's timing does not rely on the TCP timeout values."
  :func:`run_rto_randomization` attacks the same victims with a
  timeout-based shrew train and with an AIMD-based train, with and
  without RTO jitter, and compares the recovered goodput.

* **RED hardening** (the conclusion's future-work direction: "propose
  enhancement to the RED algorithms").  :func:`run_aqm_hardening`
  replaces the bottleneck's RED with CHOKe
  (:class:`~repro.sim.queues.CHOKeQueue`) and measures how much of the
  attacker's gain the matched-drop discipline takes back.
"""

from __future__ import annotations

import dataclasses
import numpy as np

from repro.baselines.shrew import ShrewAttack
from repro.core.attack import PulseTrain
from repro.experiments.base import (
    DumbbellPlatform,
    GainCurve,
    _dumbbell_tcp_config,
    default_gammas,
    plan_gain_sweep,
    render_curve_table,
    run_gain_sweeps,
)
from repro.runner import Cell, get_default_runner
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms

__all__ = ["RTODefenseResult", "run_rto_randomization",
           "AQMHardeningResult", "run_aqm_hardening"]


# ----------------------------------------------------------------------
# randomized RTO
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RTODefenseResult:
    """Goodput (bits/s) per (attack, jitter) condition.

    Attributes:
        shrew_plain / shrew_jittered: timeout-based attack, without /
            with randomized RTO.
        aimd_plain / aimd_jittered: AIMD-based attack, likewise.
    """

    shrew_plain: float
    shrew_jittered: float
    aimd_plain: float
    aimd_jittered: float

    def shrew_recovery(self) -> float:
        """Relative goodput recovered against the timeout-based attack."""
        return self.shrew_jittered / self.shrew_plain - 1.0

    def aimd_recovery(self) -> float:
        """Relative goodput recovered against the AIMD-based attack."""
        return self.aimd_jittered / self.aimd_plain - 1.0

    def render(self) -> str:
        return "\n".join([
            "Defense: randomized RTO (reference [7]) vs the two attack classes",
            f"{'attack':<22} {'plain':>10} {'jittered':>10} {'recovered':>10}",
            f"{'timeout-based (shrew)':<22} "
            f"{self.shrew_plain / 1e6:8.2f}Mb {self.shrew_jittered / 1e6:8.2f}Mb "
            f"{self.shrew_recovery():+9.0%}",
            f"{'AIMD-based (PDoS)':<22} "
            f"{self.aimd_plain / 1e6:8.2f}Mb {self.aimd_jittered / 1e6:8.2f}Mb "
            f"{self.aimd_recovery():+9.0%}",
            "paper (Section 1.1): randomization defends the timeout-based "
            "attack, not the AIMD-based one",
        ])


def _attack_cell(train: PulseTrain, *, jitter: float, n_flows: int,
                 warmup: float, window: float, seed: int) -> Cell:
    tcp = dataclasses.replace(_dumbbell_tcp_config(), rto_jitter=jitter)
    return Cell(
        platform=DumbbellPlatform(n_flows=n_flows, seed=seed, tcp=tcp),
        train=train, warmup=warmup, window=window,
    )


def run_rto_randomization(
    *,
    jitter: float = 0.5,
    n_flows: int = 15,
    warmup: float = 6.0,
    window: float = 25.0,
    seed: int = 5,
    n_seeds: int = 3,
) -> RTODefenseResult:
    """Evaluate randomized RTO against both PDoS attack classes.

    The timeout-based attack pulses at the victims' minRTO (1 s, the
    ns-2 default); the AIMD-based attack uses a fast FR-driven period
    far from any RTO harmonic.  Both carry comparable average rates.

    Each condition is averaged over ``n_seeds`` scenario seeds
    (``seed .. seed + n_seeds - 1``): whether a given pulse catches a
    victim inside its jittered timeout is sensitive to the exact RTO
    draws, so a single seed is noisy.  All conditions x seeds form one
    independent cell batch -- parallel under ``--jobs``, cached across
    re-runs.
    """
    n_pulses = int(np.ceil(window)) + 2
    platform = DumbbellPlatform(n_flows=n_flows)
    shrew = ShrewAttack(min_rto=platform.min_rto, rate_bps=mbps(40),
                        extent=ms(150)).train(n_pulses)
    aimd = PulseTrain.from_gamma(
        gamma=0.6, rate_bps=mbps(30), extent=ms(100),
        bottleneck_bps=platform.bottleneck_bps, n_pulses=3 * n_pulses + 2,
    )
    seeds = range(seed, seed + n_seeds)
    conditions = [(shrew, 0.0), (shrew, jitter), (aimd, 0.0), (aimd, jitter)]
    results = get_default_runner().measure_many([
        _attack_cell(train, jitter=j, n_flows=n_flows, warmup=warmup,
                     window=window, seed=s)
        for train, j in conditions
        for s in seeds
    ])
    goodputs = [r.goodput_bytes for r in results]
    to_bps = [
        sum(goodputs[i * n_seeds:(i + 1) * n_seeds]) / (n_seeds * window) * 8.0
        for i in range(len(conditions))
    ]
    return RTODefenseResult(
        shrew_plain=to_bps[0],
        shrew_jittered=to_bps[1],
        aimd_plain=to_bps[2],
        aimd_jittered=to_bps[3],
    )


# ----------------------------------------------------------------------
# CHOKe hardening
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AQMHardeningResult:
    """Paired RED / CHOKe sweeps of the same attack."""

    red: GainCurve
    choke: GainCurve

    def mean_gain_reduction(self) -> float:
        """Mean (RED − CHOKe) measured attack gain across the sweep.

        The curves are differenced pointwise, so both must have sampled
        the same γ grid; a mismatch raises :class:`ValidationError`.
        """
        red, choke = self.red.gammas(), self.choke.gammas()
        if not np.array_equal(red, choke):
            raise ValidationError(
                "RED and CHOKe sweeps sampled different gamma grids: "
                f"RED {red.tolist()}, CHOKe {choke.tolist()}"
            )
        return float(np.mean(self.red.measured() - self.choke.measured()))

    def render(self) -> str:
        parts = [render_curve_table(
            [self.red, self.choke],
            title="Defense: CHOKe (matched-drop) vs plain RED",
        )]
        reduction = self.mean_gain_reduction()
        verdict = (
            "CHOKe takes back attacker gain (the RED-hardening direction "
            "the paper's conclusion motivates)" if reduction > 0
            else "CHOKe did not reduce the attacker's gain here"
        )
        parts.append(
            f"  mean attacker-gain reduction under CHOKe: {reduction:+.3f}"
            f" -- {verdict}"
        )
        return "\n".join(parts)


def run_aqm_hardening(
    *,
    rate_bps: float = mbps(30),
    extent: float = ms(100),
    n_flows: int = 15,
    gammas=None,
    planner=None,
) -> AQMHardeningResult:
    """Sweep the same attack against RED and CHOKe bottlenecks.

    With *planner* set (or ``REPRO_FAST=1``) the two sweeps run through
    the adaptive planner.  :meth:`AQMHardeningResult.mean_gain_reduction`
    differences the RED and CHOKe curves pointwise, which requires
    matched γ arrays; the fluid model maps both disciplines to one
    scenario, so the pre-pass aims both packet sweeps at the same
    confirm grid.
    """
    from repro.runner.planner import active_policy, run_planned_sweep

    if gammas is None:
        gammas = default_gammas()
    if planner is None:
        planner = active_policy()
    red_platform = DumbbellPlatform(n_flows=n_flows, queue="red", seed=600)
    choke_platform = DumbbellPlatform(n_flows=n_flows, queue="choke", seed=600)
    if planner is not None:
        red_sweep = run_planned_sweep(
            red_platform, rate_bps=rate_bps, extent=extent, gammas=gammas,
            label="RED [fast]", policy=planner,
        )
        choke_sweep = run_planned_sweep(
            choke_platform, rate_bps=rate_bps, extent=extent, gammas=gammas,
            label="CHOKe [fast]", policy=planner,
        )
        return AQMHardeningResult(red=red_sweep.curve, choke=choke_sweep.curve)
    red, choke = run_gain_sweeps([
        plan_gain_sweep(
            red_platform,
            rate_bps=rate_bps, extent=extent, gammas=gammas, label="RED",
        ),
        plan_gain_sweep(
            choke_platform,
            rate_bps=rate_bps, extent=extent, gammas=gammas, label="CHOKe",
        ),
    ])
    return AQMHardeningResult(red=red, choke=choke)
