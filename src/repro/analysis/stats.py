"""Throughput statistics: fairness, damage summaries, and CI stopping.

Support for the per-flow analyses around Section 4.1.3 ("some TCP flows
may survive these timeout-based attacks because of their large RTTs"):
Jain's fairness index over per-flow goodputs, and per-flow degradation
summaries keyed by RTT.

Also home to the confidence-interval helpers the adaptive experiment
planner (:mod:`repro.runner.planner`) uses for sequential seed
allocation: :func:`mean_ci_halfwidth` for a t-based CI over replicate
measurements, and :func:`ci_stable` as the stop-adding-seeds predicate.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

import numpy as np

from repro.util.errors import ValidationError
from repro.util.validate import check_non_negative, check_positive

__all__ = ["jain_fairness_index", "FlowDamage", "per_flow_damage",
           "mean_ci_halfwidth", "ci_stable"]


def jain_fairness_index(allocations: Sequence[float]) -> float:
    """Jain, Chiu & Hawe's fairness index ``(Σx)² / (n·Σx²)``.

    1.0 for perfectly equal shares, ``1/n`` when one flow takes all.
    All-zero allocations count as (vacuously) fair.
    """
    values = np.asarray(allocations, dtype=float)
    if values.size == 0:
        raise ValidationError("need at least one allocation")
    if np.any(values < 0):
        raise ValidationError("allocations must be non-negative")
    peak = values.max()
    if peak == 0.0:
        return 1.0
    # Scale-invariant index: normalize by the peak so squaring tiny
    # allocations cannot underflow into denormals and push the ratio
    # past its [1/n, 1] bounds.
    values = values / peak
    total_sq = values.sum() ** 2
    denom = values.size * (values ** 2).sum()
    return float(total_sq / denom)


@dataclasses.dataclass(frozen=True)
class FlowDamage:
    """One flow's before/after comparison.

    Attributes:
        rtt: the flow's round-trip time, seconds.
        baseline_bytes / attacked_bytes: delivered payload in the
            measurement window without / with the attack.
        degradation: ``1 − attacked/baseline`` (0 when the baseline is 0).
    """

    rtt: float
    baseline_bytes: float
    attacked_bytes: float

    @property
    def degradation(self) -> float:
        if self.baseline_bytes <= 0:
            return 0.0
        return 1.0 - self.attacked_bytes / self.baseline_bytes


def per_flow_damage(rtts: Sequence[float], baseline: Sequence[float],
                    attacked: Sequence[float]) -> List[FlowDamage]:
    """Pair up per-flow measurements into :class:`FlowDamage` records."""
    if not len(rtts) == len(baseline) == len(attacked):
        raise ValidationError(
            f"length mismatch: {len(rtts)} rtts, {len(baseline)} baseline, "
            f"{len(attacked)} attacked"
        )
    return [
        FlowDamage(rtt=float(rtt), baseline_bytes=float(b),
                   attacked_bytes=float(a))
        for rtt, b, a in zip(rtts, baseline, attacked)
    ]


# ----------------------------------------------------------------------
# sequential-replication confidence intervals
# ----------------------------------------------------------------------
#: Two-sided 95% t critical values, ``scipy.special.stdtrit(df, 0.975)``
#: bit for bit, indexed by ``df - 1`` for df 1-9.  They cover every
#: interval the product builds by default (the planner's at most 3
#: seeds, replication's 3), so a fast-mode process never imports scipy.
_T975 = (
    12.706204736174694,
    4.302652729749462,
    3.1824463052837078,
    2.7764451051977934,
    2.5705818356363146,
    2.4469118511449786,
    2.364624251592784,
    2.306004135204166,
    2.262157162798205,
)


def mean_ci_halfwidth(samples: Sequence[float],
                      confidence: float = 0.95) -> float:
    """Half-width of the t-based CI for the mean of *samples*.

    A single sample has no variance estimate, so its half-width is
    ``inf`` -- a sequential scheme can never stop on one replicate by
    accident.  Identical samples give 0.
    """
    if not 0.0 < confidence < 1.0:
        raise ValidationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValidationError("need at least one sample")
    if values.size < 2:
        return math.inf
    df = values.size - 1
    if confidence == 0.95 and df <= len(_T975):
        critical = _T975[df - 1]
    else:
        # stdtrit is what scipy.stats.t.ppf evaluates (bit for bit at
        # loc=0, scale=1), without importing scipy.stats; it is imported
        # here so only a quantile outside the table pays for scipy.
        from scipy.special import stdtrit

        critical = stdtrit(df, 0.5 + confidence / 2.0)
    return float(critical * values.std(ddof=1) / math.sqrt(values.size))


def ci_stable(samples: Sequence[float], *, rel_tol: float,
              confidence: float = 0.95, scale_floor: float = 0.0) -> bool:
    """Is the mean estimate precise enough to stop adding replicates?

    Stable when the CI half-width is at most ``rel_tol`` times the
    estimate's scale, ``max(|mean|, scale_floor)``.  The floor keeps the
    criterion meaningful for near-zero means (e.g. the gain of a weak
    attack), where a purely relative tolerance would demand absurd
    precision.
    """
    check_positive("rel_tol", rel_tol)
    check_non_negative("scale_floor", scale_floor)
    halfwidth = mean_ci_halfwidth(samples, confidence)
    if math.isinf(halfwidth):
        return False
    scale = max(abs(float(np.mean(np.asarray(samples, dtype=float)))),
                scale_floor)
    return halfwidth <= rel_tol * scale
