"""Dynamic-time-warping pulse detection (Sun, Lui & Yau, ICNP 2004 style).

The defense of the paper's reference [8]: sample the incoming traffic,
and measure its dynamic-time-warping distance to a rectangular-pulse
template; a small distance means the traffic contains the on/off attack
signature.  The paper points out the scheme's blind spot -- a pulse
shorter than the sampling period averages away -- which
:meth:`DTWPulseDetector.detect` reproduces (see the tests).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.analysis.paa import znormalize
from repro.util.errors import ValidationError
from repro.util.validate import check_fraction, check_positive

__all__ = ["dtw_distance", "square_wave_template", "DTWPulseDetector",
           "DTWVerdict"]


def dtw_distance(a: np.ndarray, b: np.ndarray,
                 window: Optional[int] = None) -> float:
    """Classic dynamic-time-warping distance between two 1-D series.

    Args:
        a, b: the two series (need not be the same length).
        window: optional Sakoe-Chiba band half-width restricting the
            alignment path (speeds up long series and regularizes the
            match); ``None`` means unconstrained.

    Returns:
        The accumulated absolute-difference cost along the optimal
        warping path, normalized by the path-free scale ``len(a)+len(b)``
        so distances are comparable across lengths.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValidationError("DTW requires non-empty series")
    if window is not None and window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")

    band = max(window, abs(n - m)) if window is not None else max(n, m)
    # Python floats and lists: indexing numpy scalars in this O(n*m)
    # loop cost more than the arithmetic.  The two comparisons pick the
    # first of equal operands, as min(up, left, diag) would.
    a = a.tolist()
    b = b.tolist()
    infinity = math.inf
    previous = [infinity] * (m + 1)
    previous[0] = 0.0
    for i in range(1, n + 1):
        current = [infinity] * (m + 1)
        j_lo = max(1, i - band)
        j_hi = min(m, i + band)
        ai = a[i - 1]
        left = infinity             # current[j_lo - 1], off the band
        for j in range(j_lo, j_hi + 1):
            best = previous[j]          # insertion
            if left < best:             # deletion
                best = left
            diag = previous[j - 1]      # match
            if diag < best:
                best = diag
            left = current[j] = abs(ai - b[j - 1]) + best
        previous = current
    return previous[m] / (n + m)


def square_wave_template(n_samples: int, period_samples: int,
                         duty_cycle: float) -> np.ndarray:
    """A unit-amplitude rectangular pulse train (the attack signature)."""
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if period_samples < 1:
        raise ValidationError(
            f"period_samples must be >= 1, got {period_samples}"
        )
    check_fraction("duty_cycle", duty_cycle)
    phase = np.arange(n_samples) % period_samples
    high = max(1, int(round(duty_cycle * period_samples)))
    return (phase < high).astype(float)


@dataclasses.dataclass(frozen=True)
class DTWVerdict:
    """Outcome of a DTW detection pass.

    Attributes:
        detected: True when the best template distance fell below the
            detector's threshold.
        best_distance: smallest normalized DTW distance over the swept
            template periods.
        best_period: the template period (seconds) achieving it.
        threshold: the decision threshold used.
    """

    detected: bool
    best_distance: float
    best_period: Optional[float]
    threshold: float


class DTWPulseDetector:
    """Detects rectangular attack pulses by DTW template matching.

    Args:
        sample_period: the detector's traffic sampling period, seconds.
            This is the operational parameter the paper attacks: pulses
            with ``T_extent < sample_period`` blur into the average and
            become invisible.
        threshold: normalized-distance decision threshold; series whose
            best match is below it are declared under attack.
        min_period / max_period: the template-period sweep range, seconds;
            every integer sample count in range is tried.
        band: Sakoe-Chiba half-width (samples) limiting DTW warping.
    """

    def __init__(self, sample_period: float, *, threshold: float = 0.22,
                 min_period: float = 0.2, max_period: float = 4.0,
                 band: int = 8) -> None:
        self.sample_period = check_positive("sample_period", sample_period)
        self.threshold = check_positive("threshold", threshold)
        self.min_period = check_positive("min_period", min_period)
        self.max_period = check_positive("max_period", max_period)
        if max_period < min_period:
            raise ValidationError("max_period must be >= min_period")
        if band < 1:
            raise ValidationError(f"band must be >= 1, got {band}")
        self.band = band

    #: Template duty cycles tried per period; attack trains range from
    #: the Fig.-3 2.5%-duty spikes to near-50% optimal tunings.
    _DUTY_CYCLES = (0.1, 0.3, 0.5)

    def resample(self, bytes_per_bin: np.ndarray, bin_width: float) -> np.ndarray:
        """Aggregate a fine-binned series to the detector's sampling period.

        This models the detector's own measurement process -- and its
        blind spot: aggregation is exactly where sub-sample pulses vanish.
        """
        check_positive("bin_width", bin_width)
        factor = max(1, int(round(self.sample_period / bin_width)))
        series = np.asarray(bytes_per_bin, dtype=float)
        usable = (series.size // factor) * factor
        if usable == 0:
            raise ValidationError("series shorter than one detector sample")
        return series[:usable].reshape(-1, factor).sum(axis=1)

    def _candidate_period_samples(self, n_samples: int) -> range:
        """Integer template periods (in samples) worth trying.

        Degenerate templates are excluded up front: a period of one
        sample cannot alternate (it z-normalizes to all-zeros and
        spuriously matches anything), and a period that does not repeat
        at least three times in the window cannot establish periodicity.
        """
        lo = max(2, int(round(self.min_period / self.sample_period)))
        hi = min(
            int(round(self.max_period / self.sample_period)),
            n_samples // 3,
        )
        return range(lo, hi + 1)

    #: Minimum resampled length for a statistically meaningful match;
    #: with fewer samples the warping path can fit noise almost as well
    #: as a genuine pulse train.
    _MIN_SAMPLES = 16

    def detect(self, bytes_per_bin: np.ndarray, bin_width: float) -> DTWVerdict:
        """Run template matching over a binned byte-count series."""
        samples = znormalize(self.resample(bytes_per_bin, bin_width))
        if samples.std() == 0.0 or samples.size < self._MIN_SAMPLES:
            # Flat traffic, or too little evidence to call it either way.
            return DTWVerdict(False, float("inf"), None, self.threshold)
        best_distance, best_period = float("inf"), None
        # On short series an absolute band would let DTW warp almost
        # freely and "match" noise; cap it at a sixth of the length.
        band = min(self.band, max(1, samples.size // 6))
        for period_samples in self._candidate_period_samples(samples.size):
            for duty_cycle in self._DUTY_CYCLES:
                template = square_wave_template(
                    samples.size, period_samples, duty_cycle=duty_cycle
                )
                if template.min() == template.max():
                    continue  # non-alternating (duty rounded away)
                template = znormalize(template)
                distance = dtw_distance(samples, template, window=band)
                if distance < best_distance:
                    best_distance = distance
                    best_period = period_samples * self.sample_period
        if best_period is None:
            return DTWVerdict(False, float("inf"), None, self.threshold)
        return DTWVerdict(
            detected=best_distance < self.threshold,
            best_distance=best_distance,
            best_period=best_period,
            threshold=self.threshold,
        )
