"""Dynamic-time-warping pulse detection."""

import numpy as np
import pytest

from repro.analysis.paa import znormalize
from repro.detection.dtw import (
    DTWPulseDetector,
    dtw_distance,
    square_wave_template,
)
from repro.util.errors import ValidationError


class TestDTWDistance:
    def test_identical_series_zero(self):
        a = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        assert dtw_distance(a, a) == 0.0

    def test_shifted_square_wave_small_distance(self):
        a = square_wave_template(60, 10, 0.3)
        b = np.roll(a, 2)
        assert dtw_distance(a, b) < 0.05

    def test_different_shapes_large_distance(self):
        pulse = znormalize(square_wave_template(60, 10, 0.3))
        ramp = znormalize(np.arange(60.0))
        assert dtw_distance(pulse, ramp) > 0.2

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(0, 1, 30), rng.normal(0, 1, 40)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_unequal_lengths_supported(self):
        a = np.array([0.0, 1.0, 0.0])
        b = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        assert np.isfinite(dtw_distance(a, b))

    def test_band_restricts_warping(self):
        a = square_wave_template(60, 20, 0.3)
        b = np.roll(a, 10)  # shift beyond a narrow band
        narrow = dtw_distance(a, b, window=2)
        wide = dtw_distance(a, b, window=30)
        assert wide <= narrow

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            dtw_distance(np.array([]), np.array([1.0]))

    def test_bad_window_rejected(self):
        with pytest.raises(ValidationError):
            dtw_distance(np.ones(3), np.ones(3), window=0)

    # Exact distances of the numpy-array implementation these replaced;
    # the float-list loop must reproduce them bit for bit (``==``), so
    # the detection verdicts built on them cannot move.
    def test_pinned_banded(self):
        rng = np.random.default_rng(2026)
        pulses = znormalize(square_wave_template(48, 8, 0.3)
                            + rng.normal(0, 0.2, 48))
        template = znormalize(square_wave_template(48, 8, 0.3))
        assert dtw_distance(pulses, template, window=4) == (
            0.14849040991912701)

    def test_pinned_unbanded(self):
        rng = np.random.default_rng(2026)
        a, b = rng.normal(0, 1, 25), rng.normal(0, 1, 25)
        assert dtw_distance(a, b) == 0.41885206422076593

    def test_pinned_unequal_lengths(self):
        rng = np.random.default_rng(2026)
        a, b = rng.normal(0, 1, 20), rng.normal(0, 1, 33)
        assert dtw_distance(a, b, window=3) == 0.4481507557934436


class TestTemplate:
    def test_duty_cycle_fraction(self):
        template = square_wave_template(100, 10, 0.3)
        assert template[:3].sum() == 3
        assert template.mean() == pytest.approx(0.3)

    def test_period_repeats(self):
        template = square_wave_template(40, 8, 0.25)
        assert np.array_equal(template[:8], template[8:16])

    def test_validation(self):
        with pytest.raises(ValidationError):
            square_wave_template(0, 10, 0.3)
        with pytest.raises(ValidationError):
            square_wave_template(10, 0, 0.3)
        with pytest.raises(ValidationError):
            square_wave_template(10, 5, 1.5)


class TestDetector:
    def synthetic_trace(self, *, period=0.5, extent=0.1, bin_width=0.02,
                        duration=25.0, rate=30e6, base=10e6, seed=2):
        rng = np.random.default_rng(seed)
        n_bins = int(duration / bin_width)
        series = rng.normal(base, base * 0.15, n_bins) * bin_width / 8.0
        for start in np.arange(0.0, duration, period):
            lo = int(start / bin_width)
            hi = int((start + extent) / bin_width)
            series[lo:hi] += rate * bin_width / 8.0
        return np.clip(series, 0, None)

    def test_detects_pulse_train(self):
        detector = DTWPulseDetector(sample_period=0.1)
        verdict = detector.detect(self.synthetic_trace(), 0.02)
        assert verdict.detected
        assert verdict.best_period == pytest.approx(0.5, rel=0.25)

    def test_ignores_flat_traffic(self):
        rng = np.random.default_rng(5)
        series = rng.normal(15e6, 1e6, 1250) * 0.02 / 8.0
        detector = DTWPulseDetector(sample_period=0.1)
        assert not detector.detect(series, 0.02).detected

    def test_constant_series_not_detected(self):
        series = np.full(1250, 1000.0)
        detector = DTWPulseDetector(sample_period=0.1)
        verdict = detector.detect(series, 0.02)
        assert not verdict.detected

    def test_blind_when_sampling_exceeds_extent(self):
        """The paper's criticism of [8]: sub-sample pulses average away."""
        trace = self.synthetic_trace(period=2.0, extent=0.05, rate=100e6,
                                     duration=60.0)
        fast = DTWPulseDetector(sample_period=0.1, max_period=4.0)
        slow = DTWPulseDetector(sample_period=2.0, max_period=8.0)
        assert fast.detect(trace, 0.02).detected
        assert not slow.detect(trace, 0.02).detected

    def test_insufficient_samples_reports_nothing(self):
        trace = self.synthetic_trace(duration=10.0)
        slow = DTWPulseDetector(sample_period=1.0)
        verdict = slow.detect(trace, 0.02)
        assert not verdict.detected
        assert verdict.best_period is None

    def test_resample_aggregates_bins(self):
        detector = DTWPulseDetector(sample_period=0.1)
        series = np.ones(100)
        out = detector.resample(series, 0.02)
        assert len(out) == 20
        assert np.all(out == 5.0)

    def test_resample_too_short_rejected(self):
        detector = DTWPulseDetector(sample_period=10.0)
        with pytest.raises(ValidationError):
            detector.resample(np.ones(3), 0.02)

    def test_period_range_validated(self):
        with pytest.raises(ValidationError):
            DTWPulseDetector(sample_period=0.1, min_period=2.0, max_period=1.0)
