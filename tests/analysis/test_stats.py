"""Fairness index and per-flow damage summaries."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import FlowDamage, jain_fairness_index, per_flow_damage
from repro.util.errors import ValidationError


class TestJainIndex:
    def test_equal_shares_are_fair(self):
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_monopoly_is_one_over_n(self):
        assert jain_fairness_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_vacuously_fair(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_scale_invariant(self):
        base = [1.0, 2.0, 3.0]
        assert jain_fairness_index(base) == pytest.approx(
            jain_fairness_index([x * 7 for x in base])
        )

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30))
    def test_bounded(self, allocations):
        index = jain_fairness_index(allocations)
        assert 1.0 / len(allocations) - 1e-9 <= index <= 1.0 + 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            jain_fairness_index([1.0, -0.1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            jain_fairness_index([])


class TestFlowDamage:
    def test_degradation(self):
        damage = FlowDamage(rtt=0.1, baseline_bytes=100.0, attacked_bytes=25.0)
        assert damage.degradation == pytest.approx(0.75)

    def test_zero_baseline(self):
        damage = FlowDamage(rtt=0.1, baseline_bytes=0.0, attacked_bytes=0.0)
        assert damage.degradation == 0.0

    def test_pairing(self):
        records = per_flow_damage([0.1, 0.2], [100.0, 200.0], [50.0, 100.0])
        assert len(records) == 2
        assert records[1].rtt == 0.2
        assert records[1].degradation == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            per_flow_damage([0.1], [1.0, 2.0], [0.5])


class TestMeanCI:
    # n = 2..4 covers the planner's FAST_POLICY (at most 3 seeds) and
    # replication's three default seeds.
    @pytest.mark.parametrize("n", [2, 3, 4, 10])
    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_known_halfwidth(self, confidence, n):
        import math

        import numpy as np
        from scipy import stats as sps

        from repro.analysis.stats import mean_ci_halfwidth

        samples = [float(i) for i in range(1, n + 1)]
        # Bit for bit: the quantile must be exactly scipy.stats.t.ppf's.
        expected = float(sps.t.ppf(0.5 + confidence / 2.0, df=n - 1)
                         * np.std(samples, ddof=1) / math.sqrt(n))
        assert mean_ci_halfwidth(samples, confidence) == expected

    def test_single_sample_is_unbounded(self):
        from repro.analysis.stats import mean_ci_halfwidth

        assert mean_ci_halfwidth([2.5]) == float("inf")

    def test_zero_variance_is_zero_width(self):
        from repro.analysis.stats import mean_ci_halfwidth

        assert mean_ci_halfwidth([0.3, 0.3, 0.3]) == 0.0

    def test_bad_inputs_rejected(self):
        from repro.analysis.stats import mean_ci_halfwidth

        with pytest.raises(ValidationError):
            mean_ci_halfwidth([])
        with pytest.raises(ValidationError):
            mean_ci_halfwidth([1.0, 2.0], confidence=1.0)


class TestTTable:
    def test_entries_are_stdtrit_bit_for_bit(self):
        from scipy.special import stdtrit

        from repro.analysis.stats import _T975

        assert len(_T975) == 9
        for df, critical in enumerate(_T975, start=1):
            assert critical == stdtrit(df, 0.975)
            assert critical == stdtrit(df, 0.5 + 0.95 / 2.0)


class TestCIStable:
    @pytest.mark.parametrize("kwargs", [
        dict(rel_tol=float("nan")),
        dict(rel_tol=0.0),
        dict(rel_tol=0.1, scale_floor=float("nan")),
        dict(rel_tol=0.1, scale_floor=-1.0),
    ])
    def test_bad_inputs_rejected(self, kwargs):
        from repro.analysis.stats import ci_stable

        name = "scale_floor" if "scale_floor" in kwargs else "rel_tol"
        with pytest.raises(ValidationError, match=name):
            ci_stable([1.0, 1.01, 0.99], **kwargs)

    def test_stable_when_halfwidth_within_tolerance(self):
        from repro.analysis.stats import ci_stable

        assert ci_stable([1.0, 1.01, 0.99], rel_tol=0.1)
        assert not ci_stable([1.0, 2.0, 0.5], rel_tol=0.1)

    def test_single_sample_never_stable(self):
        from repro.analysis.stats import ci_stable

        assert not ci_stable([1.0], rel_tol=10.0)

    def test_scale_floor_rescues_near_zero_means(self):
        from repro.analysis.stats import ci_stable

        # Mean ~0 makes any finite CI "relatively" huge; the floor
        # supplies the scale the quantity is judged against.
        samples = [0.001, -0.001, 0.0005]
        assert not ci_stable(samples, rel_tol=0.15)
        assert ci_stable(samples, rel_tol=0.15, scale_floor=0.1)
