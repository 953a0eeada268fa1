"""Defense experiments: randomized RTO and CHOKe hardening."""

import pytest

from repro.core.classify import GainComparison, GainRegime
from repro.experiments.base import GainCurve, GainPoint
from repro.experiments.defenses import (
    AQMHardeningResult,
    RTODefenseResult,
    run_aqm_hardening,
    run_rto_randomization,
)
from repro.util.errors import ValidationError


def curve(label, gammas, gain):
    points = [GainPoint(gamma=g, period=1.0, analytic_gain=gain,
                        measured_gain=gain, measured_degradation=0.5,
                        is_shrew=False) for g in gammas]
    return GainCurve(
        label=label, rate_bps=3e7, extent=0.1, kappa=1.0, c_psi=0.1,
        points=points,
        comparison=GainComparison(GainRegime.NORMAL, 0.0, 0.0, len(points)),
    )


class TestRTORandomization:
    @pytest.fixture(scope="class")
    def result(self):
        # Short window keeps the test fast; the effect is large.
        return run_rto_randomization(window=15.0)

    def test_defends_timeout_based_attack(self, result):
        """The reference-[7] defense works against the shrew attack."""
        assert result.shrew_recovery() > 0.25

    def test_weak_against_aimd_based_attack(self, result):
        """... but, per Section 1.1, not against the AIMD-based attack."""
        assert result.aimd_recovery() < result.shrew_recovery() / 2

    def test_render_mentions_both_attacks(self, result):
        text = result.render()
        assert "timeout-based" in text
        assert "AIMD-based" in text


class TestAQMHardening:
    def test_choke_reduces_attacker_gain(self):
        result = run_aqm_hardening(gammas=[0.5, 0.7])
        assert result.mean_gain_reduction() > 0.0
        assert "CHOKe" in result.render()

    def test_matched_grids_difference_pointwise(self):
        result = AQMHardeningResult(red=curve("RED", [0.3, 0.5], 0.4),
                                    choke=curve("CHOKe", [0.3, 0.5], 0.1))
        assert result.mean_gain_reduction() == pytest.approx(0.3)

    @pytest.mark.parametrize("choke_gammas", [[0.3], [0.3, 0.6]])
    def test_mismatched_grids_rejected(self, choke_gammas):
        result = AQMHardeningResult(red=curve("RED", [0.3, 0.5], 0.4),
                                    choke=curve("CHOKe", choke_gammas, 0.1))
        with pytest.raises(ValidationError,
                           match=r"RED \[0.3, 0.5\], CHOKe \[0.3"):
            result.mean_gain_reduction()

    def test_damage_lower_under_choke_at_high_rate(self):
        result = run_aqm_hardening(gammas=[0.7])
        red_damage = result.red.points[0].measured_degradation
        choke_damage = result.choke.points[0].measured_degradation
        assert choke_damage < red_damage
