"""Multi-seed replication statistics."""

import pytest

from repro.analysis.stats import mean_ci_halfwidth
from repro.experiments.base import DumbbellPlatform
from repro.experiments.replication import replicate_gain_sweep
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def replicated():
    return replicate_gain_sweep(
        seeds=(3, 5, 7),
        platform_factory=lambda seed: DumbbellPlatform(n_flows=5, seed=seed),
        gammas=[0.5, 0.8],
        warmup=3.0,
        window=8.0,
    )


class TestReplication:
    def test_point_per_gamma(self, replicated):
        assert [p.gamma for p in replicated.points] == [0.5, 0.8]

    def test_ci_brackets_mean(self, replicated):
        for p in replicated.points:
            assert p.ci_low <= p.mean_gain <= p.ci_high
            assert p.ci_contains(p.mean_gain)

    def test_mean_is_sample_mean(self, replicated):
        for index, p in enumerate(replicated.points):
            samples = [
                c.points[index].measured_gain for c in replicated.curves
            ]
            assert p.mean_gain == pytest.approx(sum(samples) / len(samples))

    def test_ci_is_the_shared_t_interval(self, replicated):
        for index, p in enumerate(replicated.points):
            samples = [
                c.points[index].measured_gain for c in replicated.curves
            ]
            half_width = mean_ci_halfwidth(samples)
            assert p.ci_high == p.mean_gain + half_width
            assert p.ci_low == p.mean_gain - half_width

    def test_seeds_counted(self, replicated):
        assert all(p.n_seeds == 3 for p in replicated.points)

    def test_render(self, replicated):
        text = replicated.render()
        assert "95% CI" in text
        assert "seed" in text.lower()

    def test_max_ci_width_nonnegative(self, replicated):
        assert replicated.max_ci_width() >= 0.0

    def test_needs_two_seeds(self):
        with pytest.raises(ValidationError):
            replicate_gain_sweep(seeds=(1,), gammas=[0.5])

    def test_confidence_validated(self):
        with pytest.raises(ValidationError):
            replicate_gain_sweep(seeds=(1, 2), confidence=1.5, gammas=[0.5])
