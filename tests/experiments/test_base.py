"""Experiment machinery: platforms, sweeps, renderers."""

import dataclasses

import numpy as np
import pytest

from repro.core.classify import GainRegime
from repro.core.throughput import c_psi
from repro.experiments.base import (
    DumbbellPlatform,
    TestbedPlatform,
    default_gammas,
    full_scale,
    render_curve_table,
    run_gain_sweep,
)
from repro.experiments.multi_bottleneck import ParkingLotPlatform
from repro.runner import Cell, ExperimentRunner
from repro.sim.tcp import AIMDParams
from repro.sim.topology import ParkingLotConfig
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms


class TestScaleSwitch:
    def test_default_is_scaled_down(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_scale()
        assert len(default_gammas()) == 5

    def test_full_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_scale()
        assert len(default_gammas()) == 9

    def test_explicit_count(self):
        assert len(default_gammas(3)) == 3


class TestPlatforms:
    def test_dumbbell_victims_match_topology(self):
        platform = DumbbellPlatform(n_flows=7)
        victims = platform.victim_population()
        assert victims.n_flows == 7
        assert victims.delayed_ack == 2          # the analysis d
        assert platform.min_rto == 1.0           # ns-2 default
        assert platform.bottleneck_bps == mbps(15)

    def test_testbed_victims_match_topology(self):
        platform = TestbedPlatform(n_flows=4)
        victims = platform.victim_population()
        assert victims.n_flows == 4
        assert platform.min_rto == pytest.approx(0.2)
        assert platform.bottleneck_bps == mbps(10)

    def test_dumbbell_queue_choices(self):
        DumbbellPlatform(queue="red")
        DumbbellPlatform(queue="droptail")
        with pytest.raises(ValidationError):
            DumbbellPlatform(queue="codel")

    def test_parking_lot_matches_its_config(self):
        platform = ParkingLotPlatform(n_flows=5, seed=3, n_segments=2,
                                      cross_flows=1,
                                      segment_rates_bps=(mbps(20), mbps(12)))
        config = ParkingLotConfig(
            long_flows=5, seed=3, n_segments=2, cross_flows=1,
            segment_rates_bps=(mbps(20), mbps(12)),
        )
        assert platform.bottleneck_bps == config.contested_rate_bps()
        victims = platform.victim_population()
        assert np.array_equal(victims.rtts, config.draw_rtts()[0])
        assert victims.delayed_ack == 2
        assert platform.min_rto == 1.0

    def test_parking_lot_rejects_bad_queue_and_spec_fields(self):
        with pytest.raises(ValidationError, match="queue"):
            ParkingLotPlatform(queue="codel")
        with pytest.raises(ValidationError, match="long_flows"):
            ParkingLotPlatform(n_flows=8, long_flows=4)

    def test_baseline_goodput_positive(self):
        cell = Cell(platform=DumbbellPlatform(n_flows=3), warmup=2.0,
                    window=4.0)
        assert ExperimentRunner().measure(cell).goodput_bytes > 0

    def test_measurement_is_deterministic(self):
        cell = Cell(platform=DumbbellPlatform(n_flows=3, seed=5),
                    warmup=2.0, window=3.0)
        # Two runners: the second cannot answer from the first's memo.
        first = ExperimentRunner().measure(cell)
        second = ExperimentRunner().measure(cell)
        assert first == second

    def test_victim_population_carries_the_stack_aimd(self):
        """C_ψ (Eq. 11) sees the victims' own AIMD(a, b), not (1, 0.5)."""
        friendly = AIMDParams.tcp_friendly(0.875)
        tcp = dataclasses.replace(DumbbellPlatform().tcp, aimd=friendly)
        platform = DumbbellPlatform(n_flows=5, tcp=tcp)
        victims = platform.victim_population()
        assert victims.aimd == friendly
        assert victims.delayed_ack == 2
        standard = DumbbellPlatform(n_flows=5).victim_population()
        args = dict(extent=ms(100), rate_bps=mbps(30),
                    bottleneck_bps=platform.bottleneck_bps)
        assert c_psi(standard, **args) == pytest.approx(0.311, abs=1e-3)
        assert c_psi(victims, **args) == pytest.approx(0.486, abs=1e-3)


class TestSpecAgreesWithBuiltNetwork:
    """What the analytics read from a spec is what its network runs."""

    @pytest.mark.parametrize("spec", [
        DumbbellPlatform(n_flows=4, seed=2),
        TestbedPlatform(n_flows=3, seed=2),
        ParkingLotPlatform(n_flows=3, seed=2, n_segments=2, cross_flows=1,
                           segment_rates_bps=(mbps(20), mbps(12)),
                           attack_segments=(0, 1)),
    ], ids=["dumbbell", "testbed", "parking_lot"])
    def test_rate_rtts_and_min_rto(self, spec):
        net = spec.build()
        assert net.bottleneck.rate_bps == spec.bottleneck_bps
        rtts = spec.victim_population().rtts
        assert len(net.flow_rtts()) == len(rtts) == spec.n_flows
        assert list(net.flow_rtts()) == list(rtts)
        assert {sender.rto_estimator.min_rto
                for sender in net.senders} == {spec.min_rto}


class TestGainSweep:
    @pytest.fixture(scope="class")
    def curve(self):
        platform = DumbbellPlatform(n_flows=5, seed=21)
        return run_gain_sweep(
            platform,
            rate_bps=mbps(30),
            extent=ms(100),
            gammas=[0.3, 0.5, 0.7],
            warmup=3.0,
            window=8.0,
            label="unit-test",
        )

    def test_points_cover_gammas(self, curve):
        assert [p.gamma for p in curve.points] == [0.3, 0.5, 0.7]

    def test_periods_follow_eq4(self, curve):
        for point in curve.points:
            expected = 30e6 * 0.1 / (point.gamma * 15e6)
            assert point.period == pytest.approx(expected)

    def test_measured_degradation_in_unit_range(self, curve):
        for point in curve.points:
            assert -0.5 < point.measured_degradation <= 1.0

    def test_attack_actually_degrades(self, curve):
        assert max(p.measured_degradation for p in curve.points) > 0.2

    def test_gain_is_degradation_times_risk(self, curve):
        for point in curve.points:
            expected = point.measured_degradation * (1 - point.gamma)
            assert point.measured_gain == pytest.approx(expected)

    def test_classification_present(self, curve):
        assert curve.comparison.regime in GainRegime

    def test_render_table_mentions_label(self, curve):
        table = render_curve_table([curve], title="My title")
        assert "My title" in table
        assert "unit-test" in table
        assert "gamma" in table

    def test_peaks(self, curve):
        peak = curve.peak_measured()
        assert peak.measured_gain == max(p.measured_gain for p in curve.points)

    def test_arrays(self, curve):
        assert curve.gammas().shape == (3,)
        assert curve.analytic().shape == (3,)
        assert curve.measured().shape == (3,)

    def test_plot_renders_both_series(self, curve):
        text = curve.plot()
        assert "measured" in text
        assert "analytic" in text
        assert "|" in text
