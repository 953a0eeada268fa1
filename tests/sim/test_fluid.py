"""Fluid (ODE) backend: config mapping, cross-validation, determinism.

The fluid model is a γ-landscape localizer, so the cross-validation
tests hold it to exactly that contract against the packet engine: the
unattacked steady-state goodput must agree closely (both saturate the
bottleneck), and the γ* ordering on a coarse grid must be preserved.
Absolute attacked goodput is gated separately -- and more loosely -- by
``benchmarks/test_bench_model_accuracy.py``.
"""

import dataclasses
import math

import pytest

from repro.core.attack import PulseTrain
from repro.runner import Cell, PlatformSpec
from repro.runner.cells import execute_cell, goodput_rate
from repro.sim.fluid import (
    FluidScenario,
    scenario_from_config,
    simulate_fluid,
)
from repro.sim.tcp import TCPConfig
from repro.sim.topology import DumbbellConfig
from repro.testbed.dummynet import TestbedConfig
from repro.util.errors import ValidationError
from repro.util.units import mbps, ms

BOTTLENECK = mbps(15)


def make_train(gamma, *, extent=ms(100), rate_bps=mbps(25), window=8.0):
    period = PulseTrain.period_from_gamma(
        gamma=gamma, rate_bps=rate_bps, extent=extent,
        bottleneck_bps=BOTTLENECK,
    )
    return PulseTrain.from_gamma(
        gamma=gamma, rate_bps=rate_bps, extent=extent,
        bottleneck_bps=BOTTLENECK,
        n_pulses=int(math.ceil(window / period)) + 2,
    )


class TestScenarioMapping:
    def test_dumbbell_red_maps_rtts_and_threshold(self):
        config = DumbbellConfig(n_flows=4, seed=0)
        scenario = scenario_from_config(config)
        assert scenario.rtts == tuple(config.flow_rtts())
        assert scenario.service_bps == config.bottleneck_rate_bps
        assert scenario.buffer_bytes == config.buffer_bytes
        # RED signals loss at its max threshold, not the full buffer.
        assert scenario.loss_threshold_bytes == pytest.approx(
            0.8 * config.buffer_bytes)

    def test_dumbbell_droptail_uses_the_full_buffer(self):
        config = DumbbellConfig(n_flows=4, seed=0, queue="droptail")
        scenario = scenario_from_config(config)
        assert scenario.loss_threshold_bytes == pytest.approx(
            config.buffer_bytes)

    @pytest.mark.parametrize("config, fraction", [
        (DumbbellConfig(n_flows=4, seed=0, queue="choke"), 0.8),
        (TestbedConfig(n_flows=3, seed=0, queue="droptail"), 1.0),
        (TestbedConfig(n_flows=3, seed=0, queue="red"), 0.8),
    ], ids=["dumbbell-choke", "testbed-droptail", "testbed-red"])
    def test_loss_threshold_follows_queue(self, config, fraction):
        # RED and CHOKe drop early; drop-tail loses at the full buffer.
        # (The dumbbell's RED and drop-tail cases are the tests above.)
        scenario = scenario_from_config(config)
        assert scenario.buffer_bytes == config.buffer_bytes
        assert scenario.loss_threshold_bytes == fraction * config.buffer_bytes

    def test_testbed_maps_pipe_parameters(self):
        config = TestbedConfig(n_flows=3, seed=0)
        scenario = scenario_from_config(config)
        assert len(scenario.rtts) == 3
        assert scenario.service_bps == config.pipe.bandwidth_bps
        assert scenario.buffer_bytes == config.pipe.queue_bytes

    @pytest.mark.parametrize("kwargs", [
        dict(rtts=()),
        dict(rtts=(0.0,)),
        dict(service_bps=0.0),
        dict(buffer_bytes=0.0),
        dict(loss_threshold_bytes=2e6),  # exceeds the buffer
    ])
    def test_bad_scenarios_rejected(self, kwargs):
        fields = dict(
            rtts=(0.05,), service_bps=mbps(15), buffer_bytes=1e6,
            loss_threshold_bytes=8e5, tcp=TCPConfig(),
        )
        fields.update(kwargs)
        with pytest.raises(ValidationError):
            FluidScenario(**fields)


class TestCrossValidation:
    def test_unattacked_goodput_matches_the_packet_engine(self):
        # Both backends saturate the unattacked bottleneck, so the
        # steady-state goodput rates must agree closely.
        spec = PlatformSpec(kind="dumbbell", n_flows=3, seed=1)
        packet = Cell(platform=spec, warmup=2.0, window=8.0)
        fluid = dataclasses.replace(packet, backend="fluid")
        packet_rate = goodput_rate(packet, execute_cell(packet))
        fluid_rate = goodput_rate(fluid, execute_cell(fluid))
        assert fluid_rate == pytest.approx(packet_rate, rel=0.05)

    def test_gamma_star_ordering_preserved_on_a_coarse_grid(self):
        # The planner pre-pass contract: the fluid argmax of
        # G = deg * (1 - gamma) must land within one grid step of the
        # packet argmax on a 5-point grid.
        spec = PlatformSpec(kind="dumbbell", n_flows=5, seed=1)
        grid = (0.1, 0.3, 0.5, 0.7, 0.9)

        def gains(backend):
            base = Cell(platform=spec, warmup=2.0, window=8.0,
                        backend=backend)
            base_rate = goodput_rate(base, execute_cell(base))
            out = {}
            for gamma in grid:
                cell = dataclasses.replace(base, train=make_train(gamma))
                rate = goodput_rate(cell, execute_cell(cell))
                out[gamma] = (1.0 - rate / base_rate) * (1.0 - gamma)
            return out

        packet_gains = gains("packet")
        fluid_gains = gains("fluid")
        packet_star = max(grid, key=packet_gains.get)
        fluid_star = max(grid, key=fluid_gains.get)
        assert abs(fluid_star - packet_star) <= 0.2 + 1e-9


class TestFluidDynamics:
    def test_attack_degrades_goodput(self):
        scenario = scenario_from_config(DumbbellConfig(n_flows=5, seed=0))
        base = simulate_fluid(scenario, warmup=2.0, window=8.0)
        attacked = simulate_fluid(
            scenario, warmup=2.0, window=8.0,
            sources=((make_train(0.5), 0.0),),
        )
        assert attacked.goodput_bytes < base.goodput_bytes
        assert attacked.loss_events > base.loss_events

    def test_long_pulses_freeze_short_rtt_flows(self):
        scenario = scenario_from_config(DumbbellConfig(n_flows=5, seed=0))
        attacked = simulate_fluid(
            scenario, warmup=2.0, window=8.0,
            sources=((make_train(0.7, extent=ms(100)), 0.0),),
        )
        assert attacked.rto_events > 0

    def test_attack_starts_after_warmup(self):
        # The forcing term is offset by the warm-up, matching how the
        # packet backend launches attacks: a train whose pulses all end
        # inside a longer warm-up must not touch the window.
        scenario = scenario_from_config(DumbbellConfig(n_flows=3, seed=0))
        base = simulate_fluid(scenario, warmup=6.0, window=4.0)
        early = simulate_fluid(
            scenario, warmup=6.0, window=4.0,
            sources=((make_train(0.9, window=2.0), -6.0),),
        )
        # All pulses fired before t=6 (offset -6 puts them at t=0..2,
        # covering none of the window); steady state recovers by t=6.
        assert early.goodput_bytes == pytest.approx(
            base.goodput_bytes, rel=0.05)

    def test_bit_identical_across_runs(self):
        scenario = scenario_from_config(DumbbellConfig(n_flows=5, seed=0))
        kwargs = dict(warmup=2.0, window=8.0,
                      sources=((make_train(0.5), 0.0),))
        first = simulate_fluid(scenario, **kwargs)
        second = simulate_fluid(scenario, **kwargs)
        assert first == second  # exact, floats included

    def test_seed_does_not_influence_fluid_results(self):
        # The fluid model consumes no randomness: different platform
        # seeds map onto the same scenario and the same bytes.
        a = Cell(platform=PlatformSpec(kind="dumbbell", n_flows=3, seed=1),
                 warmup=1.0, window=4.0, backend="fluid")
        b = dataclasses.replace(
            a, platform=PlatformSpec(kind="dumbbell", n_flows=3, seed=99))
        assert execute_cell(a).goodput_bytes == execute_cell(b).goodput_bytes

    @pytest.mark.parametrize("kwargs", [
        dict(warmup=-1.0, window=8.0),
        dict(warmup=1.0, window=0.0),
        dict(warmup=1.0, window=8.0, max_step=0.0),
    ])
    def test_bad_arguments_rejected(self, kwargs):
        scenario = scenario_from_config(DumbbellConfig(n_flows=2, seed=0))
        with pytest.raises(ValidationError):
            simulate_fluid(scenario, **kwargs)
