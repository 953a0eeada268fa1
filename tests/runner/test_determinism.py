"""End-to-end determinism: repeated runs are bit-identical.

The hot-path engine work (C-compared heap entries, inlined admits,
memoized serialization times) is only valid if it changes *nothing*
observable: every float metric and every packet-level trace must come
out bit-identical run over run.  These tests pin that property at the
experiment level (fig01 / fig06 metrics) and at the wire level (a full
per-packet trace of the bottleneck).
"""

import numpy as np

from repro.core.attack import PulseTrain
from repro.runner import ExperimentRunner, set_default_runner
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.util.units import mbps, ms


class TestFig01Determinism:
    def test_metrics_bit_identical(self):
        from repro.experiments.fig01_cwnd import run_fig01

        first = run_fig01(n_pulses=6)
        second = run_fig01(n_pulses=6)
        # Exact equality, not approx: the runs must be bit-identical.
        # (repr-compare: the steady mean is NaN at smoke scale, and the
        # identity must hold for that bit pattern too.)
        assert repr(first.measured_steady_mean) == repr(second.measured_steady_mean)
        assert np.array_equal(np.asarray(first.epochs), np.asarray(second.epochs))
        assert first.render() == second.render()


class TestFig06Determinism:
    def test_metrics_bit_identical(self):
        from repro.experiments.fig06_09_gain import run_gain_figure

        kwargs = dict(flow_counts=[2], extents=[ms(100)], gammas=(0.4, 0.7))
        previous = set_default_runner(None)
        try:
            # Fresh runner per run so the second pass re-executes every
            # cell instead of being served from the first run's memo.
            set_default_runner(ExperimentRunner(jobs=1))
            first = run_gain_figure(6, **kwargs)
            set_default_runner(ExperimentRunner(jobs=1))
            second = run_gain_figure(6, **kwargs)
        finally:
            set_default_runner(previous)

        for a, b in zip(first.all_curves(), second.all_curves()):
            assert [p.measured_degradation for p in a.points] == [
                p.measured_degradation for p in b.points
            ]
            assert [p.measured_gain for p in a.points] == [
                p.measured_gain for p in b.points
            ]
        assert first.render() == second.render()


class CellAtATimeRunner(ExperimentRunner):
    """A runner that gives every cell its own unit: no forks at all.

    A one-cell unit runs :func:`~repro.runner.execute_cell`, so this is
    the from-scratch reference for a whole figure.
    """

    def _plan_units(self, pending):
        return [[(key, cell)] for key, cell in pending.items()]


class TestWarmStartDeterminism:
    def test_gain_figure_identical_with_and_without_warm_start(self):
        # The figure drivers funnel every measurement through the
        # default runner; warm-start scheduling there must be invisible
        # in the rendered output and in every per-point metric.
        from repro.experiments.fig06_09_gain import run_gain_figure

        kwargs = dict(flow_counts=[2], extents=[ms(100)], gammas=(0.4, 0.7))
        previous = set_default_runner(None)
        try:
            warm_runner = ExperimentRunner(jobs=1)
            set_default_runner(warm_runner)
            warm = run_gain_figure(6, **kwargs)
            cold_runner = CellAtATimeRunner(jobs=1)
            set_default_runner(cold_runner)
            cold = run_gain_figure(6, **kwargs)
        finally:
            set_default_runner(previous)

        assert warm_runner.stats.warm_starts > 0  # the fast path ran
        assert cold_runner.stats.warm_starts == 0

        for a, b in zip(warm.all_curves(), cold.all_curves()):
            assert [p.measured_degradation for p in a.points] == [
                p.measured_degradation for p in b.points
            ]
            assert [p.measured_gain for p in a.points] == [
                p.measured_gain for p in b.points
            ]
        assert warm.render() == cold.render()


class TestFluidIsolation:
    def test_packet_path_identical_with_fluid_imported(self):
        # The default (packet, planner-off) path must stay bit-identical
        # when the fluid module is merely imported -- the fluid backend
        # touches no Simulator or Packet state, so loading it (or even
        # running it) cannot perturb a packet measurement.
        from repro.experiments.fig06_09_gain import run_gain_figure

        kwargs = dict(flow_counts=[2], extents=[ms(100)], gammas=(0.4, 0.7))
        previous = set_default_runner(None)
        try:
            set_default_runner(ExperimentRunner(jobs=1))
            clean = run_gain_figure(6, **kwargs)

            import repro.sim.fluid  # noqa: F401 -- the import is the test

            set_default_runner(ExperimentRunner(jobs=1))
            loaded = run_gain_figure(6, **kwargs)
        finally:
            set_default_runner(previous)

        for a, b in zip(clean.all_curves(), loaded.all_curves()):
            assert [p.measured_degradation for p in a.points] == [
                p.measured_degradation for p in b.points
            ]
        assert clean.render() == loaded.render()

    def test_packet_cells_unaffected_by_interleaved_fluid_cells(self):
        # Running fluid cells between packet cells in the same runner
        # must not change the packet bytes (no shared RNG, no shared
        # engine state, distinct memo keys).
        from repro.runner import Cell, PlatformSpec

        spec = PlatformSpec(kind="dumbbell", n_flows=2, seed=7)
        packet = Cell(platform=spec, warmup=1.0, window=2.0)
        fluid = Cell(platform=spec, warmup=1.0, window=2.0,
                     backend="fluid")

        alone = ExperimentRunner(jobs=1).measure(packet)
        runner = ExperimentRunner(jobs=1)
        runner.measure(fluid)
        interleaved = runner.measure(packet)
        assert interleaved.goodput_bytes == alone.goodput_bytes
        assert runner.stats.fluid_cells == 1


class TestPacketTraceDeterminism:
    @staticmethod
    def _traced_run():
        """A short attacked dumbbell with every bottleneck arrival row.

        The rows carry each arrival's time, occupancy, signed size,
        flow and verdict; the final state digest covers what they do
        not (the packet uid stream and every sender).
        """
        config = DumbbellConfig(n_flows=3, seed=23)
        net = build_dumbbell(config)
        trace = []
        net.bottleneck.arrival_tap = trace.append
        train = PulseTrain.from_gamma(
            gamma=0.5, rate_bps=mbps(30), extent=ms(100),
            bottleneck_bps=config.bottleneck_rate_bps, n_pulses=10,
        )
        net.add_attack(train, start_time=1.0)
        net.start_flows()
        for source in net.attack_sources:
            source.start()
        net.run(until=4.0)
        return trace, net.state_digest()

    def test_trace_bit_identical(self):
        first, first_digest = self._traced_run()
        second, second_digest = self._traced_run()
        assert len(first) > 500  # the trace is non-trivial
        assert not all(row[5] for row in first)  # and has drops
        # Tuple equality is exact on every field, floats included.
        assert first == second
        assert first_digest == second_digest
