"""Convergence monitor: early-exit semantics on synthetic goodput."""

import pytest

from repro.sim.convergence import ConvergenceConfig, GoodputConvergenceMonitor
from repro.sim.engine import Simulator
from repro.util.errors import ValidationError


class ByteSource:
    """A synthetic goodput counter fed by scheduled deposits."""

    def __init__(self, sim):
        self.sim = sim
        self.bytes = 0.0

    def deposit(self, amount):
        self.bytes += amount

    def feed_constant(self, *, rate, until, tick=0.1):
        t = tick
        while t <= until:
            self.sim.schedule_at(t, self.deposit, rate * tick)
            t += tick

    def feed_accelerating(self, *, until, tick=0.1):
        # Rate grows every tick: the cumulative-rate estimate never
        # settles inside any relative band.
        t, amount = tick, 100.0
        while t <= until:
            self.sim.schedule_at(t, self.deposit, amount)
            amount *= 1.5
            t += tick


class TestConfig:
    def test_defaults_validate(self):
        config = ConvergenceConfig()
        assert config.describe() == {
            "check_interval": 1.0, "rel_tol": 0.02,
            "stable_checks": 3, "min_fraction": 0.3,
            "scale_floor": 1e4,
        }

    @pytest.mark.parametrize("kwargs", [
        dict(check_interval=0.0),
        dict(rel_tol=-0.1),
        dict(stable_checks=1),
        dict(stable_checks=2.5),
        dict(stable_checks=True),
        dict(min_fraction=1.0),
        dict(min_fraction=-0.2),
        dict(scale_floor=-1.0),
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ConvergenceConfig(**kwargs)


class TestMonitor:
    def test_steady_rate_converges_early(self):
        sim = Simulator()
        source = ByteSource(sim)
        source.feed_constant(rate=1e6, until=20.0)
        monitor = GoodputConvergenceMonitor(
            sim, lambda: source.bytes, ConvergenceConfig())
        monitor.arm(start=0.0, horizon=20.0)
        sim.run(until=20.0)
        assert monitor.converged_at is not None
        # First check waits out min_fraction of the window, then
        # stable_checks estimates must agree.
        assert monitor.converged_at >= 0.3 * 20.0
        assert monitor.converged_at < 20.0
        # stop() left the clock at the exit time, not the horizon.
        assert sim.now == monitor.converged_at
        assert monitor.checks_run >= 3

    def test_accelerating_rate_runs_to_horizon(self):
        sim = Simulator()
        source = ByteSource(sim)
        source.feed_accelerating(until=10.0)
        monitor = GoodputConvergenceMonitor(
            sim, lambda: source.bytes,
            ConvergenceConfig(check_interval=0.5, min_fraction=0.1))
        monitor.arm(start=0.0, horizon=10.0)
        sim.run(until=10.0)
        assert monitor.converged_at is None
        assert sim.now == 10.0
        assert monitor.checks_run > 3  # it kept checking, never settled

    def test_flat_zero_goodput_converges(self):
        # A fully starved window (no bytes at all) is steady state at
        # zero, not an unconverged run.
        sim = Simulator()
        monitor = GoodputConvergenceMonitor(
            sim, lambda: 0.0, ConvergenceConfig())
        monitor.arm(start=0.0, horizon=30.0)
        sim.run(until=30.0)
        assert monitor.converged_at is not None
        assert monitor.converged_at < 30.0

    def test_window_offset_from_warmup(self):
        # Arming at a later start measures only post-start deposits:
        # warm-up bytes must not skew the estimate.
        sim = Simulator()
        source = ByteSource(sim)
        source.deposit(5e9)
        source.feed_constant(rate=2e6, until=26.0)
        monitor = GoodputConvergenceMonitor(
            sim, lambda: source.bytes, ConvergenceConfig())
        sim.schedule_at(6.0, lambda: monitor.arm(start=6.0, horizon=26.0))
        sim.run(until=26.0)
        assert monitor.converged_at is not None
        assert monitor.converged_at >= 6.0 + 0.3 * 20.0

    def test_arming_early_excludes_pre_window_bytes(self):
        # Regression: arm() used to read its baseline immediately, so
        # arming before the window opened folded every pre-window byte
        # into the estimates (here a huge burst at t=3 that would make
        # the cumulative rate decay and never settle).  The baseline
        # must be read when the window opens, not when arm() is called.
        sim = Simulator()
        source = ByteSource(sim)
        sim.schedule_at(3.0, source.deposit, 5e9)
        source.feed_constant(rate=2e6, until=26.0)
        monitor = GoodputConvergenceMonitor(
            sim, lambda: source.bytes, ConvergenceConfig())
        monitor.arm(start=6.0, horizon=26.0)  # armed at t=0, early
        sim.run(until=26.0)
        assert monitor.converged_at is not None
        assert monitor.converged_at >= 6.0 + 0.3 * 20.0

    def test_starved_jittery_goodput_converges_via_scale_floor(self):
        # Regression: a fully starved window with stray retransmits
        # (tens of bytes/s against a floor of 1e4 B/s) has spread > 0
        # but mean ~ 0, so the purely relative criterion never fired
        # and these cells -- the very ones early exit helps most -- ran
        # to the horizon.
        sim = Simulator()
        source = ByteSource(sim)
        for i, t in enumerate(range(1, 30, 2)):
            sim.schedule_at(float(t), source.deposit, 40.0 + 15.0 * (i % 3))
        monitor = GoodputConvergenceMonitor(
            sim, lambda: source.bytes, ConvergenceConfig())
        monitor.arm(start=0.0, horizon=30.0)
        sim.run(until=30.0)
        assert monitor.converged_at is not None
        assert monitor.converged_at < 30.0
        # The strictly relative criterion (floor disabled) never fires.
        sim2 = Simulator()
        source2 = ByteSource(sim2)
        for i, t in enumerate(range(1, 30, 2)):
            sim2.schedule_at(float(t), source2.deposit, 40.0 + 15.0 * (i % 3))
        strict = GoodputConvergenceMonitor(
            sim2, lambda: source2.bytes,
            ConvergenceConfig(scale_floor=0.0))
        strict.arm(start=0.0, horizon=30.0)
        sim2.run(until=30.0)
        assert strict.converged_at is None

    def test_too_short_window_never_checks(self):
        # If even the first check lands past the horizon, the monitor
        # schedules nothing and the run is simply exact.
        sim = Simulator()
        monitor = GoodputConvergenceMonitor(
            sim, lambda: 0.0, ConvergenceConfig(check_interval=5.0))
        monitor.arm(start=0.0, horizon=2.0)
        sim.run(until=2.0)
        assert monitor.checks_run == 0
        assert monitor.converged_at is None

    def test_arm_rejects_inverted_window(self):
        sim = Simulator()
        monitor = GoodputConvergenceMonitor(
            sim, lambda: 0.0, ConvergenceConfig())
        with pytest.raises(ValidationError):
            monitor.arm(start=5.0, horizon=5.0)

    def test_arm_rejects_late_attachment(self):
        sim = Simulator()
        sim.schedule_at(4.0, lambda: None)
        sim.run(until=4.0)
        monitor = GoodputConvergenceMonitor(
            sim, lambda: 0.0, ConvergenceConfig())
        with pytest.raises(ValidationError):
            monitor.arm(start=2.0, horizon=10.0)
