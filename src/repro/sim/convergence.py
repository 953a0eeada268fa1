"""In-sim convergence early-exit: stop once the goodput estimate settles.

The paper's measurements run each scenario for a fixed window and read
the delivered payload at the horizon.  For most cells the windowed
goodput *rate* stabilizes long before the horizon -- the scenario is in
steady state (attacked or not) within a few congestion epochs -- so the
tail of the window buys no information.  :class:`GoodputConvergenceMonitor`
watches the cumulative goodput rate since the window opened and calls
:meth:`~repro.sim.engine.Simulator.stop` once the last few estimates
agree to a relative tolerance, recording *when* it stopped so callers
can normalize the partial-horizon byte count into a rate.

The monitor is strictly additive: it schedules its own check events on
the engine calendar and never touches packets, queues, or agents.  An
unconverged run dispatches the exact same network events as an
unmonitored one (the extra check events only shift the engine's seq
counter, which is not part of any measurement).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Optional

from repro.util.errors import ValidationError
from repro.util.validate import check_int, check_non_negative, check_positive

__all__ = ["ConvergenceConfig", "GoodputConvergenceMonitor"]


@dataclasses.dataclass(frozen=True)
class ConvergenceConfig:
    """When a windowed goodput estimate counts as converged.

    Attributes:
        check_interval: seconds between estimate checks.
        rel_tol: the last :attr:`stable_checks` estimates must all lie
            within this relative band of their mean.
        stable_checks: consecutive agreeing estimates required.
        min_fraction: fraction of the window that must elapse before the
            first check -- transients right after the attack starts must
            not pass for steady state.
        scale_floor: goodput-rate scale (bytes/s) below which the
            tolerance band stops shrinking, mirroring
            :func:`repro.analysis.stats.ci_stable`.  A purely relative
            band never admits near-zero but jittery goodput (fully
            starved flows emitting stray retransmits) -- exactly the
            cells early exit helps most.  The default is well under 1%
            of any bottleneck rate the paper's scenarios use; 0 restores
            the strictly relative criterion.
    """

    check_interval: float = 1.0
    rel_tol: float = 0.02
    stable_checks: int = 3
    min_fraction: float = 0.3
    scale_floor: float = 1e4

    def __post_init__(self) -> None:
        check_positive("check_interval", self.check_interval)
        check_positive("rel_tol", self.rel_tol)
        check_int("stable_checks", self.stable_checks, 2)
        if not 0.0 <= self.min_fraction < 1.0:
            raise ValidationError(
                f"min_fraction must be in [0, 1), got {self.min_fraction}"
            )
        check_non_negative("scale_floor", self.scale_floor)

    def describe(self) -> dict:
        """A JSON-serializable identity (feeds the cache key)."""
        return {
            "check_interval": self.check_interval,
            "rel_tol": self.rel_tol,
            "stable_checks": self.stable_checks,
            "min_fraction": self.min_fraction,
            "scale_floor": self.scale_floor,
        }


class GoodputConvergenceMonitor:
    """Stops a run early once the goodput rate estimate has stabilized.

    Attach to a warmed network just before opening the measurement
    window::

        monitor = GoodputConvergenceMonitor(
            net.sim, net.aggregate_goodput_bytes, config,
        )
        monitor.arm(start=warmup, horizon=warmup + window)
        net.run(until=warmup + window)
        # monitor.converged_at is None (ran to the horizon) or the stop time

    Attributes:
        converged_at: simulation time at which the run was stopped, or
            ``None`` while unconverged.
        checks_run: estimate checks performed so far.
    """

    def __init__(self, sim, goodput_fn: Callable[[], float],
                 config: ConvergenceConfig) -> None:
        self.sim = sim
        self.goodput_fn = goodput_fn
        self.config = config
        self.converged_at: Optional[float] = None
        self.checks_run = 0
        self._estimates: deque = deque(maxlen=config.stable_checks)
        self._start: Optional[float] = None
        self._start_bytes = 0.0
        self._horizon = 0.0

    def arm(self, *, start: float, horizon: float) -> None:
        """Start monitoring a window spanning [start, horizon].

        May be called any time at or before *start*: the baseline byte
        count is read by a scheduled event when the window actually
        opens, so bytes delivered between arming and *start* can never
        fold into the rate estimates.
        """
        if horizon <= start:
            raise ValidationError(
                f"horizon ({horizon}) must be after start ({start})"
            )
        if self.sim.now > start:
            raise ValidationError(
                f"cannot arm at t={self.sim.now} for a window starting "
                f"at t={start}"
            )
        self._start = start
        self._horizon = horizon
        if self.sim.now >= start:
            self._begin()
        else:
            self.sim.schedule_at(start, self._begin)

    # ------------------------------------------------------------------
    def _begin(self) -> None:
        """Window opening: snapshot the baseline, schedule the checks."""
        self._start_bytes = self.goodput_fn()
        first = self._start + max(
            self.config.min_fraction * (self._horizon - self._start),
            self.config.check_interval,
        )
        if first < self._horizon:
            self.sim.schedule_at(first, self._check)

    def _check(self) -> None:
        now = self.sim.now
        elapsed = now - self._start
        estimate = (self.goodput_fn() - self._start_bytes) / elapsed
        self._estimates.append(estimate)
        self.checks_run += 1
        if len(self._estimates) == self.config.stable_checks:
            mean = sum(self._estimates) / len(self._estimates)
            spread = max(self._estimates) - min(self._estimates)
            # The floor keeps the band non-degenerate for starved flows:
            # a few stray retransmits per window are steady state at
            # (effectively) zero, not an unconverged run.
            scale = max(mean, self.config.scale_floor)
            if spread <= self.config.rel_tol * scale:
                self.converged_at = now
                self.sim.stop()
                return
        next_check = now + self.config.check_interval
        if next_check < self._horizon:
            self.sim.schedule_at(next_check, self._check)
