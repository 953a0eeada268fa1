"""Profiling instrumentation for the simulator hot path.

Wraps any zero-argument workload (typically one of the experiment
runners from :mod:`repro.experiments`) in :mod:`cProfile` and reports

* wall-clock time,
* events dispatched by every :class:`~repro.sim.engine.Simulator`
  constructed during the workload (via
  :func:`repro.sim.engine.total_events_dispatched`),
* the resulting events/sec throughput,
* which scheduler backends the workload's simulators used (via
  :func:`repro.sim.engine.scheduler_builds`), and
* the top functions by cumulative time.

Profiling is observation only: the workload runs exactly once, with the
same arithmetic and the same RNG draws, so its results are identical to
an unprofiled run (cProfile hooks call events; it never reorders or
repeats them).  The CLI exposes this as ``repro --profile <experiment>``.
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import pstats
import time
from typing import Any, Callable, Tuple

from repro.sim.engine import scheduler_builds, total_events_dispatched

__all__ = ["ProfileReport", "profile_run"]


@dataclasses.dataclass(frozen=True)
class ProfileReport:
    """Outcome of one profiled workload."""

    label: str
    wall_seconds: float
    events_executed: int
    calls_profiled: int
    top_functions: str
    #: simulators built per scheduler backend during the workload
    #: (``(("heap", 3), ("calendar", 1))``); heap-to-calendar
    #: migrations count toward "calendar" too, so the line names the
    #: structure that ran.
    scheduler_builds: Tuple[Tuple[str, int], ...] = ()

    @property
    def events_per_sec(self) -> float:
        """Scheduler throughput; 0.0 when nothing was simulated."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.wall_seconds

    def render(self) -> str:
        """Human-readable report block."""
        builds = ", ".join(
            f"{name}={count}" for name, count in self.scheduler_builds
        ) or "none"
        lines = [
            f"=== profile: {self.label} ===",
            f"wall time        : {self.wall_seconds:.3f} s",
            f"events executed  : {self.events_executed}",
            f"events/sec       : {self.events_per_sec:,.0f}",
            f"scheduler builds : {builds}",
            f"calls profiled   : {self.calls_profiled}",
            "top functions by cumulative time:",
            self.top_functions.rstrip(),
        ]
        return "\n".join(lines)


def profile_run(
    workload: Callable[[], Any],
    *,
    label: str = "workload",
    top: int = 25,
    sort: str = "cumulative",
) -> Tuple[Any, ProfileReport]:
    """Run *workload* under cProfile; return ``(result, report)``.

    The workload's return value is passed through untouched so callers
    can keep using it (the CLI prints the experiment rendering first and
    the profile block after it).
    """
    events_before = total_events_dispatched()
    builds_before = scheduler_builds()
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = workload()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    events = total_events_dispatched() - events_before
    builds_after = scheduler_builds()
    builds = tuple(
        (name, builds_after[name] - builds_before.get(name, 0))
        for name in sorted(builds_after)
        if builds_after[name] - builds_before.get(name, 0)
    )

    stats_buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=stats_buffer)
    stats.sort_stats(sort)
    stats.print_stats(top)
    report = ProfileReport(
        label=label,
        wall_seconds=wall,
        events_executed=events,
        calls_profiled=int(stats.total_calls),
        top_functions=stats_buffer.getvalue(),
        scheduler_builds=builds,
    )
    return result, report
