"""Parallel, cached experiment execution.

Every gain figure repeats one deterministic measurement -- build a
scenario, warm it up, measure goodput over a window, with or without an
attack -- across many independent (platform, γ, attack) cells.  This
package turns that structure into throughput:

* :mod:`repro.runner.cells` defines the picklable unit of work
  (:class:`Cell`) and its pure executor;
* :mod:`repro.runner.cache` persists results on disk under a content
  hash of the full scenario plus a code-version fingerprint;
* :mod:`repro.runner.runner` fans cells out across worker processes and
  layers an in-process memo plus the disk cache in front of execution,
  grouping cache misses by shared warm-up prefix so each prefix
  simulates once and every other cell forks from its frozen snapshot.

Cells are deterministic given their spec (every scenario is seeded and
rebuilt from scratch -- or forked from a deterministic warm-up snapshot
-- per measurement), so a cell run serially, in a worker process, warm-
started, or replayed from cache yields bit-identical goodput.
"""

from repro.runner.cache import (
    ResultCache,
    cell_key,
    code_version,
    default_cache_dir,
)
from repro.runner.cells import (
    Cell,
    CellResult,
    DeploymentSpec,
    GroupResult,
    PlatformSpec,
    execute_cell,
    execute_cell_group,
    goodput_rate,
    measured_seconds,
    warmup_key,
)
from repro.runner.planner import (
    PlannedPoint,
    PlannedSweep,
    PlannerPolicy,
    active_policy,
    fast_mode,
    run_planned_sweep,
)
from repro.runner.runner import (
    CellTiming,
    DryRunPlan,
    ExperimentRunner,
    PlanEntry,
    RunnerStats,
    check_jobs,
    get_default_runner,
    set_default_runner,
)

__all__ = [
    "Cell",
    "CellResult",
    "CellTiming",
    "DeploymentSpec",
    "DryRunPlan",
    "ExperimentRunner",
    "GroupResult",
    "PlanEntry",
    "PlannedPoint",
    "PlannedSweep",
    "PlannerPolicy",
    "PlatformSpec",
    "ResultCache",
    "RunnerStats",
    "active_policy",
    "cell_key",
    "check_jobs",
    "code_version",
    "default_cache_dir",
    "execute_cell",
    "execute_cell_group",
    "fast_mode",
    "get_default_runner",
    "goodput_rate",
    "measured_seconds",
    "run_planned_sweep",
    "set_default_runner",
    "warmup_key",
]
