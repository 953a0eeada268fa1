"""The process-pool executor with layered memo + disk caching.

:class:`ExperimentRunner` takes batches of independent
:class:`~repro.runner.cells.Cell` measurements and resolves each from,
in order: an in-process memo (covers e.g. the shared no-attack baseline
of a multi-curve figure), the on-disk :class:`ResultCache`, and finally
execution -- inline, or fanned out across worker processes when
``jobs > 1``.  Identical cells inside one batch are deduplicated before
dispatch, so a figure whose curves share a baseline measures it once.

Warm-start scheduling: cells that miss every cache are grouped by
:func:`~repro.runner.cells.warmup_key` -- the identity of their shared
attack-free warm-up prefix -- and each group simulates the prefix once,
then forks every member from a frozen
:class:`~repro.sim.checkpoint.NetworkSnapshot` (see
:func:`~repro.runner.cells.execute_cell_group`).  A gain sweep whose
cells differ only in the attack train pays for one warm-up instead of
one per cell.  Results are bit-identical to from-scratch execution
(:func:`~repro.runner.cells.execute_cell` per cell, which the tests
use as the reference) and the cache keys are unchanged.

Determinism: cells carry their own seeds and are rebuilt from scratch
(or forked from a deterministic prefix) per execution, so worker
placement and completion order cannot change any result -- only
wall-clock time.  Parallel runs split a group into contiguous chunks,
each re-simulating the prefix; chunking therefore trades some warm-up
sharing for parallelism without affecting any result.

Crash recovery: a worker that dies mid-batch (OOM kill, SIGKILL) breaks
the whole process pool.  The runner then drops the broken pool and
resubmits every unit it has not yet absorbed to a fresh one, once; the
same determinism makes the re-executed results bit-identical.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import logging
import math
import multiprocessing
import os
import socket
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import metrics as _obs
from repro.runner.cache import ResultCache, cell_key
from repro.runner.cells import (
    ARRIVAL_BIN_WIDTH,
    Cell,
    CellResult,
    GroupResult,
    execute_cell_group,
    warmup_key,
)
from repro.util.env import env_int, env_str
from repro.util.errors import ReproError, ValidationError

__all__ = ["CellTiming", "DryRunPlan", "PlanEntry", "RunnerStats",
           "ExperimentRunner", "check_jobs", "get_default_runner",
           "set_default_runner"]

_log = logging.getLogger("repro.runner")

#: fresh pools a parallel batch may start after a worker dies mid-batch.
_POOL_RETRIES = 1


def check_jobs(value, *, source: str = "jobs") -> int:
    """Validate a worker count at an API/CLI boundary.

    *source* names the flag or parameter in the error (``--jobs``,
    ``jobs``), mirroring how ``REPRO_JOBS`` parsing names the variable.
    Accepts integers >= 1 only -- bools and other non-int types are
    rejected rather than coerced.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{source} must be an integer >= 1, got {value!r}"
        )
    if value < 1:
        raise ValidationError(f"{source} must be >= 1, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class CellTiming:
    """How one cell was resolved and how long it took."""

    key: str
    source: str  #: "executed", "cache", or "memo"
    elapsed: float


@dataclasses.dataclass
class RunnerStats:
    """Cumulative per-runner accounting (memo/cache hits, sim time).

    Beyond the hit counters this tracks the telemetry the observability
    layer reports: distinct scenario seeds fanned out, and -- for
    parallel batches -- busy worker-seconds against available
    worker-seconds (:attr:`worker_utilization`).
    """

    executed: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    executed_seconds: float = 0.0
    #: cells measured on a warm-start fork instead of a fresh warm-up.
    warm_starts: int = 0
    #: warm-up prefixes actually simulated (one per executed group chunk).
    warmup_sims: int = 0
    #: simulated warm-up seconds avoided by forking.
    warmup_seconds_saved: float = 0.0
    #: dense-grid cells the planner never had to simulate.
    planner_cells_saved: int = 0
    #: seed replicas the planner's CI stopping left unspent.
    planner_seeds_saved: int = 0
    #: executed cells whose window a convergence monitor ended early.
    truncated_cells: int = 0
    #: simulated seconds those early exits avoided.
    truncated_sim_seconds: float = 0.0
    #: executed cells resolved on the fluid (ODE) backend.
    fluid_cells: int = 0
    timings: List[CellTiming] = dataclasses.field(default_factory=list)
    #: distinct platform seeds seen across all measured cells.
    seeds: Set[int] = dataclasses.field(default_factory=set)
    parallel_batches: int = 0
    #: wall-clock seconds spent inside parallel batches.
    parallel_wall_seconds: float = 0.0
    #: sum of per-cell execution seconds inside parallel batches.
    parallel_busy_seconds: float = 0.0
    #: workers x wall for each parallel batch (the available capacity).
    parallel_worker_seconds: float = 0.0

    def record(self, key: str, source: str, elapsed: float = 0.0) -> None:
        self.timings.append(CellTiming(key=key, source=source, elapsed=elapsed))
        if source == "executed":
            self.executed += 1
            self.executed_seconds += elapsed
        elif source == "cache":
            self.cache_hits += 1
        else:
            self.memo_hits += 1

    @property
    def cells(self) -> int:
        return self.executed + self.cache_hits + self.memo_hits

    @property
    def hit_ratio(self) -> float:
        """Fraction of cells answered without execution (cache + memo)."""
        total = self.cells
        if total == 0:
            return 0.0
        return (self.cache_hits + self.memo_hits) / total

    @property
    def worker_utilization(self) -> Optional[float]:
        """Busy / available worker time over parallel batches, or None.

        ``None`` until at least one multi-cell batch has fanned out --
        serial execution has no idle workers to account for.
        """
        if self.parallel_worker_seconds <= 0.0:
            return None
        return self.parallel_busy_seconds / self.parallel_worker_seconds

    def checkpoint(self) -> Tuple:
        """An opaque marker for :meth:`since` / :meth:`delta_snapshot`."""
        return tuple(getattr(self, name) for name in _COUNTERS)

    def delta_snapshot(self, mark: Tuple) -> dict:
        """JSON-ready accounting of the work done since *mark*."""
        delta = {name: getattr(self, name) - base
                 for name, base in zip(_COUNTERS, mark)}
        hits = delta["cache_hits"] + delta["memo_hits"]
        total = delta["executed"] + hits
        return {"cells": total, "hit_ratio": (hits / total) if total else 0.0,
                **delta}

    def snapshot(self) -> dict:
        """JSON-ready cumulative accounting (feeds the store / metrics)."""
        snap = self.delta_snapshot(_ZERO_MARK)
        snap.update({
            "seed_fanout": len(self.seeds),
            "parallel_batches": self.parallel_batches,
            "parallel_wall_seconds": self.parallel_wall_seconds,
            "parallel_busy_seconds": self.parallel_busy_seconds,
            "worker_utilization": self.worker_utilization,
        })
        return snap

    def since(self, mark: Tuple) -> str:
        """Human-readable delta summary since *mark*."""
        delta = self.delta_snapshot(mark)
        line = (
            f"cells: {delta['cells']} ({delta['executed']} executed in "
            f"{delta['executed_seconds']:.1f}s sim, "
            f"{delta['cache_hits']} cache hits, "
            f"{delta['memo_hits']} memo hits; "
            f"{100.0 * delta['hit_ratio']:.0f}% hit ratio)"
        )
        if delta["warm_starts"]:
            line += (
                f"; {delta['warm_starts']} warm starts saved "
                f"{delta['warmup_seconds_saved']:.0f}s of simulated warm-up"
            )
        if delta["planner_cells_saved"] or delta["planner_seeds_saved"]:
            line += (
                f"; planner: {delta['planner_cells_saved']} grid cells + "
                f"{delta['planner_seeds_saved']} seeds saved"
            )
        if delta["truncated_cells"]:
            line += (
                f"; {delta['truncated_cells']} early exits truncated "
                f"{delta['truncated_sim_seconds']:.0f}s of simulation"
            )
        if delta["fluid_cells"]:
            line += (
                f"; {delta['fluid_cells']} cells on the fluid backend"
            )
        return line

    def summary(self) -> str:
        return self.since(_ZERO_MARK)


#: RunnerStats' additive counters: what a checkpoint marks and a delta
#: subtracts.  The names are the snapshot keys the store and benchmarks read.
_COUNTERS = ("executed", "cache_hits", "memo_hits", "executed_seconds",
             "warm_starts", "warmup_sims", "warmup_seconds_saved",
             "planner_cells_saved", "planner_seeds_saved", "truncated_cells",
             "truncated_sim_seconds", "fluid_cells")

#: A checkpoint mark taken before any work (the epoch baseline).
_ZERO_MARK = (0,) * len(_COUNTERS)


def local_worker_id() -> str:
    """This process's worker identity: ``hostname:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _execute_unit(cells: Tuple[Cell, ...], record: bool = False,
                  collect: bool = False) -> GroupResult:
    """Worker entry point: run one warm-up-sharing chunk of cells.

    With *record* set each packet cell carries a flight recorder and
    the returned :class:`GroupResult` ships the harvested series blobs
    back by value -- workers never touch the sqlite store; the parent
    process owns the only connection.  With *collect* set the unit runs
    under a fresh metrics registry, returned the same way for the
    parent to absorb; otherwise it runs with metrics off, even in a
    worker forked while an earlier experiment's registry was active.
    The result is stamped with the executing process's worker identity
    so straggler analysis (``repro obs query slowest-cells``) can
    attribute placement.
    """
    with _obs.collecting() as registry:
        if not collect:
            _obs.disable()  # the exit restores the caller's state
        group = execute_cell_group(cells, record=record)
    return dataclasses.replace(group, worker=local_worker_id(),
                               metrics=registry if collect else None)


@dataclasses.dataclass(frozen=True)
class PlanEntry:
    """One planned cell in a dry run: how it *would* resolve."""

    key: str
    warmup_key: str
    status: str  #: "execute", "cache", or "memo"
    cell: Cell


class DryRunPlan:
    """What a dry-run runner would have done, batch by batch.

    Collected instead of executing when :attr:`ExperimentRunner.dry_run`
    is set; rendered by the CLI's ``--dry-run``.  One entry per distinct
    content key; intra-batch duplicates only bump :attr:`duplicates`.
    """

    def __init__(self) -> None:
        self.entries: List[PlanEntry] = []
        self.duplicates = 0
        self.batches = 0

    def add(self, key: str, wkey: str, status: str, cell: Cell) -> None:
        self.entries.append(PlanEntry(key, wkey, status, cell))

    def render(self, start: int = 0,
               duplicates: Optional[int] = None) -> str:
        """Human-readable plan for entries from *start* onward.

        *duplicates* overrides the reported duplicate count (callers
        rendering a window of the plan pass the delta they observed).
        """
        entries = self.entries[start:]
        if not entries:
            return "dry run: no cells planned"
        counts = Counter(entry.status for entry in entries)
        head = (
            f"dry run: {len(entries)} cells planned -- "
            f"{counts.get('execute', 0)} to execute, "
            f"{counts.get('cache', 0)} cache hits, "
            f"{counts.get('memo', 0)} memo hits"
        )
        duplicates = self.duplicates if duplicates is None else duplicates
        if duplicates:
            head += f" (+{duplicates} duplicate cells batch-wide)"
        lines = [head]
        groups: Dict[str, List[PlanEntry]] = {}
        for entry in entries:
            if entry.status == "execute":
                groups.setdefault(entry.warmup_key, []).append(entry)
        lines.append(f"warm-up prefixes to simulate: {len(groups)}")
        for wkey, members in groups.items():
            tag = hashlib.sha256(wkey.encode()).hexdigest()[:8]
            info = json.loads(wkey)
            platform = info.get("platform") or {}
            fields = " ".join(
                f"{name}={platform[name]}"
                for name in ("kind", "n_flows", "seed")
                if name in platform
            )
            lines.append(
                f"  group {tag}: {fields} warmup={info.get('warmup')}s "
                f"-> {len(members)} cells"
            )
        return "\n".join(lines)


def _placeholder_result(cell: Cell) -> CellResult:
    """A stand-in for a cell a dry run chose not to execute.

    ``goodput_bytes == window`` makes every derived rate exactly 1.0,
    so downstream gain arithmetic stays finite without pretending to be
    a measurement.  The per-flow goodputs, arrival bins and initial cwnd
    rows are zeros of the real result's shape, and a mice workload
    launched none, so every driver runs to completion.
    """
    packet = cell.backend == "packet"
    n_flows = cell.platform.n_flows
    mice = dict(cell.platform.extra or ()).get("mice_interarrival")
    return CellResult(
        goodput_bytes=float(cell.window),
        flagged_sources=0 if cell.rate_floor_bps is not None else None,
        flow_goodput_bytes=(0.0,) * n_flows if packet else None,
        arrival_bytes=(
            (0.0,) * math.ceil(cell.window / ARRIVAL_BIN_WIDTH)
            if cell.arrival_series else None
        ),
        cwnd_rows=(
            tuple((float(cell.warmup), flow_id, 0.0)
                  for flow_id in range(n_flows))
            if cell.cwnd_series else None
        ),
        mice_launched=None if mice is None else 0,
        mice_fcts=None if mice is None else (),
    )


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ExperimentRunner:
    """Parallel, cached, warm-start-scheduled execution of cells.

    Args:
        jobs: worker processes for cache-missing cells; 1 runs inline.
            The pool is created on first parallel batch and reused until
            :meth:`close` (the runner is also a context manager).
        cache_dir: directory for the persistent result cache, or
            ``None`` to disable disk caching (the in-process memo is
            always on).
        dry_run: resolve memo/cache hits normally but *plan* (do not
            execute) everything else; see :class:`DryRunPlan`.
    """

    def __init__(self, *, jobs: int = 1, cache_dir=None,
                 dry_run: bool = False) -> None:
        self.jobs = check_jobs(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stats = RunnerStats()
        #: attached experiment store (sqlite), or None; see attach_store.
        self.store = None
        #: when True, executed packet cells carry a flight recorder and
        #: their harvested series land in the store.
        self.record_series = False
        #: when True, batches are planned, not executed; see DryRunPlan.
        self.dry_run = dry_run
        self.dry_run_plan = DryRunPlan()
        self._memo: Dict[str, CellResult] = {}
        #: placeholder results for cells a dry run "executed".
        self._dry_memo: Dict[str, CellResult] = {}
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def attach_store(self, store, *, record_series: bool = False) -> None:
        """Dual-write resolved cells into an experiment store.

        Every cell a batch resolves -- executed, cache hit, or memo
        hit -- gets one ``cells`` row (per distinct key per batch);
        with *record_series* each *executed* packet cell additionally
        carries a flight recorder whose harvested time series are
        stored alongside.  The store connection lives in this (parent)
        process only; worker processes return series by value.  Pass
        ``store=None`` to detach.
        """
        self.store = store
        self.record_series = bool(record_series) and store is not None

    # ------------------------------------------------------------------
    def measure(self, cell: Cell) -> CellResult:
        """Resolve one cell (memo -> disk cache -> execute)."""
        return self.measure_many([cell])[0]

    def measure_many(self, cells: Sequence[Cell]) -> List[CellResult]:
        """Resolve a batch, fanning cache misses out across workers.

        Results come back in input order.  Duplicate cells (same content
        key) are measured once and counted as memo hits thereafter.
        """
        # cell_key resolves the (memoized) per-backend code fingerprint.
        keys = [cell_key(cell) for cell in cells]
        if self.dry_run:
            return self._plan_dry_run(cells, keys)
        results: Dict[str, CellResult] = {}
        pending: Dict[str, Cell] = {}
        for key, cell in zip(keys, cells):
            self.stats.seeds.add(cell.platform.seed)
            if key in results or key in pending:
                # An intra-batch duplicate resolves to one measurement;
                # account for it, like any other avoided execution.
                self.stats.record(key, "memo")
                continue
            memo = self._memo.get(key)
            if memo is not None:
                results[key] = memo
                self.stats.record(key, "memo")
                self._record_store(key, cell, memo, "memo")
                _log.debug("cell %s: memo hit", key[:12])
                continue
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    results[key] = self._memo[key] = hit
                    self.stats.record(key, "cache")
                    self._record_store(key, cell, hit, "cache")
                    _log.debug("cell %s: cache hit", key[:12])
                    continue
            pending[key] = cell

        if pending:
            units = self._plan_units(pending)
            collect = _obs.active() is not None
            if self.jobs > 1 and len(units) > 1:
                self._execute_parallel(units, results, collect)
            else:
                for unit in units:
                    self._absorb_unit(unit, _execute_unit(
                        tuple(cell for _key, cell in unit),
                        self.record_series, collect), results)
        return [results[key] for key in keys]

    # ------------------------------------------------------------------
    # execution planning / bookkeeping
    # ------------------------------------------------------------------
    def _plan_units(
        self, pending: Dict[str, Cell],
    ) -> List[List[Tuple[str, Cell]]]:
        """Partition cache-missing cells into warm-up-sharing work units.

        Cells group by :func:`warmup_key`; serially each group is one
        unit (maximal sharing).  In parallel, groups are split into
        contiguous chunks -- each chunk pays one warm-up -- only as far
        as needed to keep all workers busy, so a single large sweep
        still saturates the pool while many small groups stay whole.
        Chunking cannot change results, only how often the (bit-
        identical) prefix is re-simulated.
        """
        groups: Dict[str, List[Tuple[str, Cell]]] = {}
        for key, cell in pending.items():
            groups.setdefault(warmup_key(cell), []).append((key, cell))
        ordered = list(groups.values())
        chunks_per_group = 1
        if self.jobs > 1 and len(ordered) < self.jobs:
            chunks_per_group = math.ceil(self.jobs / len(ordered))
        units: List[List[Tuple[str, Cell]]] = []
        for group in ordered:
            n_chunks = min(len(group), chunks_per_group)
            size = math.ceil(len(group) / n_chunks)
            units.extend(
                group[i:i + size] for i in range(0, len(group), size)
            )
        return units

    def _plan_dry_run(self, cells: Sequence[Cell],
                      keys: List[str]) -> List[CellResult]:
        """Classify a batch without executing anything.

        Memo and cache hits resolve to their real results; everything
        else gets a placeholder and a plan entry.  Nothing is recorded
        into stats, the memo, the cache, or the store -- a dry run must
        leave no trace a later real run would trip over.
        """
        plan = self.dry_run_plan
        plan.batches += 1
        results: Dict[str, CellResult] = {}
        for key, cell in zip(keys, cells):
            if key in results:
                plan.duplicates += 1
                continue
            hit = self._memo.get(key)
            if hit is not None:
                results[key] = hit
                plan.add(key, warmup_key(cell), "memo", cell)
                continue
            dry = self._dry_memo.get(key)
            if dry is not None:
                # A previous dry-run batch "executed" it; a real run
                # would find it in the memo by now.
                results[key] = dry
                plan.add(key, warmup_key(cell), "memo", cell)
                continue
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    results[key] = cached
                    plan.add(key, warmup_key(cell), "cache", cell)
                    continue
            placeholder = _placeholder_result(cell)
            results[key] = self._dry_memo[key] = placeholder
            plan.add(key, warmup_key(cell), "execute", cell)
        return [results[key] for key in keys]

    def _absorb_unit(self, unit: List[Tuple[str, Cell]],
                     group_result: GroupResult,
                     results: Dict[str, CellResult]) -> None:
        """Fold one executed unit into results, memo, cache, stats, metrics."""
        series = group_result.series or (None,) * len(unit)
        for (key, cell), result, elapsed, cell_series in zip(
            unit, group_result.results, group_result.elapsed, series,
        ):
            self._finish(key, cell, result, elapsed, cell_series,
                         worker=group_result.worker)
            results[key] = result
        stats = self.stats
        stats.warmup_sims += group_result.warmup_sims
        stats.warm_starts += group_result.warm_starts
        stats.warmup_seconds_saved += group_result.warmup_seconds_saved
        if group_result.metrics is not None:
            _obs.active().absorb(group_result.metrics)
        if group_result.warm_starts:
            _log.debug(
                "unit of %d cells: 1 warm-up + %d forks (saved %.0fs sim)",
                len(unit), group_result.warm_starts,
                group_result.warmup_seconds_saved,
            )

    # ------------------------------------------------------------------
    def _get_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        """The persistent worker pool, created on first parallel batch."""
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_mp_context(),
            )
        return self._pool

    def _execute_parallel(self, units: List[List[Tuple[str, Cell]]],
                          results: Dict[str, CellResult],
                          collect: bool) -> None:
        """Fan units out over the pool and absorb them as they finish.

        Every unit is its own future, drained with ``as_completed``, so
        a worker that finishes early simply takes the next unit.  A
        worker that dies breaks the pool for good: the broken pool is
        dropped and the units not yet absorbed are resubmitted to a
        fresh one, at most :data:`_POOL_RETRIES` times; after that the
        batch raises, naming the cells it could not finish.
        """
        cell_count = sum(len(unit) for unit in units)
        workers = min(self.jobs, len(units))
        _log.debug("fanning %d cells (%d units) over %d workers",
                   cell_count, len(units), workers)
        batch_started = time.perf_counter()
        busy = 0.0
        pending = dict(enumerate(units))
        for attempt in range(_POOL_RETRIES + 1):
            try:
                pool = self._get_pool()
                futures = {
                    pool.submit(
                        _execute_unit, tuple(cell for _key, cell in unit),
                        self.record_series, collect,
                    ): index
                    for index, unit in pending.items()
                }
                for future in concurrent.futures.as_completed(futures):
                    group_result = future.result()
                    busy += sum(group_result.elapsed)
                    self._absorb_unit(pending.pop(futures[future]),
                                      group_result, results)
                break
            except BrokenProcessPool as exc:
                self.close()
                if attempt == _POOL_RETRIES:
                    keys = [key for unit in pending.values()
                            for key, _cell in unit]
                    raise ReproError(
                        f"a worker process died on every attempt "
                        f"({attempt + 1}); {len(keys)} cells unfinished: "
                        + ", ".join(keys)
                    ) from exc
                _log.warning("[worker died mid-batch; resubmitting %d of "
                             "%d units to a fresh pool]",
                             len(pending), len(units))
        wall = time.perf_counter() - batch_started
        stats = self.stats
        stats.parallel_batches += 1
        stats.parallel_wall_seconds += wall
        stats.parallel_busy_seconds += busy
        stats.parallel_worker_seconds += workers * wall

    def _record_store(self, key: str, cell: Cell, result: CellResult,
                      source: str, elapsed=None, series=None,
                      worker=None) -> None:
        """One store row per resolved cell (no-op without a store)."""
        if self.store is not None:
            self.store.record_cell(key, cell, result, source=source,
                                   elapsed=elapsed, series=series,
                                   worker=worker)

    def _finish(self, key: str, cell: Cell, result: CellResult,
                elapsed: float, series=None, worker=None) -> None:
        self._memo[key] = result
        if self.cache is not None:
            self.cache.put(key, result, meta={
                "cell": cell.describe(), "elapsed": elapsed,
            })
        self.stats.record(key, "executed", elapsed)
        self._record_store(key, cell, result, "executed", elapsed, series,
                           worker)
        if cell.backend == "fluid":
            self.stats.fluid_cells += 1
        if result.converged_at is not None:
            self.stats.truncated_cells += 1
            self.stats.truncated_sim_seconds += (
                cell.warmup + cell.window - result.converged_at
            )
        _log.debug("cell %s: executed in %.2fs", key[:12], elapsed)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (if created).

        Idempotent; the runner remains usable afterwards (a new pool is
        created on the next parallel batch).
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# the process-wide default runner
# ----------------------------------------------------------------------
_default_runner: Optional[ExperimentRunner] = None


def get_default_runner() -> ExperimentRunner:
    """The runner measurements use when no explicit one is passed.

    Created lazily from the environment: ``REPRO_JOBS`` sets the worker
    count (default 1; must parse as an integer >= 1),
    ``REPRO_CACHE_DIR`` enables the disk cache at that location
    (default: memo only, no disk cache).
    """
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner(
            jobs=env_int("REPRO_JOBS", 1, minimum=1),
            cache_dir=env_str("REPRO_CACHE_DIR") or None,
        )
    return _default_runner


def set_default_runner(
    runner: Optional[ExperimentRunner],
) -> Optional[ExperimentRunner]:
    """Install *runner* as the default; returns the previous one.

    Pass ``None`` to reset to lazy environment-driven creation.
    """
    global _default_runner
    previous = _default_runner
    _default_runner = runner
    return previous
