"""``repro obs report``: summarize experiment stores.

Renders a fixed-width table with one row per experiment record
(:meth:`repro.obs.store.ExperimentStore.experiment_records`) -- name,
wall time, runner cell accounting (with the cache-hit ratio), engine
throughput, and the goodput the experiment's cells delivered (summed
over its distinct cells) -- followed by a totals line.  Fields a record
lacks render as ``-``; the report never fails on a sparse store (an
experiment killed mid-run has no wall time yet).

``sort`` orders rows by arrival time (default), name, or elapsed wall
time; ``last`` keeps only the N most recent records, so accumulated
stores stay readable.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, List, Optional, Sequence, Union

__all__ = ["render_report", "summarize_records", "SORT_CHOICES"]

#: valid ``sort`` values (the CLI's ``--sort`` choices).
SORT_CHOICES = ("time", "name", "elapsed")


def _fmt(value: Optional[float], spec: str = ".1f") -> str:
    return "-" if value is None else format(value, spec)


def _metric(record: dict, name: str) -> Optional[float]:
    value = (record.get("metrics") or {}).get(name)
    return float(value) if isinstance(value, (int, float)) else None


def _runner_field(record: dict, name: str) -> Optional[float]:
    value = (record.get("runner") or {}).get(name)
    return float(value) if isinstance(value, (int, float)) else None


class _Row:
    """One reporting row, with every field optional."""

    def __init__(self, record: dict) -> None:
        self.name = str(record.get("name", "?"))
        self.elapsed = record.get("elapsed_seconds")
        if not isinstance(self.elapsed, (int, float)):
            self.elapsed = None
        self.timestamp = record.get("timestamp")
        if not isinstance(self.timestamp, (int, float)):
            self.timestamp = None
        self.cells = _runner_field(record, "cells")
        self.hit_ratio = _runner_field(record, "hit_ratio")
        self.warm_starts = _runner_field(record, "warm_starts")
        self.warmup_seconds_saved = _runner_field(
            record, "warmup_seconds_saved")
        self.planner_cells_saved = _runner_field(
            record, "planner_cells_saved")
        self.planner_seeds_saved = _runner_field(
            record, "planner_seeds_saved")
        self.truncated_cells = _runner_field(record, "truncated_cells")
        self.truncated_sim_seconds = _runner_field(
            record, "truncated_sim_seconds")
        self.fluid_cells = _runner_field(record, "fluid_cells")
        self.events = _metric(record, "engine.events_dispatched")
        wall = _metric(record, "engine.wall_seconds")
        self.events_per_sec = (
            self.events / wall if self.events and wall else None
        )
        self.goodput = record.get("goodput_bytes")
        if not isinstance(self.goodput, (int, float)):
            self.goodput = None


_COLUMNS = (
    ("name", 18, "<"),
    ("wall s", 8, ">"),
    ("cells", 6, ">"),
    ("hit %", 6, ">"),
    ("events", 10, ">"),
    ("kev/s", 7, ">"),
    ("goodput MB", 11, ">"),
)


def _format_row(values: Sequence[str]) -> str:
    parts = []
    for (_, width, align), value in zip(_COLUMNS, values):
        parts.append(format(value, f"{align}{width}"))
    return "  ".join(parts).rstrip()


def summarize_records(records: Iterable[dict], *, sort: str = "time",
                      last: Optional[int] = None) -> str:
    """The report body for an iterable of experiment records.

    *sort*: ``"time"`` keeps arrival order (stores append
    chronologically), ``"name"`` sorts alphabetically, ``"elapsed"``
    sorts by wall time, most expensive first.  *last* keeps only the N
    most recent records (applied before sorting).
    """
    if sort not in SORT_CHOICES:
        raise ValueError(f"sort must be one of {SORT_CHOICES}, got {sort!r}")
    rows = [_Row(r) for r in records]
    if last is not None:
        if last < 0:
            raise ValueError(f"last must be >= 0, got {last}")
        rows = rows[len(rows) - last:] if last else []
    if sort == "name":
        rows.sort(key=lambda r: r.name)
    elif sort == "elapsed":
        rows.sort(key=lambda r: (r.elapsed is None, -(r.elapsed or 0.0)))
    lines = [
        _format_row([header for header, _, _ in _COLUMNS]),
        _format_row(["-" * width for _, width, _ in _COLUMNS]),
    ]
    for row in rows:
        lines.append(_format_row([
            row.name[:18],
            _fmt(row.elapsed),
            _fmt(row.cells, ".0f"),
            _fmt(None if row.hit_ratio is None else 100.0 * row.hit_ratio,
                 ".0f"),
            _fmt(row.events, ".0f"),
            _fmt(None if row.events_per_sec is None
                 else row.events_per_sec / 1e3, ".0f"),
            _fmt(None if row.goodput is None else row.goodput / 1e6, ".2f"),
        ]))
    if not rows:
        lines.append("(no experiment records)")
        return "\n".join(lines)

    total_elapsed = sum(r.elapsed for r in rows if r.elapsed is not None)
    total_cells = sum(r.cells for r in rows if r.cells is not None)
    total_events = sum(r.events for r in rows if r.events is not None)
    footer = (
        f"\n{len(rows)} records; {total_elapsed:.1f}s wall, "
        f"{total_cells:.0f} cells, {total_events:.0f} engine events"
    )
    total_warm = sum(r.warm_starts for r in rows
                     if r.warm_starts is not None)
    if total_warm:
        total_saved = sum(r.warmup_seconds_saved for r in rows
                          if r.warmup_seconds_saved is not None)
        footer += (
            f"; {total_warm:.0f} warm starts saved {total_saved:.0f}s "
            "of simulated warm-up"
        )

    def _total(field: str) -> float:
        return sum(value for r in rows
                   if (value := getattr(r, field)) is not None)

    planner_cells = _total("planner_cells_saved")
    planner_seeds = _total("planner_seeds_saved")
    if planner_cells or planner_seeds:
        footer += (
            f"; planner saved {planner_cells:.0f} grid cells + "
            f"{planner_seeds:.0f} seeds"
        )
    truncated = _total("truncated_cells")
    if truncated:
        footer += (
            f"; {truncated:.0f} early exits truncated "
            f"{_total('truncated_sim_seconds'):.0f}s of simulation"
        )
    fluid = _total("fluid_cells")
    if fluid:
        footer += f"; {fluid:.0f} cells on the fluid backend"
    lines.append(footer)
    return "\n".join(lines)


def render_report(paths: Sequence[Union[str, pathlib.Path]], *,
                  sort: str = "time", last: Optional[int] = None) -> str:
    """Render one combined report over experiment stores."""
    from repro.obs.store import open_readonly

    records: List[dict] = []
    for path in paths:
        with open_readonly(path) as store:
            records.extend(store.experiment_records())
    header = "experiment-store report: " + ", ".join(str(p) for p in paths)
    return header + "\n" + summarize_records(records, sort=sort, last=last)
