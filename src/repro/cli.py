"""Command-line experiment runner: ``python -m repro.cli <experiment>``.

Runs any of the reproduction's experiments from the shell and prints
the rendered series -- the same output the benchmark harness archives.

Examples::

    python -m repro.cli list
    python -m repro.cli fig03a
    python -m repro.cli fig06 --full
    python -m repro.cli all -o results/

``--full`` sets ``REPRO_FULL=1`` for the invocation (paper-scale
sweeps); ``--fast`` sets ``REPRO_FAST=1``, routing gain sweeps through
the adaptive experiment planner (a fluid-model pre-pass that localizes
γ* in milliseconds before three packet cells confirm it, CI-driven seed
allocation, convergence early-exit -- approximate but several times
faster, under distinct cache keys);
``-o DIR`` additionally writes each rendering to ``DIR/<name>.txt``.

``--jobs N`` fans independent measurement cells out over N worker
processes (one persistent pool per invocation); ``--cache-dir DIR`` /
``--no-cache`` control the on-disk result cache (default:
``$XDG_CACHE_HOME/repro-pdos``).  Cells sharing an attack-free warm-up
prefix simulate it once and fork from a frozen snapshot.  Results are
bit-identical regardless of job count or cache state.

``--dry-run`` plans instead of executing: each experiment prints the
cells it would resolve -- executions, cache hits, memo hits -- and the
warm-up prefixes it would simulate, then exits without running any
simulation (cells that would execute resolve to placeholders).  It
refuses fast mode: the adaptive planner picks its cells from measured
gains, which a dry run does not have.

Observability: diagnostics go through the ``repro`` logger (``-v`` for
per-cell debug lines, ``-q`` for renderings only).  ``--store [PATH]``
writes telemetry to an sqlite experiment store (default
``runlog.sqlite``): one row per invocation (git SHA, argv, runner
accounting), one per experiment with its timings and a fresh metrics
registry's engine, link, TCP, and runner telemetry, and per-cell rows
keyed by the result cache's content-hash key.  Note: cells answered
from the cache or executed in worker processes contribute runner
metrics but no in-process engine/link/TCP metrics; run with
``--no-cache`` serially for a full simulation snapshot.

``repro obs report STORE [STORE...]`` renders a summary table from
stores (``--sort``/``--last`` order and trim the rows); ``repro obs
query`` runs raw SQL or the canned ``gamma-star``/``slowest-cells``/
``workers``/``cache-hits``/``drop-sync`` queries.  ``--record`` also
attaches the in-sim flight recorder (:mod:`repro.obs.recorder`) to
every executed packet cell and stores its time series -- arrival
rates, drops, queue depth, cwnd, recovery events -- for
``repro obs trace <cell> --export csv|npz``.  The store and the
recorder are passive: results stay bit-identical.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import logging
import os
import pathlib
import sys
import time
from typing import Callable, Dict

__all__ = ["main", "EXPERIMENTS"]

_log = logging.getLogger("repro.cli")

#: where ``--store`` writes when no path is given (keep in sync with
#: repro.obs.store.DEFAULT_STORE_NAME; not imported so ``--help`` stays
#: fast).
DEFAULT_STORE = pathlib.Path("runlog.sqlite")


#: experiment name -> (function, positional args).  The function's
#: result renders the experiment; :func:`_render` imports
#: :mod:`repro.experiments` on first use, so ``--help`` loads no driver.
_ENTRY_POINTS = {
    "fig01": ("run_fig01", ()),
    "fig02": ("run_fig02", ()),
    "fig03a": ("run_fig03_ns2", ()),
    "fig03b": ("run_fig03_testbed", ()),
    "fig04": ("run_fig04", ()),
    "fig06": ("run_gain_figure", (6,)),
    "fig07": ("run_gain_figure", (7,)),
    "fig08": ("run_gain_figure", (8,)),
    "fig09": ("run_gain_figure", (9,)),
    "fig10": ("run_fig10", ()),
    "fig12": ("run_fig12", ()),
    "ablation-queues": ("run_queue_ablation", ()),
    "ablation-model": ("run_model_ablation", ()),
    "ablation-victim": ("run_victim_ablation", ()),
    "flow-damage": ("run_flow_damage", ()),
    "distributed": ("run_distributed_attack", ()),
    "mice-elephants": ("run_mice_elephants", ()),
    "multi-bottleneck": ("run_multi_bottleneck", ()),
    "detection": ("run_detection_evasion", ()),
    "defense-rto": ("run_rto_randomization", ()),
    "defense-choke": ("run_aqm_hardening", ()),
    "replication": ("replicate_gain_sweep", ()),
}


def _render(function: str, args: tuple) -> str:
    drivers = importlib.import_module("repro.experiments")
    return getattr(drivers, function)(*args).render()


#: experiment name -> zero-argument runner returning rendered text.
EXPERIMENTS: Dict[str, Callable[[], str]] = {
    name: functools.partial(_render, *spec) for name, spec in _ENTRY_POINTS.items()
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the figures of 'Optimizing the Pulsing "
            "Denial-of-Service Attacks' (Luo & Chang, DSN 2005)."
        ),
        epilog=(
            "Store tooling: 'repro obs report STORE [STORE...]' renders "
            "a summary table from experiment stores (--store); 'repro "
            "obs query' runs canned or raw SQL queries against a store; "
            "'repro obs trace' exports a cell's recorded time series."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="experiment to run ('list' prints the catalogue, 'all' runs "
             "everything)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale sweeps (sets REPRO_FULL=1; much slower)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="adaptive experiment planner for gain sweeps (sets "
             "REPRO_FAST=1): a fluid-model pre-pass localizes gamma* in "
             "milliseconds, then packet-level cells confirm only the "
             "peak neighborhood, with CI-driven seed allocation and "
             "in-sim convergence early-exit; approximate results under "
             "distinct cache keys",
    )
    parser.add_argument(
        "-o", "--output-dir", type=pathlib.Path, default=None,
        help="also write each rendering to DIR/<name>.txt",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="run independent measurement cells on N worker processes "
             "(default: 1, serial)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="plan instead of executing: print each experiment's cells "
             "(to execute / cache hits / memo hits) and the warm-up "
             "prefixes it would simulate, then exit without simulating "
             "(exact mode only; not with --fast)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR, else "
             "$XDG_CACHE_HOME/repro-pdos)",
    )
    parser.add_argument(
        "--store", type=pathlib.Path, nargs="?", const=DEFAULT_STORE,
        default=None, metavar="PATH",
        help="write telemetry to an sqlite experiment store at PATH "
             f"(default: {DEFAULT_STORE}): runs, experiments, per-cell "
             "rows keyed by the result-cache content hash, and metrics; "
             "read it with 'repro obs report' or 'repro obs query'; "
             "place the flag after the experiment name when omitting "
             "PATH",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="with --store, attach the in-sim flight recorder to every "
             "executed packet cell and store its time series (arrival "
             "rate, drops, queue depth, cwnd, recovery) for "
             "'repro obs trace'; passive, results are bit-identical",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug logging (per-cell cache/execution lines)",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress/timing lines (renderings only)",
    )
    return parser


def _configure_logging(*, verbose: bool = False, quiet: bool = False) -> None:
    """Point the ``repro`` logger at the current stdout.

    Recreated on every :func:`main` call so repeated in-process
    invocations (tests, notebooks) follow stream redirection; renderings
    stay on plain ``print`` -- they are the program's output, while log
    lines are its diagnostics.
    """
    level = logging.DEBUG if verbose else (
        logging.WARNING if quiet else logging.INFO)
    logger = logging.getLogger("repro")
    logger.handlers.clear()
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False


def _make_runner(args):  # deferred import keeps `--help` fast
    from repro.runner import ExperimentRunner, check_jobs, default_cache_dir
    # Validated here rather than via an argparse type callable:
    # ValidationError is a ValueError, which argparse would swallow into
    # a bare exit-2 usage message instead of naming flag and value.
    check_jobs(args.jobs, source="--jobs")
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = default_cache_dir()
    return ExperimentRunner(jobs=args.jobs, cache_dir=cache_dir,
                            dry_run=args.dry_run)


def _run_one(name: str, output_dir, runner=None, store=None) -> None:
    from repro.obs import metrics as obs_metrics

    if runner is not None and runner.dry_run:
        # Plan only: run the experiment driver (it plans its batches
        # through the dry-run runner) and print the plan, not the
        # placeholder-derived rendering.
        plan = runner.dry_run_plan
        plan_mark, dup_mark = len(plan.entries), plan.duplicates
        started = time.time()
        EXPERIMENTS[name]()
        print(f"{name}:")
        print(plan.render(plan_mark, duplicates=plan.duplicates - dup_mark))
        _log.info("[%s: planned in %.1fs]\n", name, time.time() - started)
        return

    started = time.time()
    mark = runner.stats.checkpoint() if runner is not None else None
    registry = None
    if store is not None:
        # A fresh registry per experiment: each experiment row then
        # holds exactly one experiment's telemetry, not the whole
        # invocation's.  The row opens before any cell runs, because
        # cell rows attach to it.
        registry = obs_metrics.enable()
        store.begin_experiment(name, timestamp=started)
    try:
        text = EXPERIMENTS[name]()
    finally:
        if registry is not None:
            obs_metrics.disable()
    elapsed = time.time() - started
    print(text)
    if mark is not None:
        _log.info("[%s: %.1fs; %s]\n", name, elapsed,
                  runner.stats.since(mark))
    else:
        _log.info("[%s: %.1fs]\n", name, elapsed)
    if store is not None:
        store.finish_experiment(
            elapsed_seconds=elapsed,
            runner=(runner.stats.delta_snapshot(mark)
                    if mark is not None else None),
            metrics=registry.snapshot())
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / f"{name}.txt").write_text(text + "\n")


def _render_table(names, rows) -> str:
    """Fixed-width text table for query results (``None`` prints ``-``)."""
    if not names:
        return "(no results)"
    text = [[("-" if v is None else str(v)) for v in row] for row in rows]
    widths = [max([len(n)] + [len(row[i]) for row in text])
              for i, n in enumerate(names)]
    lines = ["  ".join(n.ljust(w) for n, w in zip(names, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in text:
        lines.append("  ".join(v.ljust(w)
                               for v, w in zip(row, widths)).rstrip())
    lines.append(f"({len(rows)} row{'' if len(rows) == 1 else 's'})")
    return "\n".join(lines)


def _obs_query(args) -> int:
    import sqlite3

    from repro.obs.store import CANNED_QUERIES, open_readonly

    try:
        store = open_readonly(args.store)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    with store:
        canned = CANNED_QUERIES.get(args.sql)
        try:
            if canned is not None:
                names, rows = getattr(store, canned[0])()
            else:
                names, rows = store.query(args.sql)
        except sqlite3.Error as exc:
            print(f"query failed: {exc}", file=sys.stderr)
            return 1
        if args.limit is not None:
            rows = rows[:args.limit]
        print(_render_table(names, rows))
    return 0


def _resolve_cell(store, token: str):
    """A ``cell_id`` from a numeric id or an unambiguous key prefix."""
    if token.isdigit():
        rows = store.query(
            "SELECT cell_id FROM cells WHERE cell_id = ?", (int(token),))[1]
        if rows:
            return int(token), None
        return None, f"no such cell_id: {token}"
    matches = store.find_cells(token)
    if not matches:
        return None, f"no cell matches key prefix {token!r}"
    if len(matches) > 1:
        listing = "\n".join(
            f"  {cid}  {key[:16]}...  {name} ({source})"
            for cid, key, name, source in matches[:10])
        return None, (f"key prefix {token!r} is ambiguous "
                      f"({len(matches)} cells):\n{listing}")
    return int(matches[0][0]), None


def _obs_trace(args) -> int:
    import numpy as np

    from repro.obs.store import open_readonly

    try:
        store = open_readonly(args.store)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    with store:
        cell_id, error = _resolve_cell(store, args.cell)
        if error:
            print(error, file=sys.stderr)
            return 1
        series = store.fetch_series(cell_id, args.series)
        if not series:
            what = (f"series {args.series!r}" if args.series
                    else "recorded series")
            print(f"cell {cell_id} has no {what} "
                  "(was the run made with --store --record?)",
                  file=sys.stderr)
            return 1
        if args.export is None:
            print(_render_table(
                ["name", "rows", "evicted", "columns"],
                [(s.name, s.n_rows, s.evicted, ",".join(s.columns))
                 for s in series]))
            return 0
        path = args.output
        if path is None:
            path = pathlib.Path(f"cell-{cell_id}.{args.export}")
        if args.export == "csv":
            if len(series) > 1:
                print("csv export needs exactly one series; pick one with "
                      "--series from: "
                      + ", ".join(s.name for s in series), file=sys.stderr)
                return 1
            item = series[0]
            # %.17g round-trips float64 exactly, so an exported series
            # re-parses bit-identical to the in-memory samples.
            np.savetxt(path, item.data, delimiter=",", fmt="%.17g",
                       header=",".join(item.columns), comments="")
        else:
            arrays = {}
            for item in series:
                arrays[item.name] = item.data
                arrays[item.name + ".columns"] = np.array(item.columns)
            np.savez(path, **arrays)
        print(f"wrote {len(series)} series "
              f"({sum(s.n_rows for s in series)} rows) -> {path}")
    return 0


def _obs_main(argv) -> int:
    """The ``repro obs ...`` tooling subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Inspect experiment stores (--store).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser(
        "report",
        help="render a summary table from experiment stores",
    )
    report.add_argument(
        "stores", nargs="+", type=pathlib.Path, metavar="STORE",
        help="sqlite experiment stores written by --store",
    )
    report.add_argument(
        "--sort", choices=("time", "name", "elapsed"), default="time",
        help="row order: arrival time (default), name, or wall time "
             "(most expensive first)",
    )
    report.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="keep only the N most recent records",
    )
    query = commands.add_parser(
        "query", help="run a canned or raw SQL query against a store",
    )
    query.add_argument(
        "sql",
        help="canned query name (gamma-star, slowest-cells, workers, "
             "cache-hits, drop-sync) or a raw SQL statement",
    )
    query.add_argument(
        "--store", type=pathlib.Path, default=DEFAULT_STORE, metavar="PATH",
        help=f"experiment store to query (default: {DEFAULT_STORE})",
    )
    query.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="print at most N result rows",
    )
    trace = commands.add_parser(
        "trace", help="list or export a cell's recorded time series",
    )
    trace.add_argument(
        "cell", help="cell_id or content-hash key prefix (see "
                     "'repro obs query slowest-cells')",
    )
    trace.add_argument(
        "--series", default=None, metavar="NAME",
        help="series name (e.g. link.bottleneck.queue); default: all",
    )
    trace.add_argument(
        "--export", choices=("csv", "npz"), default=None,
        help="write the series to a file instead of listing them "
             "(csv needs exactly one series)",
    )
    trace.add_argument(
        "-o", "--output", type=pathlib.Path, default=None, metavar="PATH",
        help="export path (default: cell-<id>.<ext>)",
    )
    trace.add_argument(
        "--store", type=pathlib.Path, default=DEFAULT_STORE, metavar="PATH",
        help=f"experiment store to read (default: {DEFAULT_STORE})",
    )
    args = parser.parse_args(argv)
    if args.command == "query":
        return _obs_query(args)
    if args.command == "trace":
        return _obs_trace(args)
    from repro.obs.report import render_report
    from repro.obs.store import is_store

    rejected = [path for path in args.stores if not is_store(path)]
    if rejected:
        print("not an experiment store: "
              + ", ".join(str(p) for p in rejected), file=sys.stderr)
        return 1
    print(render_report(args.stores, sort=args.sort, last=args.last))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    args = build_parser().parse_args(argv)
    _configure_logging(verbose=args.verbose, quiet=args.quiet)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.record and args.store is None:
        print("--record requires --store (it records into the store)",
              file=sys.stderr)
        return 2
    if args.dry_run and (args.store is not None or args.record):
        print("--dry-run plans only; it cannot be combined with --store "
              "or --record", file=sys.stderr)
        return 2
    from repro.util.env import env_flag

    if args.dry_run and (args.fast or env_flag("REPRO_FAST")):
        # The planner picks its next gammas from measured gains, which a
        # dry run only has as placeholders: its plan would be fiction.
        print("--dry-run cannot plan fast mode (--fast or REPRO_FAST=1): "
              "the adaptive planner chooses cells from measured results",
              file=sys.stderr)
        return 2
    if args.full:
        os.environ["REPRO_FULL"] = "1"
    if args.fast:
        os.environ["REPRO_FAST"] = "1"
    from repro.runner import set_default_runner
    runner = _make_runner(args)
    set_default_runner(runner)
    store = None
    if args.store is not None:
        from repro.obs.store import ExperimentStore, git_sha

        store = ExperimentStore(args.store)
        store.begin_run(
            args.experiment, argv=argv, git_sha=git_sha(),
            full=env_flag("REPRO_FULL"),
        )
        runner.attach_store(store, record_series=args.record)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    run_started = time.time()
    try:
        for name in names:
            _run_one(name, args.output_dir, runner, store=store)
    finally:
        # Tear down the persistent worker pool once all experiments in
        # this invocation have drained it.
        runner.close()
        if store is not None:
            store.finish_run(elapsed_seconds=time.time() - run_started,
                             runner=runner.stats.snapshot())
            store.close()
            _log.info("[experiment store -> %s]", store.path)
    _log.info("[total: %s]", runner.stats.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
