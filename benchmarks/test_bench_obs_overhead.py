"""Bench: metrics-off overhead of the instrumented simulator core.

Replays the sim-core scenario three ways -- metrics registry disabled
(the default), metrics collecting, and flight recorder attached -- and
compares the disabled run's events/sec against the archived
``results/sim_core.txt`` trajectory.  The disabled path must stay
within 10% of the archived number (the same bar the sim-core
trajectory itself uses): observability must be free when nobody is
watching.  The recorder-attached run gates its own, same-process bar:
at most 5% over the disabled run in the cleanest time-matched rep
pair (see :func:`_interleaved_best`), and bit-identical results.

The enabled run doubles as an end-to-end telemetry check (engine, link,
and TCP families all populated, results bit-identical to the disabled
run), and the bench writes a small recorded experiment store to
``results/runlog.sqlite`` for CI to smoke-query and upload as an
artifact.

CI runs this bench non-gating (continue-on-error): the archived
baseline comes from whatever machine last regenerated it, so a slower
runner can fail the 10% bar without a real regression.  Regenerate
``sim_core.txt`` on the same machine for a meaningful comparison.
"""

import re
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, format_reps, run_once
from benchmarks.test_bench_sim_core import (
    _build_scenario,
    _horizon,
    _run_sim_core,
    best_of,
)
from repro.obs import metrics

#: Disabled-metrics throughput must stay within this fraction of the
#: archived sim-core events/sec.  10% matches the sim-core trajectory
#: bar itself: single runs on a shared box swing that much between
#: regenerating the archive and replaying it (best-of-3 readings of
#: the identical scenario measured minutes apart span ~255-310k ev/s),
#: so a tighter bound gates machine weather, not code.  The
#: enabled-vs-disabled comparison below is same-process and stays far
#: tighter in practice.
TOLERANCE = 0.10

#: Recorder-attached capture may cost at most this fraction over the
#: disabled run in the cleanest interleaved rep pair.  Tighter than
#: the archived bar because the two sides alternate rep-for-rep in
#: one process and contention only ever adds time, so the quietest
#: pair bounds the true cost from above (see :func:`_interleaved_best`).
#: The recorder's per-arrival work is a single ``list.append`` of a
#: number-only tuple (no Python frame, no GC-tracked rows) with all
#: binning and fan-out deferred to harvest, which runs after the
#: timed window.
RECORDER_TOLERANCE = 0.05


def archived_events_per_sec() -> float:
    """The events/sec recorded in ``results/sim_core.txt``."""
    path = RESULTS_DIR / "sim_core.txt"
    if not path.is_file():
        pytest.skip("no archived sim_core.txt to compare against")
    match = re.search(r"events/sec\s*:\s*([\d.]+)", path.read_text())
    if match is None:
        pytest.skip("archived sim_core.txt has no events/sec line")
    return float(match.group(1))


def _run_instrumented():
    with metrics.collecting() as registry:
        stats = _run_sim_core()
    stats["snapshot"] = registry.snapshot()
    return stats


def _run_recorded():
    """The sim-core scenario with the flight recorder attached."""
    from repro.obs.recorder import FlightRecorder

    horizon = _horizon()
    net = _build_scenario(horizon)
    recorder = FlightRecorder()
    recorder.attach(net, horizon=horizon)
    started = time.perf_counter()
    net.run(until=horizon)
    wall = time.perf_counter() - started
    events = net.sim.events_executed
    return {
        "horizon": horizon,
        "events": events,
        "wall": wall,
        "events_per_sec": events / wall,
        "goodput_bytes": net.aggregate_goodput_bytes(),
        "series_rows": sum(s.n_rows for s in recorder.harvest()),
    }


def _interleaved_best(n: int = 7):
    """Best-of-*n* disabled and recorder-attached runs, alternating.

    The recorder gate is a same-process ratio, so its two sides must
    be *paired in time*: machine weather on a shared box drifts more
    than the gate's width over back-to-back best-of batches (rep walls
    measured minutes apart span ~15%), but alternating rep-for-rep
    puts both sides through the same weather.  Each pair's wall-time
    ratio goes into ``recorded["pair_ratios"]``; the gate takes the
    *minimum* -- contention only ever adds time, so the quietest
    matched window bounds the recorder's true cost from above.
    """
    disabled = recorded = None
    disabled_walls, recorded_walls = [], []
    for _ in range(n):
        stats = _run_sim_core()
        disabled_walls.append(stats["wall"])
        if disabled is None or stats["wall"] < disabled["wall"]:
            disabled = stats
        stats = _run_recorded()
        recorded_walls.append(stats["wall"])
        if recorded is None or stats["wall"] < recorded["wall"]:
            recorded = stats
    disabled = dict(disabled, rep_walls=disabled_walls)
    recorded = dict(recorded, rep_walls=recorded_walls)
    recorded["pair_ratios"] = [
        r / d for d, r in zip(disabled_walls, recorded_walls)]
    return disabled, recorded


def test_bench_obs_overhead(benchmark, record_result):
    baseline = archived_events_per_sec()

    metrics.disable()
    # Disabled and recorder-attached reps interleave (paired gate);
    # the metrics-enabled side is best-of-3, matching the archive.
    disabled, recorded = _interleaved_best()
    enabled = run_once(benchmark, lambda: best_of(fn=_run_instrumented))
    snapshot = enabled["snapshot"]

    # Instrumentation must not perturb the simulation.
    assert enabled["events"] == disabled["events"]
    assert enabled["goodput_bytes"] == disabled["goodput_bytes"]
    assert snapshot["engine.events_dispatched"] == enabled["events"]
    assert snapshot["link.bottleneck.accepted_packets"] > 0
    assert snapshot["tcp.goodput_bytes"] == enabled["goodput_bytes"]

    # Nor must the flight recorder -- bit-identical, but observed.
    assert recorded["events"] == disabled["events"]
    assert recorded["goodput_bytes"] == disabled["goodput_bytes"]
    assert recorded["series_rows"] > 0

    disabled_ratio = disabled["events_per_sec"] / baseline
    enabled_ratio = enabled["events_per_sec"] / disabled["events_per_sec"]
    recorded_ratio = recorded["events_per_sec"] / disabled["events_per_sec"]
    record_result("obs_overhead", (
        "obs-overhead microbenchmark (sim-core scenario, "
        f"{disabled['horizon']:.0f}s simulated)\n"
        f"archived events/sec : {baseline:.0f}\n"
        f"disabled events/sec : {disabled['events_per_sec']:.0f} "
        f"({100.0 * disabled_ratio:.1f}% of archived)\n"
        f"enabled events/sec  : {enabled['events_per_sec']:.0f} "
        f"({100.0 * enabled_ratio:.1f}% of disabled)\n"
        f"recorded events/sec : {recorded['events_per_sec']:.0f} "
        f"({100.0 * recorded_ratio:.1f}% of disabled, "
        f"{recorded['series_rows']} series rows)\n"
        f"recorder pair cost  : "
        f"{100 * (min(recorded['pair_ratios']) - 1):+.1f}% cleanest / "
        f"{100 * (sorted(recorded['pair_ratios'])[len(recorded['pair_ratios']) // 2] - 1):+.1f}% median\n"
        f"peak calendar depth : {snapshot['engine.peak_calendar_depth']:.0f}\n"
        f"disabled rep walls  : {format_reps(disabled['rep_walls'])}\n"
        f"enabled rep walls   : {format_reps(enabled['rep_walls'])}\n"
        f"recorded rep walls  : {format_reps(recorded['rep_walls'])}"
    ), data={
        "archived_events_per_sec": baseline,
        "disabled_events_per_sec": disabled["events_per_sec"],
        "enabled_events_per_sec": enabled["events_per_sec"],
        "recorded_events_per_sec": recorded["events_per_sec"],
        "disabled_ratio": disabled_ratio,
        "enabled_ratio": enabled_ratio,
        "recorded_ratio": recorded_ratio,
        "gate_tolerance": TOLERANCE,
        "recorder_gate_tolerance": RECORDER_TOLERANCE,
        "recorder_pair_ratios": recorded["pair_ratios"],
    })

    _write_store()

    # The recorder gate is same-process and paired: in the quietest
    # matched window, attached capture may cost at most 5%.
    best_pair = min(recorded["pair_ratios"])
    assert best_pair <= 1.0 / (1.0 - RECORDER_TOLERANCE), (
        f"recorder-attached capture cost {100 * (best_pair - 1):.1f}% in "
        f"its cleanest matched pair (gate: "
        f"{100 * RECORDER_TOLERANCE:.0f}%; pair ratios "
        f"{[round(r, 3) for r in recorded['pair_ratios']]})"
    )

    # The gate: metrics off must cost nothing measurable.
    assert disabled["events_per_sec"] >= (1.0 - TOLERANCE) * baseline, (
        f"disabled-metrics throughput {disabled['events_per_sec']:.0f} ev/s "
        f"fell below {100 * (1 - TOLERANCE):.0f}% of archived "
        f"{baseline:.0f} ev/s"
    )


def _write_store() -> None:
    """A small recorded experiment store, for the CI query/trace smoke.

    A real (tiny) gain sweep through the runner with series recording
    on: one baseline plus two attack gammas, so ``repro obs query
    gamma-star`` has a peak to report and ``repro obs trace`` has
    series to export.
    """
    from repro.core.attack import PulseTrain
    from repro.obs.store import ExperimentStore, git_sha
    from repro.runner import Cell, ExperimentRunner, PlatformSpec
    from repro.util.units import mbps, ms

    path = RESULTS_DIR / "runlog.sqlite"
    path.unlink(missing_ok=True)
    store = ExperimentStore(path)
    store.begin_run("bench", git_sha=git_sha())
    store.begin_experiment("obs_overhead")
    started = time.perf_counter()
    runner = ExperimentRunner(jobs=1)
    runner.attach_store(store, record_series=True)
    spec = PlatformSpec(kind="dumbbell", n_flows=5, seed=1)
    bottleneck = spec.to_config().bottleneck_rate_bps
    cells = [Cell(platform=spec, warmup=2.0, window=5.0)]
    for gamma in (0.4, 0.5):
        cells.append(Cell(
            platform=spec, warmup=2.0, window=5.0,
            train=PulseTrain.from_gamma(
                gamma=gamma, rate_bps=mbps(30), extent=ms(100),
                bottleneck_bps=bottleneck, n_pulses=40)))
    try:
        for cell in cells:
            runner.measure(cell)
    finally:
        runner.close()
    store.finish_experiment(elapsed_seconds=time.perf_counter() - started,
                            runner=runner.stats.snapshot())
    store.finish_run(elapsed_seconds=time.perf_counter() - started)
    store.close()
