"""Bench: what observing the canonical attacked dumbbell costs.

The canonical scenario is the paper's Fig. 5 dumbbell (15 NewReno
flows over a 15 Mb/s RED bottleneck) under the gamma = 0.5,
100 ms-extent pulse train, 30 simulated seconds, timed as the raw event
loop with no runner or cache in the way.  It runs three ways, rep for
rep: metrics off (the default), metrics collecting, and flight recorder
attached.  All three must dispatch the same events and deliver the same
goodput, and the metrics-off run must reproduce the scenario's exact
invariants (:data:`EXPECTED`), so any change in what the simulator does
fails here on every host.

The gate is same-process and paired: attached capture may cost at most
5% over metrics off in the cleanest time-matched rep pair (see
:func:`_interleaved`).  The metrics-collecting run doubles as an
end-to-end telemetry check (engine, link and TCP families populated
and consistent with the run); its cost is recorded, not gated.

Metrics off is not timed against anything here.  Its cost is checked
where host speed cannot blur it:
``tests/obs/test_instrument.py::TestMetricsOffPath`` counts the calls
that path makes into ``repro.obs`` (one per run, never per event), and
pdosbench's ``exact-serial`` ``events_per_s`` guards absolute
throughput.
"""

import statistics
import time

from benchmarks.conftest import format_reps, run_once
from repro.core.attack import PulseTrain
from repro.obs import metrics
from repro.sim.topology import DumbbellConfig, build_dumbbell
from repro.util.units import mbps, ms

#: Simulated seconds; the attack starts once the flows left slow start.
HORIZON = 30.0
WARMUP = 2.0
#: Interleaved reps per side.
REPS = 7

#: The scenario's outcome, exact: it is seeded, so it holds on any host.
EXPECTED = {
    "events": 152_906,
    "goodput_bytes": 19_947_980,
    "bottleneck_packets": 30_789,
    "attack_packets": 17_550,
}

#: Recorder-attached capture may cost at most this fraction over the
#: metrics-off run in the cleanest interleaved rep pair.  The two sides
#: alternate rep-for-rep in one process and contention only ever adds
#: time, so the quietest pair bounds the true cost from above (see
#: :func:`_interleaved`).  The recorder's per-arrival work is a single
#: ``list.append`` of a number-only tuple (no Python frame, no
#: GC-tracked rows) with all binning and fan-out deferred to harvest,
#: which runs after the timed window.
RECORDER_TOLERANCE = 0.05


def _build_scenario():
    config = DumbbellConfig()  # the paper's defaults: 15 flows, RED
    net = build_dumbbell(config)
    train = PulseTrain.from_gamma(
        gamma=0.5, rate_bps=mbps(30), extent=ms(100),
        bottleneck_bps=config.bottleneck_rate_bps,
        n_pulses=int(HORIZON / 0.2) + 2,
    )
    net.start_flows()
    net.add_attack(train, start_time=WARMUP).start()
    return net


def _run(mode: str) -> dict:
    """One timed run with metrics ``off``, ``on``, or ``recorded``."""
    net = _build_scenario()
    recorder = registry = None
    if mode == "recorded":
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder()
        recorder.attach(net, horizon=HORIZON)
    elif mode == "on":
        registry = metrics.enable()
    try:
        started = time.perf_counter()
        net.run(until=HORIZON)
        wall = time.perf_counter() - started
    finally:
        if registry is not None:
            metrics.disable()
    stats = {
        "wall": wall,
        "events": net.sim.events_executed,
        "goodput_bytes": net.aggregate_goodput_bytes(),
        "bottleneck_packets": net.bottleneck.packets_sent,
        "attack_packets": net.attack_sources[0].packets_emitted,
    }
    if recorder is not None:
        stats["series_rows"] = sum(s.n_rows for s in recorder.harvest())
    if registry is not None:
        stats["snapshot"] = registry.snapshot()
    return stats


def _interleaved(n: int = REPS) -> dict:
    """*n* reps of each mode, alternating off / recorded / on.

    The gate is a same-process ratio, so its two sides must be *paired
    in time*: machine weather on a shared box drifts more than the
    gate's width over back-to-back best-of batches (rep walls measured
    minutes apart span ~15%), but alternating rep-for-rep puts every
    side through the same weather.  Each mode keeps its fastest rep,
    every rep's wall, and its wall ratio to the metrics-off rep of the
    same round (``pair_ratios``).
    """
    runs = {mode: [] for mode in ("off", "recorded", "on")}
    for _ in range(n):
        for mode, reps in runs.items():
            reps.append(_run(mode))
    off_walls = [stats["wall"] for stats in runs["off"]]
    best = {}
    for mode, reps in runs.items():
        walls = [stats["wall"] for stats in reps]
        ratios = [wall / off for wall, off in zip(walls, off_walls)]
        best[mode] = dict(min(reps, key=lambda stats: stats["wall"]),
                          rep_walls=walls, pair_ratios=ratios)
    return best


def _cost(best: dict, off: dict) -> str:
    """A mode's wall over metrics off: fastest reps, median and best pair."""
    return (f"{100 * (best['wall'] / off['wall'] - 1):+.1f}% fastest rep / "
            f"{100 * (statistics.median(best['pair_ratios']) - 1):+.1f}% "
            f"median pair / "
            f"{100 * (min(best['pair_ratios']) - 1):+.1f}% cleanest pair")


def test_bench_obs_overhead(benchmark, record_result):
    metrics.disable()
    best = run_once(benchmark, _interleaved)
    off, on, recorded = best["off"], best["on"], best["recorded"]
    snapshot = on["snapshot"]

    # The scenario itself, exactly.
    assert {name: off[name] for name in EXPECTED} == EXPECTED

    # Instrumentation must not perturb the simulation.
    assert on["events"] == off["events"]
    assert on["goodput_bytes"] == off["goodput_bytes"]
    assert snapshot["engine.events_dispatched"] == on["events"]
    assert snapshot["link.bottleneck.accepted_packets"] > 0
    assert snapshot["tcp.goodput_bytes"] == on["goodput_bytes"]

    # Nor must the flight recorder -- bit-identical, but observed.
    assert recorded["events"] == off["events"]
    assert recorded["goodput_bytes"] == off["goodput_bytes"]
    assert recorded["series_rows"] > 0

    def rate(stats):
        return stats["events"] / stats["wall"]

    record_result("obs_overhead", (
        "obs-overhead microbenchmark (canonical dumbbell, gamma=0.5, "
        f"T_extent=100ms, {HORIZON:.0f}s simulated, {REPS} interleaved "
        "reps per side)\n"
        f"events executed     : {off['events']}\n"
        f"goodput_bytes       : {off['goodput_bytes']:.0f}\n"
        f"bottleneck pkts     : {off['bottleneck_packets']}\n"
        f"attack pkts         : {off['attack_packets']}\n"
        f"off events/sec      : {rate(off):.0f}\n"
        f"on events/sec       : {rate(on):.0f}\n"
        f"recorded events/sec : {rate(recorded):.0f} "
        f"({recorded['series_rows']} series rows)\n"
        f"metrics-on cost     : {_cost(on, off)}\n"
        f"recorder cost       : {_cost(recorded, off)}\n"
        f"peak calendar depth : {snapshot['engine.peak_calendar_depth']:.0f}\n"
        f"off rep walls       : {format_reps(off['rep_walls'])}\n"
        f"on rep walls        : {format_reps(on['rep_walls'])}\n"
        f"recorded rep walls  : {format_reps(recorded['rep_walls'])}"
    ), data={
        "invariants": EXPECTED,
        "off_events_per_sec": rate(off),
        "on_events_per_sec": rate(on),
        "recorded_events_per_sec": rate(recorded),
        "on_pair_ratios": on["pair_ratios"],
        "recorder_pair_ratios": recorded["pair_ratios"],
        "recorder_gate_tolerance": RECORDER_TOLERANCE,
    })

    # The recorder gate is same-process and paired: in the quietest
    # matched window, attached capture may cost at most 5%.
    best_pair = min(recorded["pair_ratios"])
    assert best_pair <= 1.0 / (1.0 - RECORDER_TOLERANCE), (
        f"recorder-attached capture cost {100 * (best_pair - 1):.1f}% in "
        f"its cleanest matched pair (gate: "
        f"{100 * RECORDER_TOLERANCE:.0f}%; pair ratios "
        f"{[round(r, 3) for r in recorded['pair_ratios']]})"
    )
