"""Bench: scheduler backends at 10k+ flows (mice and elephants).

Two measurements, one per layer of the claim:

**Scenario** -- a mice-and-elephants population at many-flows scale:
10,000 elephant NewReno flows over a 600 Mb/s RED bottleneck (bandwidth
and the rule-of-thumb buffer scaled with the flock, after the
buffer-sizing literature the many-flows extension cites), plus a churn
of short mice transfers on an extra host pair.  The same scenario runs
once per backend and must dispatch **bit-identically**: same events
executed, same goodput, same ``state_digest``.  The throughput ratio is
archived informationally: at this depth (~40k pending entries) the
scheduler is only about a third of total runtime, so Amdahl caps the
end-to-end win near 1.2x even where the scheduler-only win is far
larger.

**Scheduler core** (the gated number) -- a hold-depth churn loop: N
self-rescheduling timers, so every dispatch pops the head and pushes a
successor ~0.5-1 s out while the pending set stays N deep.  This is the
engine's hot loop with nothing else in the way, the regime the calendar
queue exists for: the heap pays O(log N) per op and decays with depth,
the calendar stays O(1) amortized and flat.  Gate: **calendar >= 1.5x
heap at 300k pending**, best-of-3.  A depth ramp (5k / 50k / 300k) is
archived alongside so the crossover is visible in the trajectory.

Methodology: single-CPU boxes tax whichever run touches memory first
(allocator growth, page faults), so each part runs a throwaway warm-up
and then alternates heap/calendar reps, comparing best-of.
"""

import time

import pytest

from benchmarks.conftest import format_reps, run_once
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.topology import (
    FULL_PACKET_BYTES,
    DumbbellConfig,
    build_dumbbell,
)
from repro.sim.workload import ShortFlowWorkload
from repro.util.errors import SimulationError
from repro.util.units import mbps, ms
from tests.backends import PINNED_DEPTH

#: Elephants in the flock; mice arrive on top via the workload.
N_FLOWS = 10_000
#: Bottleneck scaled with the flock (60 kb/s per flow, as in the
#: many-flows extension experiment) and a rule-of-thumb buffer.
BOTTLENECK_BPS = mbps(600)
BUFFER_BYTES = 1500 * FULL_PACKET_BYTES
HORIZON = 1.5
SCENARIO_REPS = 2

#: Scheduler-core gate: held pending depth, events timed per rep, reps.
GATE_DEPTH = 300_000
GATE_MIN_RATIO = 1.5
CORE_EVENTS = 400_000
CORE_REPS = 3
#: Ungated ramp rows showing where the crossover sits.
RAMP_DEPTHS = (5_000, 50_000, GATE_DEPTH)


def _run_scenario(scheduler):
    """One full mice-and-elephants run; returns (stats, fingerprint)."""
    config = DumbbellConfig(
        n_flows=N_FLOWS,
        bottleneck_rate_bps=BOTTLENECK_BPS,
        buffer_bytes=BUFFER_BYTES,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "AUTO_CALENDAR_DEPTH", PINNED_DEPTH[scheduler])
        net = build_dumbbell(config)
        mice_src, mice_dst = net.add_host_pair(rtt=ms(100))
        workload = ShortFlowWorkload(
            net.sim, mice_src, mice_dst, tcp=config.tcp,
            mean_size_segments=15.0, mean_interarrival=0.01, seed=11,
        )
        net.start_flows()
        workload.start()
        started = time.perf_counter()
        net.run(until=HORIZON)
        wall = time.perf_counter() - started
    workload.finalize()
    sim = net.sim
    assert sim.scheduler == scheduler
    stats = {
        "wall": wall,
        "events": sim.events_executed,
        "events_per_sec": sim.events_executed / wall,
        "pending_live": sim.pending_events,
        "pending_raw": sim.pending_entries,
        "mice_launched": workload.launched,
    }
    fingerprint = (
        sim.events_executed,
        net.aggregate_goodput_bytes(),
        workload.launched,
        sim.state_digest(),
    )
    return stats, fingerprint


def _churn(scheduler, depth, events):
    """Hold-depth churn: every dispatch reschedules itself ~0.5-1s out."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "AUTO_CALENDAR_DEPTH", PINNED_DEPTH[scheduler])
        sim = Simulator()

        def fire(i, gap):
            sim._push_transient(sim._now + gap, fire, (i, gap))

        for i in range(depth):
            gap = 0.5 + ((i * 2654435761) % 1000) / 2000.0
            sim.schedule(gap * ((i % 97) + 1) / 97.0, fire, i, gap)
        assert sim.scheduler == scheduler
        started = time.perf_counter()
        try:
            sim.run(max_events=events)
        except SimulationError:
            pass  # the budget stop is the intended exit
        return events / (time.perf_counter() - started)


def _bench_scenario():
    """Alternating best-of reps per backend, after one warm-up run."""
    _run_scenario("heap")  # pay the allocator/page-fault tax once
    walls = {"heap": [], "calendar": []}
    best = {}
    prints = {}
    for _ in range(SCENARIO_REPS):
        for scheduler in ("heap", "calendar"):
            stats, fingerprint = _run_scenario(scheduler)
            walls[scheduler].append(stats["wall"])
            prints[scheduler] = fingerprint
            if (scheduler not in best
                    or stats["wall"] < best[scheduler]["wall"]):
                best[scheduler] = stats
    return best, walls, prints


def _bench_core():
    """The depth ramp, alternating backends; the last row is the gate."""
    _churn("heap", 20_000, 100_000)  # warm-up
    rows = []
    for depth in RAMP_DEPTHS:
        heap_rates, cal_rates = [], []
        for _ in range(CORE_REPS):
            heap_rates.append(_churn("heap", depth, CORE_EVENTS))
            cal_rates.append(_churn("calendar", depth, CORE_EVENTS))
        rows.append({
            "depth": depth,
            "heap_events_per_sec": max(heap_rates),
            "calendar_events_per_sec": max(cal_rates),
            "ratio": max(cal_rates) / max(heap_rates),
        })
    return rows


def test_bench_many_flows(benchmark, record_result):
    best, walls, prints = run_once(benchmark, _bench_scenario)
    core = _bench_core()

    heap, cal = best["heap"], best["calendar"]
    scenario_ratio = cal["events_per_sec"] / heap["events_per_sec"]
    gate = core[-1]
    rows = [
        f"Many-flows bench -- {N_FLOWS} elephants + mice over "
        f"{BOTTLENECK_BPS / 1e6:.0f} Mb/s, {HORIZON:.1f}s simulated, "
        f"best of {SCENARIO_REPS} alternating",
        f"{'backend':<10} {'events':>9} {'wall':>8} {'ev/s':>9} "
        f"{'pending':>9}",
        f"{'heap':<10} {heap['events']:>9} {heap['wall']:>7.2f}s "
        f"{heap['events_per_sec']:>9.0f} {heap['pending_live']:>9}",
        f"{'calendar':<10} {cal['events']:>9} {cal['wall']:>7.2f}s "
        f"{cal['events_per_sec']:>9.0f} {cal['pending_live']:>9}"
        f"   ({scenario_ratio:.2f}x, informational)",
        f"heap walls    : {format_reps(walls['heap'])}",
        f"calendar walls: {format_reps(walls['calendar'])}",
        "",
        f"scheduler-core churn (self-rescheduling timers, "
        f"{CORE_EVENTS} events/rep, best of {CORE_REPS} alternating)",
        f"{'depth':>8} {'heap ev/s':>10} {'calendar ev/s':>14} "
        f"{'ratio':>7}",
    ]
    for row in core:
        marker = "  <-- gate" if row["depth"] == GATE_DEPTH else ""
        rows.append(
            f"{row['depth']:>8} {row['heap_events_per_sec']:>10.0f} "
            f"{row['calendar_events_per_sec']:>14.0f} "
            f"{row['ratio']:>6.2f}x{marker}"
        )
    record_result("many_flows", "\n".join(rows), data={
        "scenario": {
            "n_flows": N_FLOWS,
            "heap": heap,
            "calendar": cal,
            "ratio": scenario_ratio,
            "heap_rep_walls": walls["heap"],
            "calendar_rep_walls": walls["calendar"],
        },
        "scheduler_core": core,
        "gate": {
            "depth": GATE_DEPTH,
            "min_ratio": GATE_MIN_RATIO,
            "measured_ratio": gate["ratio"],
        },
    })

    # The hard contracts: backends are interchangeable bit-for-bit,
    # and the calendar clears the scheduler-core floor at depth.
    assert prints["heap"] == prints["calendar"], (
        "heap and calendar dispatched differently at many-flows scale"
    )
    assert heap["events"] > 300_000, "scenario too quiet to measure"
    assert gate["ratio"] >= GATE_MIN_RATIO, (
        f"calendar/heap ratio {gate['ratio']:.2f}x at depth "
        f"{GATE_DEPTH} below the {GATE_MIN_RATIO:.1f}x floor "
        f"(heap {gate['heap_events_per_sec']:.0f} ev/s, calendar "
        f"{gate['calendar_events_per_sec']:.0f} ev/s)"
    )
