"""End-to-end instrumentation: engine, network, and runner telemetry."""

import os
import sys

import pytest

import repro.obs
from repro.core.attack import PulseTrain
from repro.obs import metrics
from repro.sim.engine import Simulator
from repro.sim.topology import DumbbellConfig, Network, build_dumbbell
from repro.util.units import mbps, ms


@pytest.fixture(autouse=True)
def metrics_disabled():
    metrics.disable()
    yield
    metrics.disable()


def run_attacked_dumbbell(horizon=4.0):
    net = build_dumbbell(DumbbellConfig(n_flows=3))
    train = PulseTrain.from_gamma(
        gamma=0.5, rate_bps=mbps(30), extent=ms(100),
        bottleneck_bps=mbps(15), n_pulses=20,
    )
    net.start_flows()
    source = net.add_attack(train, start_time=1.0)
    source.start()
    net.run(until=horizon)
    return net


class TestEngineTelemetry:
    def test_engine_counters_match_simulator(self):
        with metrics.collecting() as registry:
            sim = Simulator()
            for delay in (1.0, 2.0, 3.0):
                sim.schedule(delay, lambda: None)
            cancelled = sim.schedule(1.5, lambda: None)
            cancelled.cancel()
            sim.run()
        snap = registry.snapshot()
        assert snap["engine.events_dispatched"] == sim.events_executed == 3
        assert snap["engine.events_cancelled_skipped"] == 1.0
        assert sim.events_cancelled_skipped == 1
        assert snap["engine.runs"] == 1.0
        assert snap["engine.sim_seconds"] == 3.0
        assert snap["engine.wall_seconds"] > 0.0
        # Live depth: the cancelled timer is excluded from the gauge.
        assert snap["engine.peak_calendar_depth"] == 3.0

    def test_cancelled_skips_counted_when_disabled_too(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        assert sim.events_cancelled_skipped == 1

    def test_sim_seconds_includes_horizon_advance(self):
        with metrics.collecting() as registry:
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run(until=10.0)  # calendar drains early; clock advances
        assert registry.snapshot()["engine.sim_seconds"] == 10.0

    def test_results_bit_identical_with_metrics_on(self):
        baseline = run_attacked_dumbbell()
        with metrics.collecting():
            instrumented = run_attacked_dumbbell()
        assert (instrumented.aggregate_goodput_bytes()
                == baseline.aggregate_goodput_bytes())
        assert (instrumented.sim.events_executed
                == baseline.sim.events_executed)
        assert (instrumented.bottleneck.packets_dropped
                == baseline.bottleneck.packets_dropped)


class TestNetworkTelemetry:
    def test_dumbbell_publishes_links_and_tcp(self):
        with metrics.collecting() as registry:
            net = run_attacked_dumbbell()
        snap = registry.snapshot()
        assert (snap["link.bottleneck.accepted_packets"]
                == net.bottleneck.packets_sent)
        assert (snap["link.bottleneck.dropped_packets"]
                == net.bottleneck.packets_dropped)
        assert snap["link.bottleneck.red_avg_queue"] >= 0.0
        assert snap["tcp.flows"] == 3.0
        assert snap["tcp.goodput_bytes"] == net.aggregate_goodput_bytes()
        assert snap["tcp.fast_retransmits"] == float(
            sum(s.fast_retransmits for s in net.senders))
        assert snap["tcp.cwnd_min"] <= snap["tcp.cwnd_mean"] <= snap["tcp.cwnd_max"]

    def test_testbed_publishes_pipe(self):
        from repro.testbed.dummynet import TestbedConfig, build_testbed

        with metrics.collecting() as registry:
            net = build_testbed(TestbedConfig(n_flows=2))
            net.start_flows()
            net.run(until=2.0)
        snap = registry.snapshot()
        assert snap["link.pipe.accepted_packets"] == net.bottleneck.packets_sent
        assert snap["tcp.flows"] == 2.0
        assert snap["node.undeliverable_packets"] == 0.0

    def test_nothing_published_when_disabled(self):
        registry = metrics.MetricsRegistry()
        run_attacked_dumbbell()
        assert len(registry) == 0
        assert metrics.active() is None


def canonical_attacked_net():
    """The canonical attacked dumbbell (15 NewReno flows over RED,
    gamma = 0.5, 100 ms extent), flows and attack started."""
    config = DumbbellConfig()
    net = build_dumbbell(config)
    train = PulseTrain.from_gamma(
        gamma=0.5, rate_bps=mbps(30), extent=ms(100),
        bottleneck_bps=config.bottleneck_rate_bps, n_pulses=20,
    )
    net.start_flows()
    net.add_attack(train, start_time=1.0).start()
    return net


def count_obs_calls(net):
    """Run *net* in two segments, to 1.5 s and 3.0 s, under a profiler.

    Returns the names of every Python function called in the
    ``repro.obs`` package and of every ``Network.run`` /
    ``Simulator.run`` call.
    """
    obs_dir = os.path.dirname(repro.obs.__file__) + os.sep
    run_codes = {Network.run.__code__: "Network.run",
                 Simulator.run.__code__: "Simulator.run"}
    obs_calls, runs = [], []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(obs_dir):
                obs_calls.append(code.co_name)
            elif code in run_codes:
                runs.append(run_codes[code])

    sys.setprofile(profile)
    try:
        net.run(until=1.5)
        net.run(until=3.0)
    finally:
        sys.setprofile(None)
    return obs_calls, runs


class TestMetricsOffPath:
    def test_off_path_asks_obs_once_per_run(self):
        """Metrics off: one ``repro.obs`` call per run, never per event.

        The canonical attacked dumbbell runs two segments under a
        profiler that counts every Python call into the ``repro.obs``
        package.  ``Network.run`` and ``Simulator.run`` may each ask it
        once, for the active registry; a call per event or per packet
        would show up thousands of times, whatever the host's speed.
        """
        net = canonical_attacked_net()
        obs_calls, runs = count_obs_calls(net)

        assert sorted(runs) == ["Network.run"] * 2 + ["Simulator.run"] * 2
        assert net.sim.events_executed > 10_000
        assert net.attack_sources[0].packets_emitted > 0
        assert len(obs_calls) <= len(runs), (
            f"{len(obs_calls)} calls into repro.obs over {len(runs)} runs "
            f"and {net.sim.events_executed} events: "
            f"{sorted(set(obs_calls))}")


class TestRecordedPath:
    def test_recorded_asks_obs_per_run_and_recovery(self):
        """Recorder on: ``repro.obs`` calls per run and per recovery only.

        The canonical attacked dumbbell, with a
        :class:`~repro.obs.recorder.FlightRecorder` attached, runs the
        same two profiled segments.  Arrivals, drops and cwnd changes
        are captured by C-level ``list.append`` taps, so none of them
        may cost a call: per run, the registry lookup, the engine
        post-run hook and its progress row; per recovery episode, the
        sender tap's ``on_recovery`` and its ring append.
        """
        from repro.obs.recorder import FlightRecorder

        net = canonical_attacked_net()
        recorder = FlightRecorder()
        recorder.attach(net, horizon=3.0)
        obs_calls, runs = count_obs_calls(net)
        series = {s.name: s for s in recorder.harvest()}

        recoveries = series["tcp.recovery"].n_rows
        bound = 2 * len(runs) + 2 * recoveries
        assert len(runs) == 4 and recoveries > 0
        # Each per-event stream is longer than the bound, so a Python
        # call per arrival, per drop or per cwnd change would break it.
        for name in ("link.bottleneck.queue", "link.bottleneck.drops",
                     "tcp.cwnd"):
            assert series[name].n_rows > bound, name
        assert len(obs_calls) <= bound, (
            f"{len(obs_calls)} calls into repro.obs over {len(runs)} runs "
            f"and {recoveries} recoveries: {sorted(set(obs_calls))}")


class TestSnapshotMethods:
    def test_link_snapshot_keys_are_stable(self):
        net = run_attacked_dumbbell()
        snap = net.bottleneck.metrics_snapshot()
        for key in ("accepted_bytes", "accepted_packets", "dropped_bytes",
                    "dropped_packets", "peak_queue_bytes", "queue_bytes",
                    "queue_packets", "disc_accepts", "disc_drops",
                    "disc_early_drops", "red_avg_queue"):
            assert key in snap, key

    def test_choke_snapshot_has_match_counters(self):
        from repro.sim.topology import make_choke_queue

        queue = make_choke_queue(100_000.0)
        snap = queue.metrics_snapshot()
        assert snap["choke_match_drops"] == 0.0
        assert snap["choke_evictions"] == 0.0
        assert "red_avg_queue" in snap

    def test_sender_snapshot_matches_counters(self):
        net = run_attacked_dumbbell()
        sender = net.senders[0]
        snap = sender.metrics_snapshot()
        assert snap["fast_retransmits"] == float(sender.fast_retransmits)
        assert snap["timeouts"] == float(sender.timeouts)
        assert snap["goodput_bytes"] == sender.goodput_bytes()
        assert snap["cwnd"] == sender.cwnd
