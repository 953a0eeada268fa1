"""The Fig. 5 dumbbell builder, and the collector pause every builder
and state digest runs under."""

import gc

import numpy as np
import pytest

from repro.core.attack import PulseTrain
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue, REDQueue
from repro.sim.topology import (
    DumbbellConfig,
    ParkingLotConfig,
    build_dumbbell,
    build_parking_lot,
)
from repro.testbed.dummynet import TestbedConfig, build_testbed
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.units import mbps, ms


class TestConfig:
    def test_defaults_match_paper(self):
        config = DumbbellConfig()
        assert config.access_rate_bps == mbps(50)
        assert config.bottleneck_rate_bps == mbps(15)
        assert config.rtt_min == ms(20)
        assert config.rtt_max == ms(460)

    def test_flow_rtts_span_range(self):
        config = DumbbellConfig(n_flows=10)
        rtts = config.flow_rtts()
        assert rtts[0] == pytest.approx(ms(20))
        assert rtts[-1] == pytest.approx(ms(460))
        assert len(rtts) == 10
        assert np.all(np.diff(rtts) > 0)

    def test_single_flow_gets_mean_rtt(self):
        config = DumbbellConfig(n_flows=1)
        assert config.flow_rtts()[0] == pytest.approx(ms(240))

    def test_zero_flows_rejected(self):
        with pytest.raises(ConfigurationError):
            DumbbellConfig(n_flows=0)

    def test_inverted_rtt_range_rejected(self):
        with pytest.raises(ConfigurationError):
            DumbbellConfig(rtt_min=ms(100), rtt_max=ms(50))

    def test_rtt_too_small_for_fixed_delay(self):
        with pytest.raises(ConfigurationError, match="RTT"):
            build_dumbbell(DumbbellConfig(rtt_min=ms(5), rtt_max=ms(100)))


class TestConstruction:
    def test_queue_factories(self):
        red_net = build_dumbbell(DumbbellConfig(queue="red"))
        dt_net = build_dumbbell(DumbbellConfig(queue="droptail"))
        assert isinstance(red_net.bottleneck.queue, REDQueue)
        assert isinstance(dt_net.bottleneck.queue, DropTailQueue)

    @pytest.mark.parametrize("config", [DumbbellConfig, ParkingLotConfig])
    def test_unknown_queue_rejected(self, config):
        with pytest.raises(ValidationError, match="queue"):
            config(queue="codel")

    def test_red_thresholds_from_buffer(self):
        net = build_dumbbell(DumbbellConfig(buffer_bytes=100 * 1500.0))
        queue = net.bottleneck.queue
        assert queue.min_th == pytest.approx(20.0)   # 0.2 * 100 pkts
        assert queue.max_th == pytest.approx(80.0)
        assert queue.gentle

    def test_node_count(self):
        net = build_dumbbell(DumbbellConfig(n_flows=5))
        assert [s.node.node_id for s in net.senders] == [2, 3, 4, 5, 6]
        assert [r.node.node_id for r in net.receivers] == [7, 8, 9, 10, 11]
        assert net.attacker_node.node_id == 12
        assert net.attack_sink_node.node_id == 13

    def test_data_reaches_receivers(self):
        net = build_dumbbell(DumbbellConfig(n_flows=3))
        net.start_flows(stagger=0.0)
        net.run(until=3.0)
        for receiver in net.receivers:
            assert receiver.segments_received > 0

    def test_goodput_snapshot_shape(self):
        net = build_dumbbell(DumbbellConfig(n_flows=4))
        net.start_flows()
        net.run(until=2.0)
        snapshot = net.goodput_snapshot()
        assert snapshot.shape == (4,)
        assert snapshot.sum() == net.aggregate_goodput_bytes()


class TestAttackPath:
    def test_attack_traverses_bottleneck(self):
        net = build_dumbbell(DumbbellConfig(n_flows=2))
        seen = []
        net.bottleneck.monitors.append(
            lambda pkt, now, ok: seen.append(pkt) if pkt.is_attack else None
        )
        train = PulseTrain.uniform(0.02, mbps(20), 0.0, n_pulses=1)
        net.add_attack(train).start()
        net.run(until=1.0)
        assert len(seen) > 0

    def test_attack_packets_terminate_at_sink(self):
        net = build_dumbbell(DumbbellConfig(n_flows=2))
        train = PulseTrain.uniform(0.02, mbps(20), 0.0, n_pulses=1)
        source = net.add_attack(train)
        source.start()
        net.run(until=1.0)
        assert net.attack_sink_node.undeliverable == 0
        assert net.bottleneck.dst.undeliverable == 0  # router R

    def test_multiple_attacks_get_distinct_flows(self):
        net = build_dumbbell(DumbbellConfig(n_flows=2))
        train = PulseTrain.uniform(0.02, mbps(20), 0.0, n_pulses=1)
        first = net.add_attack(train)
        second = net.add_attack(train)
        assert first.flow_id != second.flow_id

    def test_attack_degrades_goodput(self):
        def run(with_attack):
            net = build_dumbbell(DumbbellConfig(n_flows=5, seed=9))
            net.start_flows()
            net.run(until=5.0)
            before = net.aggregate_goodput_bytes()
            if with_attack:
                train = PulseTrain.uniform(ms(100), mbps(30), ms(200),
                                           n_pulses=40)
                net.add_attack(train, start_time=5.0).start()
            net.run(until=15.0)
            return net.aggregate_goodput_bytes() - before

        clean = run(False)
        attacked = run(True)
        assert attacked < 0.7 * clean


class TestRTTRealization:
    def test_measured_rtt_matches_configuration(self, ):
        """The built topology must realize the configured propagation RTT."""
        config = DumbbellConfig(n_flows=3)
        net = build_dumbbell(config)
        rtts = config.flow_rtts()
        for i in range(3):
            sender = net.senders[i].node.node_id
            receiver = net.receivers[i].node.node_id
            forward = net.topo.path(sender, receiver)
            reverse = net.topo.path(receiver, sender)
            assert forward[1] is net.bottleneck
            assert reverse[1] is net.reverse_bottleneck
            delay = sum(link.delay for link in forward + reverse)
            assert delay == pytest.approx(rtts[i])


class TestStateDigest:
    def test_digest_covers_links_attached_mid_scenario(self):
        """Two dumbbells that differ only in traffic on an
        add_host_pair link must not share a digest."""
        def run(size_bytes):
            net = build_dumbbell(DumbbellConfig(n_flows=2, seed=4))
            host, _ = net.add_host_pair()
            router_s = net.bottleneck.src
            router_s.register_agent(500, lambda packet: None)
            # One packet over the host's access link only: same events,
            # same uids, different bytes on that link.
            host.send(Packet(PacketKind.CBR, 500, host.node_id,
                             router_s.node_id, size_bytes))
            net.run(until=1.0)
            return net.state_digest()

        assert run(500.0) != run(1000.0)


BUILDERS = {
    "dumbbell": lambda: build_dumbbell(DumbbellConfig(n_flows=3)),
    "parking_lot": lambda: build_parking_lot(
        ParkingLotConfig(long_flows=2, cross_flows=1)),
    "testbed": lambda: build_testbed(TestbedConfig(n_flows=3)),
}


def collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


class TestCollectorPause:
    """Builders and digests pause the cyclic collector (``gc_paused``).

    These tests assert on collector state, generation membership and
    collection counts only; timing is the benchmark's business.
    """

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_builders_leave_collector_state_unchanged(self, kind, enabled):
        if not enabled:
            gc.disable()
        try:
            before = collector_state()
            BUILDERS[kind]().state_digest()
            assert collector_state() == before
        finally:
            gc.enable()

    def test_failed_build_reenables_collector(self):
        before = collector_state()
        with pytest.raises(ConfigurationError, match="RTT"):
            build_dumbbell(DumbbellConfig(rtt_min=ms(5), rtt_max=ms(100)))
        assert collector_state() == before

    def test_large_build_and_digest_run_no_collection(self):
        """A 2,000-flow build is most of the heap: it is promoted to the
        oldest generation, and neither it nor its digest collects."""
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            net = build_dumbbell(DumbbellConfig(n_flows=2000))
            net.state_digest()
            collections = len(started)
        finally:
            gc.callbacks.remove(record)
        assert collections == 0, f"collections of generations {started}"
        assert any(obj is net for obj in gc.get_objects(2))

    @pytest.mark.parametrize("n_flows", [15, 200])
    def test_small_build_is_not_promoted(self, n_flows):
        """A build that is a sliver of the heap promotes nothing, so
        older young objects stay out of the oldest generation.  15
        flows allocate less than one gen-1 cycle; 200 flows more, but
        under a quarter of the heap."""
        ballast = [[] for _ in range(100_000)]
        gc.collect()
        marker = [[] for _ in range(3)]
        net = build_dumbbell(DumbbellConfig(n_flows=n_flows))
        oldest = gc.get_objects(2)
        assert not any(obj is marker for obj in oldest)
        assert not any(obj is net for obj in oldest)
        del ballast  # alive through the build: the heap it is measured in

    def test_caller_frozen_objects_stay_frozen(self):
        """With objects frozen, even a heap-sized build is not promoted."""
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            net = build_dumbbell(DumbbellConfig(n_flows=2000))
            # Frozen objects can die, but none are added or released.
            assert 0 < gc.get_freeze_count() <= frozen
            assert not any(obj is net for obj in gc.get_objects(2))
        finally:
            gc.unfreeze()

    def test_interpreter_gc_semantics(self):
        """The interpreter facts the pause relies on."""
        gc.collect()
        gc.disable()
        try:
            young = gc.get_count()[0]
            keep = [[] for _ in range(5000)]
            # A disabled collector still counts tracked allocations...
            assert gc.get_count()[0] - young >= len(keep)
            gc.freeze()
            gc.unfreeze()
            # ...and a freeze/unfreeze round trip empties the young
            # generations into the oldest one.
            assert gc.get_objects(0) == []
            assert gc.get_objects(1) == []
            assert gc.get_freeze_count() == 0
            assert any(obj is keep for obj in gc.get_objects(2))
        finally:
            gc.enable()
