"""Dummynet pipe emulation and the Fig. 11 topology."""

import pytest

from repro.core.attack import PulseTrain
from repro.sim.queues import DropTailQueue, REDQueue
from repro.testbed.dummynet import (
    DummynetPipe,
    TestbedConfig,
    build_testbed,
)
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.units import mbps, ms


class TestDummynetPipe:
    def test_rule_of_thumb_buffer(self):
        pipe = DummynetPipe.rule_of_thumb(mbps(10), rtt=0.3)
        # B = RTT x R_bottle = 0.3 * 10e6 / 8 bytes.
        assert pipe.queue_bytes == pytest.approx(375_000.0)
        assert pipe.delay == pytest.approx(0.15)

    def test_red_queue_section_4_2_parameters(self):
        net = build_testbed(TestbedConfig(
            pipe=DummynetPipe.rule_of_thumb(mbps(10), rtt=0.3)))
        queue = net.bottleneck.queue
        assert isinstance(queue, REDQueue)
        assert queue.min_th == pytest.approx(0.2 * 375_000)
        assert queue.max_th == pytest.approx(0.8 * 375_000)
        assert queue.max_p == 0.1
        assert queue.w_q == 0.002
        assert queue.gentle
        assert queue.byte_mode

    def test_droptail_same_capacity(self):
        pipe = DummynetPipe.rule_of_thumb(mbps(10), rtt=0.3)
        net = build_testbed(TestbedConfig(pipe=pipe, queue="droptail"))
        queue = net.bottleneck.queue
        assert isinstance(queue, DropTailQueue)
        assert queue.capacity_bytes == pipe.queue_bytes

    def test_validation(self):
        with pytest.raises(ValidationError):
            DummynetPipe(bandwidth_bps=0.0, delay=0.1, queue_bytes=1000.0)


class TestTestbedConfig:
    def test_defaults_match_section_4_2(self):
        config = TestbedConfig()
        assert config.n_flows == 10
        assert config.pipe.bandwidth_bps == mbps(10)
        assert config.tcp.min_rto == pytest.approx(0.2)  # Linux RTO_min
        assert config.tcp.delayed_ack == 2

    def test_rtt_includes_pipe_and_lan(self):
        config = TestbedConfig()
        assert config.rtt() == pytest.approx(2 * (0.15 + 2 * ms(0.5)))

    def test_zero_flows_rejected(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(n_flows=0)

    @pytest.mark.parametrize("queue", ["choke", "nonsense"])
    def test_queue_the_pipe_lacks_rejected(self, queue):
        # Dummynet pipes offer RED and drop-tail only.
        with pytest.raises(ValidationError, match="queue"):
            TestbedConfig(queue=queue)


class TestTestbedNetwork:
    def test_build_and_run(self):
        net = build_testbed(TestbedConfig(n_flows=3))
        net.start_flows(stagger=0.0)
        net.run(until=5.0)
        assert net.aggregate_goodput_bytes() > 0

    def test_red_vs_droptail_selectable(self):
        red = build_testbed(TestbedConfig(queue="red"))
        droptail = build_testbed(TestbedConfig(queue="droptail"))
        assert isinstance(red.bottleneck.queue, REDQueue)
        assert isinstance(droptail.bottleneck.queue, DropTailQueue)

    def test_flows_saturate_pipe_in_steady_state(self):
        net = build_testbed(TestbedConfig(n_flows=10))
        net.start_flows()
        net.run(until=15.0)
        before = net.aggregate_goodput_bytes()
        net.run(until=30.0)
        goodput_bps = (net.aggregate_goodput_bytes() - before) * 8 / 15.0
        assert goodput_bps > 0.8 * mbps(10)

    def test_attack_reduces_goodput(self):
        def run(attacked):
            net = build_testbed(TestbedConfig(n_flows=5, seed=3))
            net.start_flows()
            net.run(until=8.0)
            before = net.aggregate_goodput_bytes()
            if attacked:
                train = PulseTrain.uniform(ms(150), mbps(20), ms(450),
                                           n_pulses=30)
                net.add_attack(train, start_time=8.0).start()
            net.run(until=20.0)
            return net.aggregate_goodput_bytes() - before

        assert run(True) < 0.7 * run(False)

    def test_flow_rtts_uniform(self):
        net = build_testbed(TestbedConfig(n_flows=4))
        rtts = net.flow_rtts()
        assert len(rtts) == 4
        assert all(rtt == rtts[0] for rtt in rtts)

    def test_attack_reaches_victim_side(self):
        net = build_testbed(TestbedConfig(n_flows=2))
        seen = []
        net.bottleneck.monitors.append(
            lambda pkt, now, ok: seen.append(pkt) if pkt.is_attack else None
        )
        train = PulseTrain.uniform(ms(50), mbps(20), 0.0, n_pulses=1)
        net.add_attack(train).start()
        net.run(until=1.0)
        assert seen
        assert net.attack_sink_node.name == "victim"
        assert net.attack_sink_node.undeliverable == 0
