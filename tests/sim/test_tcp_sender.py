"""TCP sender: window growth, fast retransmit/recovery, timeouts."""

import random

import pytest

from repro.obs.recorder import RECOVERY_KINDS, SeriesRecorder, _SenderTap
from repro.sim.tcp import AIMDParams, TCPConfig, TCPVariant

from tests.sim.tcp_harness import TCPHarness


def make_config(**overrides):
    params = dict(
        variant=TCPVariant.NEWRENO,
        delayed_ack=1,
        min_rto=0.2,
        initial_rto=0.3,
        initial_cwnd=2.0,
        initial_ssthresh=32.0,
    )
    params.update(overrides)
    return TCPConfig(**params)


class TestLosslessTransfer:
    def test_all_segments_delivered_in_order(self):
        h = TCPHarness(make_config())
        h.start()
        h.run(5.0)
        assert h.sender.acked_segments > 0
        assert h.receiver.cumack == h.sender.cumack
        assert h.sender.retransmissions == 0
        assert h.sender.timeouts == 0

    def test_slow_start_doubles_per_rtt(self):
        h = TCPHarness(make_config(initial_ssthresh=1000.0))
        h.start()
        h.run(10 * h.rtt + 0.01)
        # cwnd grows by 1 per ACK while below ssthresh: ~2^(n+1) after n RTTs.
        assert h.sender.cwnd > 100

    def test_congestion_avoidance_linear(self):
        h = TCPHarness(make_config(initial_cwnd=10.0, initial_ssthresh=10.0))
        h.start()
        h.run(10 * h.rtt + 0.01)
        # +1 MSS per RTT from 10 over ~10 RTTs.
        assert h.sender.cwnd == pytest.approx(20.0, abs=2.5)

    def test_custom_aimd_increase(self):
        slow = TCPHarness(make_config(initial_cwnd=10.0, initial_ssthresh=10.0,
                                      aimd=AIMDParams(0.5, 0.5)))
        slow.start()
        slow.run(10 * slow.rtt + 0.01)
        assert slow.sender.cwnd == pytest.approx(15.0, abs=2.0)

    def test_max_cwnd_caps_window(self):
        h = TCPHarness(make_config(max_cwnd=16.0, initial_ssthresh=1000.0))
        h.start()
        h.run(20 * h.rtt)
        assert h.sender.cwnd <= 16.0

    def test_goodput_matches_acked_segments(self):
        h = TCPHarness(make_config())
        h.start()
        h.run(3.0)
        assert h.sender.goodput_bytes() == (
            h.sender.acked_segments * h.config.mss
        )

    def test_inflight_bounded_by_window(self):
        h = TCPHarness(make_config(max_cwnd=20.0))
        h.start()
        h.run(5.0)
        assert h.sender.inflight <= 20


class TestFastRetransmit:
    def test_triple_dupack_triggers_fast_retransmit(self):
        h = TCPHarness(make_config(initial_cwnd=10.0))
        h.drop_seqs({5})
        h.start()
        h.run(2.0)
        assert h.sender.fast_retransmits == 1
        assert h.sender.timeouts == 0
        assert h.sender.cumack >= 5  # the hole was repaired

    def test_window_halves_after_recovery(self):
        h = TCPHarness(make_config(initial_cwnd=16.0, initial_ssthresh=16.0))
        h.drop_seqs({20})
        h.start()
        h.run(3.0)
        # After recovery cwnd restarts from about b * W = 8-ish and grows
        # linearly; it must sit well below the unthrottled trajectory.
        assert h.sender.fast_retransmits == 1
        assert h.sender.ssthresh < 16.0 + 3

    def test_recovery_event_recorded(self):
        h = TCPHarness(make_config(initial_cwnd=10.0))
        ring = SeriesRecorder(
            "tcp.recovery",
            ("time", "flow_id", "kind", "cwnd", "ssthresh", "rto"))
        h.sender.telemetry = _SenderTap(ring)
        h.drop_seqs({5})
        h.start()
        h.run(2.0)
        series = ring.as_series()
        assert list(series.column("kind")) == [RECOVERY_KINDS["fr"]]
        assert list(series.column("flow_id")) == [h.sender.flow_id]

    def test_custom_decrease_factor(self):
        h = TCPHarness(make_config(
            initial_cwnd=20.0, initial_ssthresh=20.0,
            aimd=AIMDParams(1.0, 0.8),
        ))
        h.drop_seqs({30})
        h.start()
        h.run(3.0)
        # ssthresh = b * cwnd-at-loss; with b = 0.8 it stays >= 16.
        assert h.sender.ssthresh >= 0.8 * 20.0 - 2.0

    def test_newreno_multiple_losses_single_recovery(self):
        h = TCPHarness(make_config(initial_cwnd=12.0, variant=TCPVariant.NEWRENO))
        h.drop_seqs({6, 8, 10})
        h.start()
        h.run(3.0)
        # NewReno repairs all three holes within one FR episode.
        assert h.sender.fast_retransmits == 1
        assert h.sender.timeouts == 0
        assert h.sender.cumack > 10

    def test_reno_exits_recovery_on_first_new_ack(self):
        h = TCPHarness(make_config(initial_cwnd=12.0, variant=TCPVariant.RENO))
        h.drop_seqs({6})
        h.start()
        h.run(2.0)
        assert h.sender.fast_retransmits == 1
        assert not h.sender.in_fast_recovery

    def test_tahoe_collapses_to_one(self):
        h = TCPHarness(make_config(initial_cwnd=12.0, variant=TCPVariant.TAHOE))
        h.drop_seqs({6})
        h.start()

        cwnd_after_loss = []
        original = h.sender._enter_fast_retransmit

        def spy():
            original()
            cwnd_after_loss.append(h.sender.cwnd)

        h.sender._enter_fast_retransmit = spy
        h.run(2.0)
        assert cwnd_after_loss == [1.0]
        assert h.sender.fast_retransmits == 1


class TestTimeout:
    def test_full_window_loss_times_out(self):
        h = TCPHarness(make_config(initial_cwnd=4.0))
        h.drop_seqs({0, 1, 2, 3})  # nothing gets through: no dup ACKs
        h.start()
        h.run(5.0)
        assert h.sender.timeouts >= 1
        assert h.sender.cumack >= 3  # eventually repaired via RTO

    def test_timeout_resets_cwnd_to_one(self):
        h = TCPHarness(make_config(initial_cwnd=8.0))
        h.drop_seqs({0, 1, 2, 3, 4, 5, 6, 7})
        h.start()
        # initial_rto = 0.3: stop just after the first expiry, before the
        # retransmission's ACK (one-way delay 0.05) restarts slow start.
        h.run(0.31)
        assert h.sender.timeouts == 1
        assert h.sender.cwnd == 1.0

    def test_rto_backoff_on_repeated_loss(self):
        h = TCPHarness(make_config(initial_cwnd=2.0))
        # Drop first transmissions AND the first two retransmissions of 0.
        drops = {"remaining": 3}

        def drop(packet):
            if packet.seq == 0 and drops["remaining"] > 0:
                drops["remaining"] -= 1
                return True
            return packet.seq == 1 and not packet.retransmit

        h.sender_node.drop_filter = drop
        h.start()
        h.run(10.0)
        assert h.sender.timeouts >= 2
        assert h.sender.cumack > 0  # recovered in the end

    def test_transfer_resumes_after_timeout(self):
        h = TCPHarness(make_config(initial_cwnd=4.0))
        h.drop_seqs({0, 1, 2, 3})
        h.start()
        h.run(8.0)
        assert h.sender.acked_segments > 100


class TestRTTSampling:
    def test_srtt_close_to_path_rtt(self):
        h = TCPHarness(make_config(), one_way=0.1)
        h.start()
        h.run(3.0)
        assert h.sender.rto_estimator.srtt == pytest.approx(0.2, abs=0.02)

    def test_no_samples_from_retransmissions(self):
        h = TCPHarness(make_config(initial_cwnd=4.0), one_way=0.1)
        h.drop_seqs({0, 1, 2, 3})
        h.start()
        h.run(1.0)
        # Only retransmitted data so far; Karn forbids sampling it.
        srtt = h.sender.rto_estimator.srtt
        assert srtt is None or srtt == pytest.approx(0.2, abs=0.05)


def eager_rng(flow_id):
    """The per-flow RNG as senders once seeded it at construction."""
    return random.Random(0x5EED ^ (flow_id * 7919))


class TestRandomizedRTO:
    def test_jittered_delays_follow_eager_stream(self, monkeypatch):
        jitter = 0.5
        h = TCPHarness(make_config(initial_cwnd=4.0, rto_jitter=jitter))
        h.drop_seqs({0, 1, 2, 3})  # force timeouts, so timers re-arm
        armed = []
        schedule = h.sim.schedule

        def spy(delay, fn, *args):
            if fn == h.sender._rto_fire:
                armed.append((h.sender.rto_estimator.rto, delay))
            return schedule(delay, fn, *args)

        monkeypatch.setattr(h.sim, "schedule", spy)
        assert h.sender._rng is None
        h.start()
        h.run(5.0)
        assert h.sender.timeouts >= 1 and len(armed) > 3
        reference = eager_rng(h.sender.flow_id)
        assert armed == [(rto, rto * (1.0 + jitter * reference.random()))
                         for rto, _ in armed]
        assert h.sender._rng.getstate() == reference.getstate()

    def test_no_jitter_never_seeds(self):
        h = TCPHarness(make_config(initial_cwnd=4.0))
        h.drop_seqs({0, 1, 2, 3})
        h.start()
        h.run(5.0)
        assert h.sender.timeouts >= 1
        assert h.sender._rng is None

    def test_undrawn_digest_reads_as_eager_and_stores_nothing(self):
        h = TCPHarness(make_config(rto_jitter=0.5))
        lazy = h.sender.state_digest()
        assert h.sender._rng is None
        h.sender._rng = eager_rng(h.sender.flow_id)
        assert h.sender.state_digest() == lazy
