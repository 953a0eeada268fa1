"""DropTail and RED queue disciplines.

Drop-tail admission lives in :meth:`repro.sim.link.Link.send`, so its
tests offer packets to a link; RED's are read through
:meth:`~repro.sim.queues.REDQueue.admit_values`, the call a link makes.
"""

import random

import pytest

from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue, REDQueue
from repro.util.errors import ValidationError


def drop_tail_link(sim, capacity_bytes):
    """A 1 Mb/s link from node 0 to node 1 behind a drop-tail buffer."""
    return Link(sim, Node(sim, 0, "a"), Node(sim, 1, "b"), rate_bps=1e6,
                delay=0.01, queue=DropTailQueue(capacity_bytes))


def offer(link, size):
    """Offer one *size*-byte packet to *link*; True if it was buffered."""
    return link.send(Packet(PacketKind.DATA, flow_id=0, src=0, dst=1,
                            size_bytes=size))


def admit(q, pkt_bytes, queue_bytes=0.0, queue_pkts=0, now=0.0,
          idle_since=None):
    """RED admission of a *pkt_bytes* arrival on the given queue state."""
    return q.admit_values(pkt_bytes, queue_bytes, queue_pkts, now,
                          idle_since)


class TestDropTail:
    def test_accepts_when_empty(self, sim):
        link = drop_tail_link(sim, 10_000)
        assert offer(link, 1500)
        assert link.queue.accepts == 1

    def test_drops_when_full(self, sim):
        link = drop_tail_link(sim, 3000)
        assert offer(link, 1000)
        assert offer(link, 1000)
        assert not offer(link, 1500)
        assert link.queue.drops == 1

    def test_exact_fit_accepted(self, sim):
        link = drop_tail_link(sim, 3000)
        assert offer(link, 2000)
        assert offer(link, 1000)

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            DropTailQueue(0)

    def test_reset_counters(self, sim):
        link = drop_tail_link(sim, 1000)
        offer(link, 500)
        offer(link, 2000)
        link.queue.reset_counters()
        assert link.queue.accepts == 0
        assert link.queue.drops == 0


def make_red(**overrides):
    params = dict(
        capacity_bytes=100 * 1500.0,
        min_th=20.0,
        max_th=80.0,
        max_p=0.1,
        w_q=0.02,
        gentle=True,
        rng=random.Random(7),
    )
    params.update(overrides)
    return REDQueue(**params)


class FixedCoin:
    """An ``rng`` whose every coin flip lands on *value*."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def admission_drop_probability(avg, pkt_bytes, **overrides):
    """The early-drop probability RED applies at average *avg*, read
    through admission alone.

    A fresh queue (no early drop yet, so ``p_a == p_b``) whose queue
    sample equals *avg* keeps its average there; it drops an arrival
    iff the coin flip lands below the probability, so bisecting on the
    coin recovers it.
    """
    def drops(coin):
        q = make_red(rng=FixedCoin(coin), **overrides)
        q.avg = avg
        # Either mode measures *avg* (bytes, or packets).
        return not admit(q, pkt_bytes, queue_bytes=avg,
                         queue_pkts=int(avg))

    low, high = 0.0, 1.0
    for _ in range(50):
        mid = (low + high) / 2.0
        if drops(mid):
            low = mid
        else:
            high = mid
    return low


class TestREDValidation:
    def test_thresholds_ordered(self):
        with pytest.raises(ValidationError):
            make_red(min_th=50.0, max_th=40.0)

    def test_max_p_probability(self):
        with pytest.raises(ValidationError):
            make_red(max_p=1.5)

    def test_w_q_probability(self):
        with pytest.raises(ValidationError):
            make_red(w_q=-0.1)


class TestREDAverage:
    def test_average_tracks_queue(self):
        q = make_red()
        for _ in range(200):
            admit(q, 1500, queue_bytes=15_000, queue_pkts=10)
        # EWMA converges toward the instantaneous queue (10 packets).
        assert q.avg == pytest.approx(10.0, rel=0.05)

    def test_average_starts_at_zero(self):
        q = make_red()
        assert q.avg == 0.0

    def test_idle_period_decays_average(self):
        q = make_red(service_rate_bps=15e6)
        for _ in range(200):
            admit(q, 1500, queue_bytes=60_000, queue_pkts=40)
        peak = q.avg
        # Queue sat empty for one second before the next arrival.
        admit(q, 1500, queue_bytes=0, queue_pkts=0, now=10.0,
              idle_since=9.0)
        assert q.avg < peak * 0.5

    def test_idle_arrival_folds_sample_after_decay(self):
        # ns-2 semantics: an arrival ending an idle period decays the
        # average by (1-w_q)^m over the idle gap and THEN applies the
        # normal w_q update with its own queue sample -- it must not
        # skip the sample fold.
        q = make_red(service_rate_bps=15e6, w_q=0.02)
        q.avg = 40.0
        admit(q, 1500, queue_bytes=0, queue_pkts=0, now=10.0,
              idle_since=9.999)
        service = 1000.0 * 8.0 / 15e6  # mean-size packet transmission time
        m = 0.001 / service
        expected = 40.0 * (1.0 - 0.02) ** m * (1.0 - 0.02)  # decay, then q=0
        assert q.avg == pytest.approx(expected, rel=1e-9)

    def test_byte_mode_measures_bytes(self):
        q = make_red(byte_mode=True, min_th=20_000.0, max_th=80_000.0)
        for _ in range(100):
            admit(q, 1500, queue_bytes=10_000, queue_pkts=7)
        assert q.avg == pytest.approx(10_000, rel=0.3)


class TestREDDropping:
    def test_no_drops_below_min_th(self):
        q = make_red()
        for _ in range(500):
            assert admit(q, 1500, queue_bytes=7_500, queue_pkts=5)
        assert q.early_drops == 0

    def test_early_drops_between_thresholds(self):
        q = make_red()
        for _ in range(2000):
            admit(q, 1500, queue_bytes=75_000, queue_pkts=50)
        assert q.early_drops > 0
        # ... but nowhere near everything.
        assert q.accepts > q.early_drops

    def test_all_dropped_far_beyond_gentle_region(self):
        q = make_red(gentle=True, capacity_bytes=1000 * 1500.0)
        # Push the average way past 2*max_th (160) with a roomy buffer, so
        # the refusal below comes from RED, not from a full buffer.
        for _ in range(3000):
            admit(q, 1500, queue_bytes=300_000, queue_pkts=200)
        assert not admit(q, 1500, queue_bytes=300_000, queue_pkts=200)
        assert q.early_drops > 0

    def test_gentle_mode_softer_than_hard_cutoff(self):
        drops = {}
        for gentle in (True, False):
            q = make_red(gentle=gentle, rng=random.Random(3))
            for _ in range(1500):
                # 90 packets buffered: average settles above max_th (80)
                # but the buffer itself is not full.
                admit(q, 1500, queue_bytes=135_000, queue_pkts=90)
            drops[gentle] = q.early_drops
        assert drops[True] < drops[False]

    def test_forced_drop_when_buffer_full(self):
        q = make_red()
        assert not admit(q, 1500, queue_bytes=100 * 1500.0 - 100,
                         queue_pkts=100)
        assert q.drops == 1

    def test_drop_probability_increases_with_average(self):
        p_low = admission_drop_probability(30.0, 1500)
        p_high = admission_drop_probability(70.0, 1500)
        assert 0 < p_low < p_high <= 0.1

    def test_gentle_region_probability(self):
        # Between max_th (80) and 2*max_th (160).
        p = admission_drop_probability(120.0, 1500)
        assert 0.1 < p < 1.0

    def test_byte_mode_scales_with_packet_size(self):
        params = dict(byte_mode=True, min_th=20_000.0, max_th=80_000.0,
                      mean_pkt_bytes=1000.0)
        small = admission_drop_probability(50_000.0, 500, **params)
        large = admission_drop_probability(50_000.0, 2000, **params)
        assert large == pytest.approx(4 * small)

    def test_deterministic_with_seeded_rng(self):
        outcomes = []
        for _ in range(2):
            q = make_red(rng=random.Random(99))
            run = [
                admit(q, 1500, queue_bytes=75_000, queue_pkts=50)
                for _ in range(300)
            ]
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
