"""Flow-conformance (feature-based) filtering."""

import hashlib

import pytest

from repro.detection.feature import ConformanceDetector, FlowProfile


def forward(detector, flow_id, times, size=1500.0, attack=True):
    """Data-direction arrival rows, attack sizes negated."""
    signed = -size if attack else size
    detector.ingest([(t, 0.0, 0, signed, flow_id, True) for t in times], [])


def reverse_acks(detector, flow_id, count):
    detector.ingest([], [(0.0, 0.0, 0, 40.0, flow_id, True)] * count)


class TestFlowProfile:
    def test_mean_rate(self):
        profile = FlowProfile()
        profile.forward_bytes = 1_000_000.0
        profile.first_time, profile.last_time = 0.0, 8.0
        assert profile.mean_rate_bps() == pytest.approx(1e6)

    def test_zero_span_rate(self):
        profile = FlowProfile()
        profile.forward_bytes = 100.0
        assert profile.mean_rate_bps() == 0.0

    def test_one_way(self):
        profile = FlowProfile()
        profile.forward_packets = 5
        assert profile.one_way()
        profile.reverse_packets = 1
        assert not profile.one_way()


class TestConformanceDetector:
    def test_one_way_flood_flagged(self):
        detector = ConformanceDetector(min_rate_bps=1e6)
        forward(detector, 50, [i * 0.001 for i in range(10_000)])
        assert detector.is_flagged(50)

    def test_tcp_flow_with_acks_not_flagged(self):
        detector = ConformanceDetector(min_rate_bps=1e6)
        forward(detector, 1, [i * 0.001 for i in range(10_000)],
                attack=False)
        reverse_acks(detector, 1, 500)
        assert not detector.is_flagged(1)

    def test_low_rate_one_way_flow_evades(self):
        """The PDoS stealth property: under the rate floor, no flag."""
        detector = ConformanceDetector(min_rate_bps=10e6)
        # 1500 B every 10 ms = 1.2 Mb/s, far below the 10 Mb/s floor.
        forward(detector, 50, [i * 0.01 for i in range(1000)])
        assert not detector.is_flagged(50)

    def test_flagged_sorted_by_rate(self):
        detector = ConformanceDetector(min_rate_bps=1e5)
        forward(detector, 1, [i * 0.01 for i in range(1000)])   # slower
        forward(detector, 2, [i * 0.001 for i in range(1000)])  # faster
        flagged = detector.flagged_flows()
        assert [flow_id for flow_id, _ in flagged] == [2, 1]

    def test_ingest_profiles_dropped_arrivals_and_reverse_rows(self):
        detector = ConformanceDetector()
        detector.ingest(
            [(0.5, 0.0, 0, -1500.0, 9, True),
             (0.25, 0.0, 0, -1000.0, 9, False),
             (0.75, 0.0, 0, 1500.0, 2, True)],
            [(0.8, 0.0, 0, 40.0, 2, False)])
        attack = detector.profiles[9]
        assert (attack.forward_packets, attack.forward_bytes,
                attack.first_time, attack.last_time) == (2, 2500.0, 0.25, 0.5)
        assert attack.one_way()
        assert detector.profiles[2].reverse_packets == 1
        assert not detector.profiles[2].one_way()

    def test_unknown_flow_not_flagged(self):
        detector = ConformanceDetector()
        assert not detector.is_flagged(12345)


class TestDetectorCellGolden:
    def test_profiles_of_attacked_cell(self, monkeypatch):
        """Every flow profile a runner cell's detector builds, pinned.

        Three NewReno flows and one pulse train on the dumbbell; the
        sha256 covers each profile's flow id, forward packets and
        bytes, reverse packets, first/last time and mean rate, sorted
        by flow id.  How the detector observes the links may change;
        these values may not.
        """
        import repro.detection.feature as feature
        from repro.core.attack import PulseTrain
        from repro.runner import Cell, PlatformSpec, execute_cell
        from repro.util.units import mbps, ms

        built = []

        class Capturing(feature.ConformanceDetector):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                built.append(self)

        monkeypatch.setattr(feature, "ConformanceDetector", Capturing)
        train = PulseTrain.from_gamma(
            gamma=0.5, rate_bps=mbps(30), extent=ms(100),
            bottleneck_bps=mbps(15), n_pulses=15)
        cell = Cell(platform=PlatformSpec(kind="dumbbell", n_flows=3,
                                          seed=23),
                    warmup=1.0, window=3.0, train=train,
                    rate_floor_bps=mbps(1))
        assert execute_cell(cell).flagged_sources == 1
        (detector,) = built
        rows = sorted(
            (flow_id, p.forward_packets, p.forward_bytes, p.reverse_packets,
             p.first_time, p.last_time, p.mean_rate_bps())
            for flow_id, p in detector.profiles.items())
        assert rows[-1][:4] == (10000, 2008, 3012000.0, 0)  # the attack
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "1abd2d48f9fa21df9c069a4c7255566220d46f5c78a283f2690ae7523fcd8b41")
