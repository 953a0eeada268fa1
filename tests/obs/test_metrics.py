"""The metrics registry and its enable/disable switch."""

import pytest

from repro.obs import metrics


@pytest.fixture(autouse=True)
def metrics_disabled():
    """Every test starts and ends with no active registry."""
    metrics.disable()
    yield
    metrics.disable()


class TestInstruments:
    def test_counter_accumulates(self):
        counter = metrics.Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_set_and_track_max(self):
        gauge = metrics.Gauge("g")
        gauge.set(4.0)
        gauge.track_max(2.0)
        assert gauge.value == 4.0
        gauge.track_max(9.0)
        assert gauge.value == 9.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = metrics.MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = metrics.MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        registry = metrics.MetricsRegistry()
        registry.gauge("b.depth").set(7.0)
        registry.counter("a.events").inc(3)
        registry.counter("c.bytes").inc(10.0)
        snap = registry.snapshot()
        assert list(snap) == ["a.events", "b.depth", "c.bytes"]
        assert snap == {"a.events": 3.0, "b.depth": 7.0, "c.bytes": 10.0}
        json.dumps(snap)  # must serialize


class TestSwitch:
    def test_disabled_by_default(self):
        assert metrics.active() is None

    def test_enable_installs_fresh_registry(self):
        registry = metrics.enable()
        assert metrics.active() is registry
        assert metrics.disable() is registry
        assert metrics.active() is None

    def test_collecting_restores_previous_state(self):
        outer = metrics.enable()
        with metrics.collecting() as inner:
            assert metrics.active() is inner
            assert inner is not outer
        assert metrics.active() is outer
