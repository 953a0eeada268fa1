"""The discrete-event engine."""

import pytest

from repro.sim.engine import Simulator
from repro.util.errors import SimulationError


@pytest.fixture(params=["heap", "calendar"])
def sim(request, make_sim) -> Simulator:
    """Every engine contract must hold on both scheduler backends."""
    return make_sim(request.param)


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self, sim):
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute(self, sim):
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_into_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_allowed(self, sim):
        order = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, order.append, "nested"))
        sim.schedule(1.0, order.append, "direct")
        sim.run()
        # The zero-delay event fires after already-queued same-time events.
        assert order == ["direct", "nested"]

    def test_events_scheduled_during_run(self, sim):
        order = []

        def chain(n):
            order.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert order == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancel_after_firing_is_safe(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()

    def test_cancelled_events_not_counted(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        executed = sim.run()
        assert executed == 1
        assert sim.events_executed == 1


class TestRunControl:
    def test_until_bounds_execution(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0  # clock advances to the horizon

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_remaining_events_fire_on_next_run(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        sim.run(until=10.0)
        assert fired == [1, 5]

    def test_clock_advances_to_horizon_when_drained(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_max_events_guards_runaway(self, sim):
        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=100.0, max_events=50)

    def test_max_events_stops_before_dispatching_the_excess_event(self, sim):
        # The budget is checked before dispatch: exactly max_events
        # events execute, never max_events + 1.
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.events_executed == 5

    def test_max_events_budget_exactly_sufficient(self, sim):
        # A heap holding exactly max_events events drains cleanly.
        for i in range(5):
            sim.schedule(0.1 * (i + 1), lambda: None)
        assert sim.run(max_events=5) == 5

    def test_cancelled_events_do_not_consume_the_budget(self, sim):
        fired = []
        events = [
            sim.schedule(0.1 * (i + 1), fired.append, i) for i in range(4)
        ]
        events[1].cancel()
        events[2].cancel()
        assert sim.run(max_events=2) == 2
        assert fired == [0, 3]

    def test_stop_halts_immediately(self, sim):
        fired = []

        def first():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]

    def test_run_not_reentrant(self, sim):
        def try_nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, try_nested)
        sim.run()

    def test_pending_events_counter(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run(until=1.5)
        assert sim.pending_events == 1
