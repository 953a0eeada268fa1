"""Scheduler backends: calendar-queue edge cases and heap equivalence.

The engine promises bit-identical dispatch whichever backend runs
(strict ``(time, seq)`` total order).  These tests pin the promise at
the structure's seams: bucket boundaries, mid-bucket stops, zero-delay
storms, head cancellations, resize/compaction churn, auto-migration,
and a randomized heap-vs-calendar equivalence property test.
"""

import random

import pytest

from repro.sim.engine import (
    AUTO_CALENDAR_DEPTH,
    CalendarQueue,
    Event,
    HeapScheduler,
    Simulator,
    scheduler_builds,
)
from repro.util.errors import SimulationError


class TestSelection:
    def test_explicit_backends(self, make_sim):
        assert Simulator().scheduler == "heap"  # every simulator starts there
        assert make_sim("heap").scheduler == "heap"
        assert make_sim("calendar").scheduler == "calendar"

    def test_builds_counter_tracks_backends(self, make_sim):
        before = scheduler_builds()
        make_sim("heap")
        make_sim("calendar")
        after = scheduler_builds()
        # Both start on the heap; the migration counts toward "calendar".
        assert after["heap"] == before["heap"] + 2
        assert after["calendar"] == before["calendar"] + 1


class TestBucketBoundaries:
    def test_schedule_exactly_on_bucket_boundary(self, make_sim):
        """Events at exact multiples of the bucket width stay ordered."""
        sim = make_sim("calendar")
        width = sim._sched.width
        fired = []
        # Interleave boundary-exact times with mid-bucket times.
        times = [k * width for k in range(1, 40)]
        times += [k * width + width / 3 for k in range(1, 40)]
        for t in sorted(times):
            sim.schedule_at(t, fired.append, t)
        sim.run()
        assert fired == sorted(times)

    def test_boundary_event_lands_in_front_when_due(self, make_sim):
        """``int(t / width) <= cur_abs`` routes due pushes to the front."""
        sim = make_sim("calendar")
        sched = sim._sched
        fired = []

        def reschedule_same_time():
            # Scheduled mid-dispatch at the current time: its bucket
            # index equals the loaded one, so it must go to the front
            # and fire in this same run, in seq order.
            sim.schedule(0.0, fired.append, "nested")

        sim.schedule(1.0, reschedule_same_time)
        sim.schedule(1.0, fired.append, "direct")
        sim.run()
        assert fired == ["direct", "nested"]
        assert len(sched) == 0

    def test_sparse_far_future_jump(self, make_sim):
        """A calendar holding only far-future timers skips ahead."""
        sim = make_sim("calendar")
        fired = []
        # Force a tiny width via a dense cluster, then drain it, leaving
        # only entries many ring revolutions away.
        for k in range(32):
            sim.schedule(1e-4 * (k + 1), lambda: None)
        sim.schedule(500.0, fired.append, "far")
        sim.schedule(900.0, fired.append, "farther")
        sim.run()
        assert fired == ["far", "farther"]
        assert sim.now == 900.0


class TestStopMidBucket:
    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_stop_preserves_remaining_entries(self, make_sim, scheduler):
        sim = make_sim(scheduler)
        fired = []
        # Five same-bucket events; the middle one stops the loop.
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
            if tag == 2:
                sim.schedule(1.0, sim.stop)
        sim.run()
        assert fired == [0, 1, 2]
        assert sim.pending_events == 2
        # Resuming dispatches the rest in order, nothing lost.
        sim.run()
        assert fired == [0, 1, 2, 3, 4]
        assert sim.pending_events == 0

    def test_stop_mid_bucket_keeps_front_consistent(self, make_sim):
        """After a stop, the calendar's front still holds loaded entries
        and a fresh run() picks up exactly where dispatch halted."""
        sim = make_sim("calendar")
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(1.0, sim.stop)
        sim.schedule(1.0, fired.append, "b")
        sim.schedule(1.0 + sim._sched.width * 50, fired.append, "later")
        sim.run()
        assert fired == ["a"]
        digest_before = sim.state_digest()
        assert sim.run() == 2
        assert fired == ["a", "b", "later"]
        # The interrupted digest covered exactly the events that then ran.
        assert len(digest_before[2]) == 2


class TestZeroDelayStorm:
    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_zero_delay_chain_fifo(self, make_sim, scheduler):
        sim = make_sim(scheduler)
        fired = []

        def chain(n):
            fired.append(n)
            if n:
                sim.schedule(0.0, chain, n - 1)

        sim.schedule(1.0, chain, 500)
        sim.run()
        assert fired == list(range(500, -1, -1))
        assert sim.now == 1.0

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_zero_delay_fan_out_orders_by_seq(self, make_sim, scheduler):
        sim = make_sim(scheduler)
        fired = []

        def fan_out():
            for tag in range(100):
                sim.schedule(0.0, fired.append, tag)

        sim.schedule(2.0, fan_out)
        sim.schedule(2.0, fired.append, "sibling")
        sim.run()
        assert fired == ["sibling"] + list(range(100))

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_runaway_storm_hits_budget(self, make_sim, scheduler):
        sim = make_sim(scheduler)

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.5, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=1_000)
        assert sim.events_executed == 1_000


class TestHeadCancellation:
    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_cancel_head_entry_skips_it(self, make_sim, scheduler):
        sim = make_sim(scheduler)
        fired = []
        head = sim.schedule(1.0, fired.append, "head")
        sim.schedule(2.0, fired.append, "next")
        head.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["next"]
        assert sim.events_executed == 1

    def test_cancel_head_of_loaded_front(self, make_sim):
        """Cancelling an entry the calendar already moved to its front."""
        sim = make_sim("calendar")
        fired = []
        handles = [sim.schedule(1.0, fired.append, tag) for tag in range(4)]
        stopper = sim.schedule(1.0, sim.stop)
        sim.run()  # loads the bucket into the front, then stops
        assert fired == list(range(4))
        del stopper
        later = [sim.schedule(1.0, fired.append, 10 + tag)
                 for tag in range(3)]
        later[0].cancel()  # head of the refilled front
        sim.run()
        assert fired == list(range(4)) + [11, 12]
        assert all(h.cancelled for h in handles)  # fired handles are inert

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_cancel_after_firing_is_noop(self, make_sim, scheduler):
        sim = make_sim(scheduler)
        fired = []
        handle = sim.schedule(1.0, fired.append, "once")
        sim.run()
        handle.cancel()
        handle.cancel()
        assert fired == ["once"]
        assert sim.pending_events == 0
        assert sim.events_cancelled_skipped == 0


class TestResizeAndCompaction:
    def test_bucket_count_grows_and_shrinks(self, make_sim):
        sim = make_sim("calendar")
        sched = sim._sched
        assert sched.nbuckets == CalendarQueue._MIN_BUCKETS
        rng = random.Random(5)
        for _ in range(2_000):
            sim.schedule(rng.uniform(0.0, 10.0), lambda: None)
        assert sched.nbuckets >= 1024
        grown = sched.resizes
        sim.run()
        assert sched.resizes > grown  # drained back down
        assert sched.nbuckets == CalendarQueue._MIN_BUCKETS

    def test_compaction_drops_cancelled_wholesale(self, make_sim):
        sim = make_sim("calendar")
        sched = sim._sched
        keep = [sim.schedule(1.0 + k * 0.01, lambda: None)
                for k in range(50)]
        doomed = [sim.schedule(5.0 + k * 0.01, lambda: None)
                  for k in range(500)]
        for handle in doomed:
            handle.cancel()
        # Cancelled entries exceeded two thirds of pending: compacted
        # wholesale (the stragglers cancelled after the rebuild stay
        # below the _COMPACT_MIN re-trigger floor).
        assert sim.events_compacted >= 400
        assert sched.cancelled_pending < 64
        assert sim.pending_events == len(keep)
        assert sim.pending_entries == len(keep) + sched.cancelled_pending

    def test_heap_drains_cancelled_lazily(self, make_sim):
        sim = make_sim("heap")
        for k in range(100):
            sim.schedule(1.0 + k * 0.01, lambda: None).cancel()
        survivor = []
        sim.schedule(9.0, survivor.append, "live")
        # No auto-compaction on the heap: raw occupancy keeps the dead.
        assert sim.pending_entries == 101
        assert sim.pending_events == 1
        sim.run()
        assert survivor == ["live"]
        assert sim.events_cancelled_skipped == 100
        assert sim.events_executed == 1


class TestFreelist:
    def test_calendar_recycles_transient_entries(self, make_sim):
        sim = make_sim("calendar")
        sched = sim._sched
        fired = []

        def tick(n):
            fired.append(n)
            if n:
                sim._push_transient(sim.now + 0.01, tick, (n - 1,))

        sim._push_transient(0.01, tick, (200,))
        sim.run()
        assert fired == list(range(200, -1, -1))
        assert sched.recycled >= 199  # every hop after the first reuses

    def test_event_handles_never_enter_freelist(self, make_sim):
        sim = make_sim("calendar")
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert all(e.__class__ is not Event for e in sim._sched.free)
        assert handle.cancelled  # inert, but still a distinct object


class TestAutoMigration:
    def test_auto_migrates_past_threshold(self):
        sim = Simulator()
        for k in range(AUTO_CALENDAR_DEPTH + 1):
            sim.schedule(1.0 + k * 1e-4, lambda: None)
        assert sim.scheduler == "heap"  # not yet: checked on next entry
        sim.schedule(2.0, lambda: None)
        assert sim.scheduler == "calendar"
        assert sim._migrations == 1

    def test_migration_preserves_dispatch_and_digest(self, pin_backend):
        def build():
            sim = Simulator()
            fired = []
            rng = random.Random(77)
            for _ in range(AUTO_CALENDAR_DEPTH + 50):
                t = rng.uniform(0.0, 5.0)
                sim.schedule(t, fired.append, round(t, 9))
            cancels = [sim.schedule(rng.uniform(0.0, 5.0), fired.append, "x")
                       for _ in range(100)]
            for handle in cancels:
                handle.cancel()
            sim.schedule(6.0, lambda: None)
            return sim, fired

        # Unpinned first: it migrates at the live-depth threshold.  The
        # heap pin then applies only to the simulator built after it.
        auto_sim, auto_fired = build()
        assert auto_sim.scheduler == "calendar"
        pin_backend("heap")
        heap_sim, heap_fired = build()
        assert heap_sim.scheduler == "heap"
        assert auto_sim.state_digest() == heap_sim.state_digest()
        heap_sim.run()
        auto_sim.run()
        assert auto_fired == heap_fired
        assert auto_sim.events_executed == heap_sim.events_executed

    def test_small_scenarios_stay_on_heap(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.scheduler == "heap"
        assert sim._migrations == 0


class TestEquivalenceProperty:
    """Randomized heap-vs-calendar dispatch-order equivalence."""

    @staticmethod
    def _chaos_run(sim, seed):
        rng = random.Random(seed)
        trace = []
        handles = []

        def handler(tag):
            trace.append((round(sim.now, 12), tag))
            roll = rng.random()
            if roll < 0.55:
                sim.schedule(rng.uniform(0.0, 0.4), handler, tag + 1000)
            elif roll < 0.70:
                handles.append(
                    sim.schedule(rng.uniform(0.1, 2.0), handler, tag + 5000))
            elif roll < 0.85 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()
            # else: leaf event

        for tag in range(300):
            sim.schedule(rng.uniform(0.0, 1.0), handler, tag)
        sim.run(until=3.0, max_events=100_000)
        return trace, sim

    @pytest.mark.parametrize("seed", [1, 17, 4242])
    def test_random_workloads_dispatch_identically(self, make_sim, seed):
        heap_trace, heap_sim = self._chaos_run(make_sim("heap"), seed)
        cal_trace, cal_sim = self._chaos_run(make_sim("calendar"), seed)
        assert heap_trace == cal_trace
        assert heap_sim.events_executed == cal_sim.events_executed
        assert heap_sim.state_digest() == cal_sim.state_digest()
        assert heap_sim.pending_events == cal_sim.pending_events

    def test_digest_equal_after_identical_schedules(self, make_sim):
        rng_times = [random.Random(3).uniform(0.0, 9.0) for _ in range(500)]
        sims = []
        for scheduler in ("heap", "calendar"):
            sim = make_sim(scheduler)
            for t in rng_times:
                sim.schedule_at(t, lambda: None)
            sims.append(sim)
        assert sims[0].scheduler == "heap"
        assert sims[0].state_digest() == sims[1].state_digest()
