"""Discrete-event simulation engine with pluggable calendar backends.

A minimal but complete event scheduler in the style of ns-2's
``Scheduler``: a calendar of timestamped callbacks, a monotonically
advancing clock, and cancellable event handles.

The engine is deliberately unaware of networking; links, queues, and TCP
agents schedule plain callables.  This keeps the core loop tight (the
simulator executes a few million events for a one-minute dumbbell
scenario) and trivially testable.

Scheduler backends
------------------
Two interchangeable calendar structures implement the same dispatch
contract (strict ``(time, seq)`` total order, so results are
bit-identical whichever backend runs):

* :class:`HeapScheduler` -- a binary heap (``heapq``).  O(log n) per
  operation with tiny constants; the best choice for the paper's
  15-flow dumbbell, where calendar depth stays in the hundreds.
* :class:`CalendarQueue` -- a Brown-style calendar queue (the structure
  ns-2 ships as its *default* scheduler): a time-bucketed circular
  array with automatic bucket-count/width resizing, O(1) amortized
  enqueue/dequeue.  It wins once calendar depth reaches thousands of
  entries (tens of thousands of flows keeping RTO timers pending).

Selection: the live depth alone picks the backend.  Every
:class:`Simulator` starts on the heap and migrates the whole calendar
to a :class:`CalendarQueue` once the live depth crosses
:data:`AUTO_CALENDAR_DEPTH` (the measured crossover; see DESIGN.md).
Migration happens only between run segments / outside the dispatch
loop, preserves every pending entry, and never changes dispatch order.

Hot-path design
---------------
A calendar entry is a small list ``[time, seq, fn, args]`` (plus an
owner slot on cancellable entries -- see :class:`Event`), so both
backends order entries with C-level sequence comparison -- ``time``
first, then the unique ``seq`` tiebreaker, never reaching the callable.

Zero-churn event path: callers that never cancel (per-packet delivery,
attack emission chains) schedule *transient* entries via
``Simulator._push_transient``; under the calendar backend the dispatch
loop recycles fired transient entries through a freelist instead of
allocating a fresh list per event (the heap backend keeps the baseline
allocation-per-event behavior).  At many-flows scale the recycling
also keeps the cyclic GC quiet: fewer container allocations means far
fewer full collections over the (huge) scenario object graph.
Cancellable events (RTO / delayed-ACK timers)
are :class:`Event` handles and are **never** recycled, so a stale
handle can never alias a newer event; cancellation clears the callable
slot in place (``fn = None``) and counts the entry in the backend's
``cancelled_pending`` total (keeping ``pending_events`` and the
``engine.peak_calendar_depth`` gauge honest).  The heap drains
cancelled entries lazily when their timestamp comes up; the calendar
queue additionally compacts them away wholesale once they exceed two
thirds of all pending entries, so dead RTO timers cannot inflate it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import metrics as _obs
from repro.util.errors import SimulationError

__all__ = ["Event", "Simulator", "HeapScheduler", "CalendarQueue",
           "total_events_dispatched", "scheduler_builds",
           "AUTO_CALENDAR_DEPTH"]

#: Process-wide count of events dispatched across every Simulator; the
#: profiling instrumentation (:mod:`repro.sim.profile`) reads this to
#: compute events/sec for experiments that build simulators internally.
_TOTAL_DISPATCHED = 0

#: Process-wide backend usage: every Simulator counts toward "heap",
#: and each migration toward "calendar", so a profile report can state
#: which structure actually ran.
_SCHEDULER_BUILDS = {"heap": 0, "calendar": 0}

#: Live-depth crossover at which a simulator migrates heap -> calendar.
#: Measured on full dumbbell scenarios (see DESIGN.md "Scheduler
#: backends"): the heap wins below ~3k live entries (2k-flow dumbbell:
#: calendar at 0.9x), the backends cross between 4k and 6k, and the
#: calendar wins from ~8k up (10k-flow dumbbell: 1.05-1.2x warm, wider
#: on first run in a process), with the gap growing with depth (1.5x
#: on scheduler-bound churn at 200k+ pending).  The paper's own
#: scenarios stay well under 1k, so they keep the heap.
AUTO_CALENDAR_DEPTH = 5000

#: Upper bound on recycled entries kept per backend, so a transient
#: event storm cannot pin memory after it drains.
_FREELIST_CAP = 8192

#: The calendar queue compacts cancelled entries away once they exceed
#: this fraction of all pending entries (and at least ``_COMPACT_MIN``
#: of them exist).  2/3 bounds raw occupancy at 3x the live count while
#: keeping rebuilds rare: bucket-resident dead entries cost nothing
#: until their bucket is loaded, so eager compaction buys little.
_COMPACT_FRACTION = 2.0 / 3.0
_COMPACT_MIN = 64


def total_events_dispatched() -> int:
    """Events dispatched by all simulators in this process so far."""
    return _TOTAL_DISPATCHED


def scheduler_builds() -> dict:
    """Per-backend Simulator construction counts for this process."""
    return dict(_SCHEDULER_BUILDS)


class Event(list):
    """A cancellable scheduled callback: ``[time, seq, fn, args, owner]``.

    Returned by :meth:`Simulator.schedule`; hold on to it only if you may
    need to :meth:`cancel` it (e.g. a retransmission timer).  The entry
    itself is the cancellation handle -- a list subclass, so the
    calendar compares entries with C-level lexicographic comparison on
    ``(time, seq)``.  ``seq`` is unique per simulator, which keeps
    simultaneous events in FIFO scheduling order (deterministic runs)
    and guarantees the comparison never reaches the callable.

    ``owner`` is the scheduler backend holding the entry; cancellation
    reports into its live-entry accounting.  Event handles are never
    recycled through the freelist (only anonymous transient entries
    are), so a handle kept after its event fired stays inert forever.

    Construct with the ready-made entry sequence, e.g.
    ``Event((time, seq, fn, args, owner))``.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Scheduled firing time, seconds."""
        return self[0]

    @property
    def seq(self) -> int:
        """FIFO tiebreaker, unique per simulator."""
        return self[1]

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire (cancelled or fired)."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing."""
        # Clearing in place (rather than removing from the calendar)
        # keeps cancellation O(1); dropping the callback and args also
        # ensures a cancelled timer does not pin packets/agents in
        # memory until the calendar drains or compacts past it.
        if self[2] is None:
            return
        self[2] = None
        self[3] = ()
        owner = self[4] if len(self) > 4 else None
        if owner is not None:
            owner.note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "pending"
        return f"<Event t={self[0]:.6f} seq={self[1]} {state}>"


class HeapScheduler:
    """Binary-heap calendar backend (``heapq``); O(log n) per operation.

    The reference baseline: one fresh entry list per scheduled event
    and lazy cancellation (dead entries drain when their timestamp
    comes up).  Ideal at small depth -- C ``heapq`` constants are hard
    to beat -- but at many-flows scale it pays O(log n) pops over a
    structure inflated by dead RTO timers, plus an allocation per
    event that keeps the cyclic garbage collector busy.  The
    :class:`CalendarQueue` backend addresses exactly those costs
    (bucketed O(1) enqueue, compaction, freelist).
    """

    name = "heap"

    #: the heap never compacts: cancelled entries drain lazily.
    events_compacted = 0

    __slots__ = ("entries", "seq", "cancelled_pending")

    def __init__(self) -> None:
        #: the heap itself; the dispatch loop reaches in directly.
        self.entries: List[Any] = []
        #: the seq the next scheduled entry receives (a plain int, so
        #: reading it consumes nothing and forks copy it as a value).
        self.seq = 0
        #: calendar entries cancelled but not yet drained.
        self.cancelled_pending = 0

    # -- scheduling ----------------------------------------------------
    def push_handle(self, time: float, fn, args) -> Event:
        """Schedule a cancellable event; returns its handle."""
        seq = self.seq
        self.seq = seq + 1
        event = Event((time, seq, fn, args, self))
        heappush(self.entries, event)
        return event

    def push_transient(self, time: float, fn, args) -> None:
        """Schedule a fire-and-forget event (no handle)."""
        seq = self.seq
        self.seq = seq + 1
        heappush(self.entries, [time, seq, fn, args])

    # -- accounting ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    @property
    def live_count(self) -> int:
        """Pending entries that can still fire (cancelled excluded)."""
        return len(self.entries) - self.cancelled_pending

    def note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`.

        The heap drains cancelled entries lazily, when the dispatch
        loop reaches their timestamp -- a dead RTO timer therefore
        inflates the structure until its (cancelled) expiry would have
        arrived.  This is the classic heap-scheduler weakness at many
        flows; the :class:`CalendarQueue` backend compacts instead.
        The counter keeps ``pending_events`` and the depth gauge
        honest in the meantime.
        """
        self.cancelled_pending += 1

    # -- introspection / migration ------------------------------------
    def live_entries(self) -> List[Any]:
        """The live entries, in no particular order."""
        return [e for e in self.entries if e[2] is not None]

    def digest_entries(self) -> Tuple[Tuple[float, int], ...]:
        """Live ``(time, seq)`` pairs in sorted order (canonical form).

        Sorted -- not raw heap order -- so digests compare equal across
        scheduler backends and across heaps built by different push
        sequences; cancelled entries are excluded because they can
        never influence dispatch (a compacting backend drops them
        eagerly, a lazy one on drain).
        """
        return tuple(sorted((e[0], e[1]) for e in self.entries
                            if e[2] is not None))


class CalendarQueue:
    """Calendar-queue backend: bucketed circular array + dispatch front.

    A two-level variant of Brown's calendar queue (R. Brown, *Calendar
    Queues: A Fast O(1) Priority Queue Implementation for the
    Simulation Event Set Problem*, CACM 1988 -- the structure ns-2
    ships as its default scheduler), adapted to CPython's constant
    factors:

    * Far-future entries live in ``nbuckets`` *unsorted* buckets, each
      covering ``width`` seconds of simulated time: an entry at time
      *t* belongs to absolute bucket index ``int(t / width)``, stored
      at ring position ``index % nbuckets``.  Enqueue is a plain
      ``list.append`` -- O(1), no comparisons at all.
    * Due entries live in a small binary-heap *front* (C ``heapq``),
      which the dispatch loop pops directly.  When the front drains,
      the ring advances one bucket: entries of the next absolute index
      are filtered out of their bucket and heapified into the front.
      The front only ever holds about one bucket's worth of events, so
      its O(log f) operations run on a tiny f regardless of total
      calendar depth.
    * Classification is *index* arithmetic on both sides -- an entry
      goes to the front iff ``int(t / width) <= cur_abs``, the exact
      comparison the bucket loader uses -- so an event scheduled
      exactly on a bucket boundary can never be mis-ordered by
      floating-point rounding (``int(t / w)`` is monotone in ``t``).
    * Resizing keeps occupancy amortized O(1): the bucket count
      doubles when live entries exceed ``2 * nbuckets`` and halves
      below ``nbuckets / 2``; each rebuild re-estimates ``width`` from
      the spacing of the earliest entries so a bucket covers a handful
      of events.
    * Lazy cancellation with compaction: cancelled entries stay put
      (O(1) cancel) but are dropped wholesale -- not drained one by
      one -- once they exceed two thirds of all pending entries, and at
      every rebuild.  A cancelled RTO timer therefore never inflates
      the structure for long, unlike a lazy heap where it sits until
      the clock drains past it.

    Dispatch order is the exact ``(time, seq)`` total order: the front
    is a heap over the same C-comparable entries, and every bucket
    entry's index exceeds ``cur_abs``, hence its time exceeds every
    front entry's.  Runs are bit-identical to the heap backend.
    """

    name = "calendar"

    #: bucket-count floor (and initial geometry).
    _MIN_BUCKETS = 8
    #: entries sampled from the sorted head to re-estimate the width.
    _WIDTH_SAMPLE = 64

    __slots__ = ("front", "buckets", "nbuckets", "width", "count", "free",
                 "seq", "cancelled_pending", "recycled", "compactions",
                 "events_compacted", "resizes", "cur_abs")

    def __init__(self, *, width: float = 1e-3) -> None:
        #: due entries, a binary heap; the dispatch loop pops this.
        self.front: List[Any] = []
        self.nbuckets = self._MIN_BUCKETS
        self.buckets: List[List[Any]] = [[] for _ in range(self.nbuckets)]
        #: seconds of simulated time per bucket.
        self.width = width
        #: total entries (front + buckets), including cancelled ones.
        self.count = 0
        self.free: List[Any] = []
        self.seq = 0
        self.cancelled_pending = 0
        self.recycled = 0
        self.compactions = 0
        self.events_compacted = 0
        self.resizes = 0
        #: absolute bucket index whose entries have been moved to the
        #: front; buckets only hold strictly later indices.
        self.cur_abs = -1

    # -- scheduling ----------------------------------------------------
    def push_handle(self, time: float, fn, args) -> Event:
        """Schedule a cancellable event; returns its handle."""
        seq = self.seq
        self.seq = seq + 1
        event = Event((time, seq, fn, args, self))
        index = int(time / self.width)
        if index <= self.cur_abs:
            heappush(self.front, event)
        else:
            self.buckets[index % self.nbuckets].append(event)
        count = self.count + 1
        self.count = count
        if count - self.cancelled_pending > 2 * self.nbuckets:
            self._resize(self.nbuckets * 2)
        return event

    def push_transient(self, time: float, fn, args) -> None:
        """Schedule a fire-and-forget event (recyclable, no handle)."""
        seq = self.seq
        self.seq = seq + 1
        free = self.free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = seq
            entry[2] = fn
            entry[3] = args
            self.recycled += 1
        else:
            entry = [time, seq, fn, args]
        index = int(time / self.width)
        if index <= self.cur_abs:
            heappush(self.front, entry)
        else:
            self.buckets[index % self.nbuckets].append(entry)
        count = self.count + 1
        self.count = count
        if count - self.cancelled_pending > 2 * self.nbuckets:
            self._resize(self.nbuckets * 2)

    # -- dequeue -------------------------------------------------------
    def advance(self) -> bool:
        """Refill the front from the next occupied bucket.

        Returns False when the whole calendar is empty.  Called by the
        dispatch loop whenever the front drains; walks the ring
        forward one bucket index at a time, moving each index's
        entries into the front.  If a full ring revolution finds
        nothing (a sparse, far-future calendar -- e.g. only RTO timers
        seconds away), it jumps straight to the bucket holding the
        global minimum instead of crawling index by index.
        """
        if self.count == len(self.front):
            return bool(self.front)
        # Shrink before loading (not after), so advance() never returns
        # True with a front a rebuild just emptied.
        if (self.count - self.cancelled_pending < self.nbuckets // 2
                and self.nbuckets > self._MIN_BUCKETS):
            self._resize(self.nbuckets // 2)
        buckets = self.buckets
        n = self.nbuckets
        width = self.width
        front = self.front
        cur = self.cur_abs
        scanned = 0
        while True:
            cur += 1
            scanned += 1
            bucket = buckets[cur % n]
            if bucket:
                due = [e for e in bucket if int(e[0] / width) <= cur]
                if due:
                    if len(due) == len(bucket):
                        del bucket[:]
                    else:
                        bucket[:] = [e for e in bucket
                                     if int(e[0] / width) > cur]
                    front.extend(due)
                    heapify(front)
                    self.cur_abs = cur
                    return True
            if scanned >= n:
                # Nothing due within one revolution: jump to the
                # global minimum's bucket and let the loop load it.
                best = None
                for bucket in buckets:
                    for entry in bucket:
                        if best is None or entry < best:
                            best = entry
                if best is None:  # pragma: no cover - guarded by count
                    return bool(front)
                cur = int(best[0] / width) - 1
                scanned = -n  # the jump target loads on the next pass

    # -- accounting ----------------------------------------------------
    def __len__(self) -> int:
        return self.count

    @property
    def live_count(self) -> int:
        """Pending entries that can still fire (cancelled excluded)."""
        return self.count - self.cancelled_pending

    def note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; may trigger compaction."""
        cancelled = self.cancelled_pending + 1
        self.cancelled_pending = cancelled
        if (cancelled >= _COMPACT_MIN
                and cancelled > self.count * _COMPACT_FRACTION):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry (pooled rebuild).

        A rebuild at the current bucket count: pooling all live entries
        into one C ``sort`` and redistributing is far cheaper than
        filtering thousands of mostly-singleton buckets in place, and
        it refreshes the width estimate as a bonus.  The front list
        keeps its identity (slice-cleared), so a dispatch loop holding
        it as a local stays valid and simply refills on the next
        advance.
        """
        self._resize(self.nbuckets)

    # -- geometry ------------------------------------------------------
    def _estimate_width(self, entries: List[Any], nbuckets: int) -> float:
        """Bucket width for *nbuckets* buckets over sorted *entries*.

        Two constraints, take the larger:

        * Brown's rule of thumb -- a bucket should cover a few events
          -- from the mean gap over up to ``_WIDTH_SAMPLE`` head
          entries, times three.
        * Ring cover: ``nbuckets * width`` must span the full pending
          time range, so no entry wraps the ring.  Without this floor
          a skewed population (dense per-packet events now, sparse RTO
          timers seconds out) gets a microscopic width from the head
          sample and the far timers lap the ring many times, forcing
          every bucket load to re-filter mixed "years".

        Keeps the current width when the sample is degenerate (fewer
        than two entries, or all simultaneous).
        """
        m = min(len(entries), self._WIDTH_SAMPLE)
        if m < 2:
            return self.width
        head_span = entries[m - 1][0] - entries[0][0]
        full_span = entries[-1][0] - entries[0][0]
        if full_span <= 0.0:
            return self.width
        return max(3.0 * head_span / (m - 1), full_span / nbuckets)

    def _resize(self, nbuckets: int) -> None:
        """Rebuild with *nbuckets* buckets and a re-estimated width.

        Front and buckets are pooled, cancelled entries dropped, and
        everything redistributed under the new geometry; the front
        list keeps its identity (the dispatch loop may hold it as a
        local) and refills on the next :meth:`advance`.  O(n log n)
        for the sort, amortized O(1) per operation under the
        doubling/halving schedule.
        """
        live = [e for e in self.front if e[2] is not None]
        for bucket in self.buckets:
            for entry in bucket:
                if entry[2] is not None:
                    live.append(entry)
        live.sort()
        self._install(live, max(self._MIN_BUCKETS, nbuckets))
        self.resizes += 1

    def _install(self, live: List[Any], nbuckets: int) -> None:
        """Distribute sorted *live* entries into a fresh ring."""
        if self.cancelled_pending:
            self.events_compacted += self.cancelled_pending
            self.compactions += 1
            self.cancelled_pending = 0
        self.nbuckets = nbuckets
        self.width = width = self._estimate_width(live, nbuckets)
        buckets = [[] for _ in range(nbuckets)]
        for entry in live:
            buckets[int(entry[0] / width) % nbuckets].append(entry)
        self.buckets = buckets
        self.count = len(live)
        self.front[:] = []
        # Park the scan just before the earliest entry's bucket; the
        # next advance() loads it.
        self.cur_abs = (int(live[0][0] / width) - 1) if live else -1

    # -- introspection / migration ------------------------------------
    def adopt(self, other) -> None:
        """Take over *other*'s pending entries (backend migration).

        Live entries keep their ``(time, seq)`` coordinates -- dispatch
        order is unchanged -- and cancellable entries are re-owned so
        later ``cancel()`` calls report into this backend's accounting.
        Cancelled entries are dropped (their handles stay inert).  The
        seq position carries over.
        """
        live = other.live_entries()
        live.sort()
        for entry in live:
            if entry.__class__ is Event:
                entry[4] = self
        nbuckets = self._MIN_BUCKETS
        while nbuckets < len(live):
            nbuckets *= 2
        self.cancelled_pending = 0
        self._install(live, nbuckets)
        self.seq = other.seq

    def live_entries(self) -> List[Any]:
        """The live entries, in no particular order."""
        entries = [e for e in self.front if e[2] is not None]
        for bucket in self.buckets:
            for entry in bucket:
                if entry[2] is not None:
                    entries.append(entry)
        return entries

    def digest_entries(self) -> Tuple[Tuple[float, int], ...]:
        """Live ``(time, seq)`` pairs in sorted order (canonical form)."""
        return tuple(sorted((e[0], e[1]) for e in self.live_entries()))


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "hello at t=1")
        sim.run(until=10.0)

    The clock starts at 0.0 and only moves forward.  Scheduling into the
    past raises :class:`SimulationError` (a zero delay is allowed and
    fires after all previously scheduled events at the same timestamp).

    Events start on the heap backend and migrate to a calendar queue
    once more than :data:`AUTO_CALENDAR_DEPTH` live entries are pending.
    Both backends dispatch the identical ``(time, seq)`` order, so results
    are bit-identical whichever one runs.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: still on the heap, so scheduling checks the migration depth.
        self._auto = True
        self._sched: Any = HeapScheduler()
        _SCHEDULER_BUILDS["heap"] += 1
        #: rebindable fast paths: hot callers (Link.send, attack
        #: emission chains) call these bound methods directly; backend
        #: migration rebinds them.
        self._push_transient = self._sched.push_transient
        self._push_handle = self._sched.push_handle
        self._events_executed = 0
        self._events_cancelled_skipped = 0
        self._migrations = 0
        self._running = False
        self._stopped = False
        #: Observers called as ``hook(sim, executed)`` after each
        #: :meth:`run` segment (the flight recorder's engine tap).
        #: Purely passive -- hooks must not schedule events -- and
        #: excluded from :meth:`state_digest`, so an attached hook
        #: cannot change any simulation result.  Costs one truthiness
        #: test per run() call when empty.
        self.post_run_hooks: List[Callable[["Simulator", int], None]] = []

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def scheduler(self) -> str:
        """Name of the active calendar backend (``heap``/``calendar``)."""
        return self._sched.name

    @property
    def events_executed(self) -> int:
        """Number of events dispatched so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def events_cancelled_skipped(self) -> int:
        """Cancelled calendar entries the dispatch loop has drained."""
        return self._events_cancelled_skipped

    @property
    def events_compacted(self) -> int:
        """Cancelled entries removed wholesale by calendar compaction."""
        return self._sched.events_compacted

    @property
    def pending_events(self) -> int:
        """Events still pending that can fire (cancelled ones excluded)."""
        return self._sched.live_count

    @property
    def pending_entries(self) -> int:
        """Raw calendar occupancy, including not-yet-reclaimed cancelled
        entries (backend-dependent; for capacity diagnostics only)."""
        return len(self._sched)

    @property
    def next_event_seq(self) -> int:
        """The seq the next scheduled event will receive (non-consuming).

        Two simulators whose clocks, calendars, and seq counters agree
        dispatch identically; warm-start checkpointing uses this to
        assert a forked engine resumes exactly where the original left
        off.
        """
        return self._sched.seq

    def state_digest(self) -> tuple:
        """A comparable fingerprint of the full scheduling state.

        Covers the clock, the seq counter position, and every *live*
        calendar entry's ``(time, seq)`` pair in sorted order.  Sorted
        -- not raw structure order -- so digests compare equal across
        scheduler backends (and across heaps built by different push
        sequences); cancelled entries are excluded because they never
        influence dispatch, whether a backend drains them lazily or
        compacts them away.  Two digests are equal iff the engines will
        dispatch identically.  The callables themselves are
        deliberately excluded -- bound methods never compare equal
        across deep copies.
        """
        return (
            self._now,
            self.next_event_seq,
            self._sched.digest_entries(),
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if self._auto and not self._running:
            self._maybe_migrate()
        return self._push_handle(self._now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute time *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        if self._auto and not self._running:
            self._maybe_migrate()
        return self._push_handle(time, fn, args)

    # ------------------------------------------------------------------
    # backend migration
    # ------------------------------------------------------------------
    def _maybe_migrate(self) -> None:
        """Swap heap -> calendar once live depth crosses the threshold.

        Only called outside the dispatch loop (scheduling between run
        segments, or on :meth:`run` entry), so no loop locals can go
        stale.  The migration is pure restructuring: every live entry
        keeps its ``(time, seq)`` coordinates and dispatch order is
        unchanged, so results stay bit-identical.
        """
        sched = self._sched
        if sched.live_count <= AUTO_CALENDAR_DEPTH:
            return
        calendar = CalendarQueue()
        calendar.adopt(sched)
        self._sched = calendar
        self._push_transient = calendar.push_transient
        self._push_handle = calendar.push_handle
        self._auto = False
        self._migrations += 1
        _SCHEDULER_BUILDS["calendar"] += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Dispatch events in timestamp order.

        Args:
            until: stop once the clock would pass this time.  Events at
                exactly ``until`` still fire.  ``None`` drains the calendar.
            max_events: safety valve; raise :class:`SimulationError` rather
                than dispatch more than this many events (an unbounded event
                cascade is always a bug in a finite scenario).  The budget is
                checked before dispatch, so exactly ``max_events`` events
                have executed when the error is raised.

        Returns:
            The number of events executed by this call.
        """
        global _TOTAL_DISPATCHED
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if self._auto:
            self._maybe_migrate()
        self._running = True
        self._stopped = False
        # Bind the loop state to locals; infinities stand in for "no
        # horizon" / "no budget" so the loop body stays branch-light.
        horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        executed = 0
        cancelled = 0
        peak_depth = 0
        # Observability adds per-event depth tracking behind a local
        # bool; with no registry active the extra cost is one branch on
        # a local per event.  The instrumented path dispatches the
        # exact same events in the same order -- it only adds
        # bookkeeping (peak live calendar depth, wall-clock time),
        # never randomness or scheduling.
        registry = _obs.active()
        if registry is not None:
            wall_started = perf_counter()
            sim_started = self._now
            compacted_before = self._sched.events_compacted
        sched = self._sched
        try:
            if sched.__class__ is HeapScheduler:
                executed, cancelled, peak_depth = self._run_heap(
                    horizon, budget, max_events, registry is not None)
            else:
                executed, cancelled, peak_depth = self._run_calendar(
                    horizon, budget, max_events, registry is not None)
        finally:
            self._running = False
            self._events_cancelled_skipped += cancelled
            _TOTAL_DISPATCHED += executed
        if until is not None and not self._stopped and self._now < until:
            # Advance the clock to the horizon even if the calendar drained
            # early, so observers see the full observation window.
            self._now = until
        if registry is not None:
            registry.counter("engine.runs").inc()
            registry.counter("engine.events_dispatched").inc(executed)
            registry.counter("engine.events_cancelled_skipped").inc(cancelled)
            registry.counter("engine.events_compacted").inc(
                self._sched.events_compacted - compacted_before)
            registry.counter("engine.wall_seconds").inc(
                perf_counter() - wall_started)
            registry.counter("engine.sim_seconds").inc(
                self._now - sim_started)
            registry.gauge("engine.peak_calendar_depth").track_max(peak_depth)
        hooks = self.post_run_hooks
        if hooks:
            for hook in hooks:
                hook(self, executed)
        return executed

    def _run_heap(self, horizon, budget, max_events, track):
        """Dispatch loop over the binary-heap backend."""
        sched = self._sched
        heap = sched.entries
        pop = heappop
        executed = 0
        cancelled = 0
        peak_depth = sched.live_count if track else 0
        while heap and not self._stopped:
            if track:
                depth = len(heap) - sched.cancelled_pending
                if depth > peak_depth:
                    peak_depth = depth
            entry = heap[0]
            time = entry[0]
            if time > horizon:
                break
            fn = entry[2]
            if fn is None:  # cancelled: drop without counting
                pop(heap)
                sched.cancelled_pending -= 1
                cancelled += 1
                continue
            # Check the budget *before* dispatch so the cascade stops
            # at exactly max_events executed; the offending event stays
            # in the calendar rather than firing past the budget.
            if executed >= budget:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "runaway event cascade?"
                )
            pop(heap)
            self._now = time
            args = entry[3]
            # Consume the entry before dispatch: a handle cancelled
            # after firing must stay a no-op (and stop pinning args).
            entry[2] = None
            entry[3] = ()
            fn(*args)
            executed += 1
            self._events_executed += 1
        return executed, cancelled, peak_depth

    def _run_calendar(self, horizon, budget, max_events, track):
        """Dispatch loop over the calendar-queue backend.

        Pops the backend's *front* heap directly -- the same tight
        shape as :meth:`_run_heap`, just over a front that stays small
        -- and calls :meth:`CalendarQueue.advance` to refill it from
        the bucket ring when it drains.  A callback may grow/shrink the
        calendar (``_resize``) or compact it mid-loop; both mutate the
        front in place (slice assignment), so the local binding stays
        valid and an emptied front is simply refilled on the next pass.
        """
        sched = self._sched
        front = sched.front
        advance = sched.advance
        free = sched.free
        pop = heappop
        executed = 0
        cancelled = 0
        peak_depth = sched.live_count if track else 0
        while not self._stopped:
            if not front:
                if not advance():
                    break
                continue
            if track:
                depth = sched.live_count
                if depth > peak_depth:
                    peak_depth = depth
            entry = front[0]
            time = entry[0]
            if time > horizon:
                break
            fn = entry[2]
            if fn is None:  # cancelled: drop without counting
                pop(front)
                sched.count -= 1
                sched.cancelled_pending -= 1
                cancelled += 1
                continue
            # Budget check before dispatch, as in _run_heap.
            if executed >= budget:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "runaway event cascade?"
                )
            pop(front)
            sched.count -= 1
            self._now = time
            args = entry[3]
            # Consume the entry before dispatch: a handle cancelled
            # after firing must stay a no-op (and stop pinning args).
            entry[2] = None
            entry[3] = ()
            fn(*args)
            executed += 1
            self._events_executed += 1
            if entry.__class__ is list and len(free) < _FREELIST_CAP:
                free.append(entry)
        return executed, cancelled, peak_depth

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event returns."""
        self._stopped = True
