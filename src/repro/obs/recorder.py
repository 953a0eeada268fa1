"""The in-sim flight recorder: bounded time-series capture per cell.

The metrics registry (:mod:`repro.obs.metrics`) answers "what were the
totals"; the flight recorder answers "what happened over time" -- the
binned arrival rate at the bottleneck, every loss event, the queue
depth seen by each arrival, and each TCP sender's cwnd/recovery
trajectory.  Those are exactly the paper's forensics: cwnd collapse
under pulses (Fig. 1), quasi-global synchronization of loss events
(Fig. 3).

Discipline (the same dual-dispatch contract as the registry):

* **Passive only.**  Taps ride a nullable ``arrival_tap`` pointer on
  :class:`~repro.sim.link.Link` and a nullable ``telemetry`` pointer
  on :class:`~repro.sim.tcp.TCPSender`; nothing is ever *scheduled*,
  so the engine dispatches the identical ``(time, seq)`` event stream
  and every ``state_digest()`` is bit-identical with the recorder on,
  off, or absent.
* **One pointer check when disabled.**  An untapped link has an
  ``arrival_tap`` of ``None`` (one ``is None`` per arrival) and an
  untapped sender a ``telemetry`` of ``None`` (one ``is None`` per
  cwnd change / recovery event).
* **C-speed capture when enabled.**  A Python callback per arrival --
  even an empty one -- costs more than the recorder's whole overhead
  budget (the bench gates attached capture at 5%), so the taps are
  ``list.append`` itself: ``Link.send`` appends one ``(time,
  queue_bytes, queue_packets, signed_size, flow_id, accepted)`` tuple
  per arrival (size negated for attack packets; see
  :mod:`repro.sim.trace`) and the sender one ``(time, flow_id,
  cwnd)`` tuple per cwnd change, with no Python frame anywhere.  The
  rows hold numbers only, never object references: CPython's cyclic
  collector untracks number-only tuples after one survived
  collection, where a row holding a packet would keep both on every
  later GC pass (measured at 2-3x the entire capture cost).  Binning
  and fan-out into series are deferred to
  :meth:`FlightRecorder.harvest` -- the rate series goes through
  :meth:`~repro.sim.trace.RateMonitor.ingest`, which accumulates in
  arrival order, bit-identical to adding each arrival as it happens,
  and the drop records are the rows whose ``accepted`` is false.  A
  link's row list is shared with any other observer of that link
  (:func:`~repro.sim.trace.arrival_rows`).
* **Bounded memory.**  Sparse event series (recovery episodes, engine
  progress) go through :class:`SeriesRecorder`, a fixed-capacity
  ring.  The per-arrival and per-ACK capture lists are capped to the
  same *capacity* at harvest but grow unchecked in-run (roughly 100
  bytes per arrival; a few tens of MB for the longest cells in this
  repo) -- any per-append bound check would reintroduce the Python
  frame the taps exist to avoid.

Series are harvested into :class:`Series` values -- plain
``(name, columns, float64 array)`` records that pickle efficiently, so
worker processes can ship them back to the parent for storage in the
sqlite experiment store (:mod:`repro.obs.store`).
"""

from __future__ import annotations

import dataclasses
import gc
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.trace import (ROW_COLUMNS, CwndTap, RateMonitor, arrival_rows,
                             cwnd_rows)

__all__ = ["Series", "SeriesRecorder", "FlightRecorder",
           "DEFAULT_CAPACITY", "DEFAULT_BIN_WIDTH", "contested_links"]

#: ring capacity per event-driven series (samples, not bytes).
DEFAULT_CAPACITY = 65_536

#: bin width for the harvested arrival-rate series, seconds (fine
#: enough to resolve the paper's 50-150 ms pulses).
DEFAULT_BIN_WIDTH = 0.1

#: recovery-kind codes in the ``tcp.recovery`` series.
RECOVERY_KINDS = {"fr": 0.0, "to": 1.0}

#: gen-0 allocation threshold while a recorder is attached.  Capture
#: allocates one small tuple per arrival / cwnd change; those rows
#: survive, so they drag the collector in at the default threshold
#: (700) and every pass walks the young rows before untracking them
#: -- measured at roughly a third of total capture cost.  Sized so a
#: typical cell's whole capture (tens of thousands of surviving rows)
#: accumulates without a single mid-run collection; the deferred pass
#: runs once ``detach`` (which ``harvest`` calls) restores the saved
#: threshold.  GC timing never changes simulation results.
_GC_GEN0_THRESHOLD = 1_000_000


@dataclasses.dataclass(frozen=True)
class Series:
    """One named, column-labelled time series.

    ``data`` is a ``(n_rows, len(columns))`` float64 array; the first
    column is simulation time by convention.  ``evicted`` counts rows a
    full ring dropped (0 for binned/harvested series).
    """

    name: str
    columns: Tuple[str, ...]
    data: np.ndarray
    evicted: int = 0

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            data = data.reshape(-1, len(self.columns))
        object.__setattr__(self, "data", data)

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    def column(self, name: str) -> np.ndarray:
        """One column by label."""
        return self.data[:, self.columns.index(name)]


class SeriesRecorder:
    """A fixed-capacity ring buffer of numeric rows.

    Appending past *capacity* evicts the oldest row (and counts it in
    :attr:`evicted`): in-sim capture must stay bounded no matter how
    long a cell runs.
    """

    __slots__ = ("name", "columns", "capacity", "evicted", "_rows")

    def __init__(self, name: str, columns: Sequence[str],
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.columns = tuple(columns)
        self.capacity = capacity
        self.evicted = 0
        self._rows: deque = deque(maxlen=capacity)

    def append(self, *row: float) -> None:
        rows = self._rows
        if len(rows) == self.capacity:
            self.evicted += 1
        rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    def as_series(self) -> Series:
        data = (np.array(self._rows, dtype=np.float64) if self._rows
                else np.empty((0, len(self.columns))))
        return Series(self.name, self.columns, data, evicted=self.evicted)


def contested_links(net) -> List[Tuple[str, object]]:
    """The network's contested links as ``(label, link)`` pairs.

    The bottleneck and its return link, under the label the network
    declares for them (``bottleneck`` or the test-bed's ``pipe``, plus
    ``_reverse``) -- on the dumbbell and test-bed the same labels
    :func:`repro.obs.instrument.publish_network` publishes them under,
    so store queries and metric names agree.
    """
    label = net.bottleneck_label
    return [(label, net.bottleneck),
            (f"{label}_reverse", net.reverse_bottleneck)]


class _SenderTap(CwndTap):
    """The ``TCPSender.telemetry`` listener: cwnd + recovery capture.

    cwnd changes are the second-hottest capture path (one per ACK that
    grows the window), so they go to the shared row list of
    :class:`~repro.sim.trace.CwndTap`; recovery entries are rare and
    use a plain ring.
    """

    __slots__ = ("recovery",)

    def __init__(self, recovery: SeriesRecorder,
                 rows: Optional[list] = None) -> None:
        super().__init__(rows)
        self.recovery = recovery

    def on_recovery(self, flow_id: int, now: float, kind: str, cwnd: float,
                    ssthresh: float, rto: float) -> None:
        # cwnd/ssthresh/rto are sampled at recovery *entry* -- before
        # the multiplicative decrease / RTO backoff of the episode.
        self.recovery.append(now, flow_id, RECOVERY_KINDS[kind], cwnd,
                             ssthresh, rto)


class FlightRecorder:
    """Captures one cell's (or scenario's) in-sim dynamics.

    Usage::

        recorder = FlightRecorder()
        recorder.attach(net, horizon=warmup + window)
        net.run(until=warmup + window)
        series = recorder.harvest()      # tuple of Series, by name

    ``attach`` may only be called on a network that will not be
    snapshot-forked afterwards (the runner attaches post-fork), and at
    most once per recorder.
    """

    def __init__(self, *, bin_width: float = DEFAULT_BIN_WIDTH,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.bin_width = bin_width
        self.capacity = capacity
        self._rings: Dict[str, SeriesRecorder] = {}
        #: (label, arrival rows) per tapped link; fanned out into the
        #: rate/drop/queue series at harvest.
        self._taps: List[Tuple[str, list]] = []
        self._sender_tap: Optional[_SenderTap] = None
        self._horizon = 0.0
        self._attached = False
        self._saved_gc_threshold: Optional[Tuple[int, int, int]] = None

    # ------------------------------------------------------------------
    def ring(self, name: str, columns: Sequence[str]) -> SeriesRecorder:
        """Get or create the named ring-buffer series."""
        ring = self._rings.get(name)
        if ring is None:
            ring = self._rings[name] = SeriesRecorder(
                name, columns, capacity=self.capacity)
        return ring

    # ------------------------------------------------------------------
    def attach(self, net, *, horizon: float) -> None:
        """Tap a built network's contested links, senders, and engine.

        Purely passive: sets each contested link's ``arrival_tap``
        pointer (to a row list's C-level append -- see the module
        docstring; a link already tapped keeps its list, which the
        recorder then shares), each sender's ``telemetry`` pointer
        (sharing the senders' cwnd row list the same way), and
        registers an engine post-run hook.  No event is scheduled,
        so the simulation's state digests are unchanged.  Also raises
        the gen-0 GC threshold for the capture's duration (restored by
        :meth:`detach`; see ``_GC_GEN0_THRESHOLD``).
        """
        if self._attached:
            raise RuntimeError("FlightRecorder.attach() may run only once")
        self._attached = True
        self._horizon = horizon

        for label, link in contested_links(net):
            self._taps.append((label, arrival_rows(link)))

        recovery = self.ring(
            "tcp.recovery",
            ("time", "flow_id", "kind", "cwnd", "ssthresh", "rto"))
        rows = cwnd_rows(net.senders)
        tap = self._sender_tap = _SenderTap(recovery, rows)
        for sender in net.senders:
            sender.telemetry = tap

        progress = self.ring("engine.progress", ("time", "events_executed"))

        def post_run(sim, executed, _append=progress.append):
            _append(sim.now, sim.events_executed)

        net.sim.post_run_hooks.append(post_run)

        # Start the run with empty young generations, then collect
        # rarely while the capture lists grow (see _GC_GEN0_THRESHOLD).
        self._saved_gc_threshold = gc.get_threshold()
        gc.collect()
        gc.set_threshold(_GC_GEN0_THRESHOLD,
                         *self._saved_gc_threshold[1:])

    def detach(self) -> None:
        """Restore the GC threshold :meth:`attach` raised.

        Idempotent.  :meth:`harvest` calls it; so must any path that
        abandons a capture before harvest (a run that raised), or the
        raised threshold outlives the cell.
        """
        if self._saved_gc_threshold is not None:
            gc.set_threshold(*self._saved_gc_threshold)
            self._saved_gc_threshold = None

    # ------------------------------------------------------------------
    def _ring_cap(self, name: str, columns: Tuple[str, ...],
                  rows: np.ndarray, evicted: int = 0) -> Series:
        """A Series keeping the last *capacity* rows (ring semantics)."""
        extra = max(0, len(rows) - self.capacity)
        return Series(name, columns, rows[extra:], evicted=evicted + extra)

    def harvest(self) -> Tuple[Series, ...]:
        """All captured series, sorted by name (deterministic order).

        The raw per-arrival link rows fan out here into three series
        per link: the binned arrival rate (via
        :meth:`~repro.sim.trace.RateMonitor.ingest`), the
        ``(time, flow_id, is_attack)`` records of the dropped
        arrivals, and the ring-capped queue-depth-at-arrival samples.
        """
        self.detach()

        series: Dict[str, Series] = {}
        for label, arrivals in self._taps:
            rows = np.array(arrivals, dtype=np.float64).reshape(
                -1, len(ROW_COLUMNS))
            name = f"link.{label}.rate"
            rate = RateMonitor(self.bin_width, self._horizon)
            rate.ingest(rows)
            series[name] = Series(
                name, ("time", "total_bytes", "attack_bytes"),
                rate.as_columns())
            name = f"link.{label}.drops"
            dropped = rows[rows[:, 5] == 0.0]
            series[name] = self._ring_cap(
                name, ("time", "flow_id", "is_attack"),
                np.column_stack([dropped[:, 0], dropped[:, 4],
                                 dropped[:, 3] < 0.0]))
            name = f"link.{label}.queue"
            series[name] = self._ring_cap(
                name, ("time", "queue_bytes", "queue_packets"),
                rows[:, :3])
        tap = self._sender_tap
        if tap is not None:
            rows = tap.cwnd_rows
            series["tcp.cwnd"] = self._ring_cap(
                "tcp.cwnd", ("time", "flow_id", "cwnd"),
                np.array(rows, dtype=np.float64) if rows
                else np.empty((0, 3)))
        for name, ring in self._rings.items():
            series[name] = ring.as_series()
        return tuple(series[name] for name in sorted(series))
