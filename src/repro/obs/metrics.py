"""The metrics registry: counters and gauges.

Observability is strictly opt-in.  A process-wide *active registry* is
installed with :func:`enable` (the CLI enables a fresh one per
experiment under ``--store``; the obs benchmarks and tests enable their
own) and removed with :func:`disable`; instrumented code asks
:func:`active` for it.  When no registry is active the answer is
``None``, and every instrumentation site is written so that the disabled
path costs one ``is None`` check *per run or per batch*, plus at most a
branch on a local bool per event -- never a registry lookup per event
or per packet:

* the simulator calls :func:`active` once per
  :meth:`~repro.sim.engine.Simulator.run`; its dispatch loops
  (``_run_heap`` / ``_run_calendar``) then test a local ``track`` bool
  per event for peak-depth bookkeeping;
* links, queues, and TCP senders are not touched at all on the hot
  path -- they already keep cumulative counters, and the obs layer
  *snapshots* those counters after a run instead of observing every
  packet;
* the experiment runner runs each work unit under a fresh registry
  only when one is active, and absorbs it once per unit.

Determinism: instruments only record; they never draw randomness or
schedule events, so enabling metrics cannot change any simulation
result.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

__all__ = [
    "Counter", "Gauge", "MetricsRegistry", "active", "enable", "disable",
    "collecting",
]


class Counter:
    """A monotonically increasing value (events, bytes, seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (queue depth, cwnd, utilization)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def track_max(self, value: float) -> None:
        """Keep the largest value seen (peak-depth style gauges)."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


Instrument = Union[Counter, Gauge]


class MetricsRegistry:
    """A flat namespace of named instruments.

    Names are dotted paths (``engine.events_dispatched``,
    ``link.bottleneck.dropped_bytes``); the first lookup creates the
    instrument, later lookups return the same object.  Asking for an
    existing name as a different instrument kind raises ``TypeError`` --
    silent kind aliasing would corrupt snapshots.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = kind(name)
        elif type(instrument) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> dict:
        """A JSON-serializable view: name -> number."""
        return {name: self._instruments[name].value
                for name in sorted(self._instruments)}

    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold *other* in as if its updates had been made here, after ours.

        Counters add.  Gauges take *other*'s value (the latest publish
        wins), except the :data:`PEAK_GAUGES`, which keep the maximum.
        The runner absorbs each work unit's registry this way, so a
        worker's telemetry lands where an inline run would have put it.
        """
        for name, instrument in other._instruments.items():
            if type(instrument) is Counter:
                self.counter(name).inc(instrument.value)
            elif name in PEAK_GAUGES:
                self.gauge(name).track_max(instrument.value)
            else:
                self.gauge(name).set(instrument.value)


#: Gauges updated with :meth:`Gauge.track_max`: absorbing keeps the peak.
PEAK_GAUGES = frozenset({"engine.peak_calendar_depth"})


# ----------------------------------------------------------------------
# the process-wide active registry
# ----------------------------------------------------------------------
_ACTIVE: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when metrics are off.

    Hot paths branch on this once per run/batch; ``None`` means "do
    exactly what the uninstrumented code did".
    """
    return _ACTIVE


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the process-wide registry.

    With no argument a fresh empty registry is installed -- the CLI does
    this per experiment so each experiment row in the store snapshots
    one experiment, not the whole invocation.
    """
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def disable() -> Optional[MetricsRegistry]:
    """Remove the active registry; returns it (for a final snapshot)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


class collecting:
    """Context manager: metrics on inside, previous state restored after::

        with metrics.collecting() as registry:
            net.run(until=30.0)
        snapshot = registry.snapshot()
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self.registry
        return self.registry

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
