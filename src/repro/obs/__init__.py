"""Observability: metrics, the experiment store, and reporting.

* :mod:`repro.obs.metrics` -- the registry (counters and gauges) and
  the process-wide enable/disable switch;
* :mod:`repro.obs.instrument` -- publishers that snapshot component
  counters (links, queues, TCP) into the registry;
* :mod:`repro.obs.store` -- the sqlite experiment store (queryable
  runs/experiments/cells/metrics/series; ``repro obs query``/``trace``);
* :mod:`repro.obs.recorder` -- the in-sim flight recorder (bounded
  ring-buffer time-series capture, bit-identical when enabled);
* :mod:`repro.obs.report` -- the ``repro obs report`` renderer (reads
  stores only).

This ``__init__`` re-exports only :mod:`repro.obs.metrics` names: the
engine imports the package on its hot path, so the heavier submodules
(the sqlite store, the report renderer) load on demand.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    active,
    collecting,
    disable,
    enable,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "active",
    "collecting",
    "disable",
    "enable",
]
