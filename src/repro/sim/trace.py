"""A link's arrival rows and the binned offered-load series.

Every observation of a link comes from one source: its
``arrival_tap`` (see :class:`~repro.sim.link.Link`), which collects one
number-only ``(time, queue_bytes, queue_packets, signed_size, flow_id,
accepted)`` row per arrival (:data:`ROW_COLUMNS`), the size negated
for attack packets.  Observers share one row list per link
(:func:`arrival_rows`) and read it after the run:
:class:`RateMonitor` bins the rows into the flight recorder's
``link.*.rate`` series (total and attack bytes per bin) and a cell's
``arrival_bytes``, the offered load that Fig. 3 and the detectors read
(total bytes only); the recorder takes its drop records from the rows
whose ``accepted`` is false, and the conformance detector its per-flow
profiles from the flow ids.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.validate import check_positive

__all__ = ["ROW_COLUMNS", "RateMonitor", "arrival_rows"]

#: The columns of one arrival row.
ROW_COLUMNS = ("time", "queue_bytes", "queue_packets", "signed_size",
               "flow_id", "accepted")


def arrival_rows(link) -> list:
    """The list *link*'s arrival tap appends to, attaching one if unset.

    Every observer of a link reads this one list, so a link tapped for
    several observers still builds one row per arrival.
    """
    tap = link.arrival_tap
    if tap is not None:
        return tap.__self__
    rows: list = []
    link.arrival_tap = rows.append
    return rows


class RateMonitor:
    """Bins arrival bytes into fixed-width time buckets.

    Every arrival counts, dropped or not: the paper's "incoming
    traffic" is the offered load at the router.

    Args:
        bin_width: bucket width in seconds (the paper uses sub-second bins
            to resolve pulses of 50-150 ms).
        horizon: observation window in seconds; arrivals past it are
            ignored so the arrays have a fixed, known shape.
    """

    def __init__(self, bin_width: float, horizon: float) -> None:
        self.bin_width = check_positive("bin_width", bin_width)
        self.horizon = check_positive("horizon", horizon)
        self.n_bins = int(math.ceil(horizon / bin_width))
        self._total = np.zeros(self.n_bins)
        self._attack = np.zeros(self.n_bins)

    def ingest(self, rows) -> None:
        """Add arrival rows (:data:`ROW_COLUMNS`) to the bins.

        Only the time and the signed size are read, the size negative
        for attack packets.  ``np.add.at`` accumulates in row order, so
        the sums equal adding each arrival in sequence, bit for bit.
        """
        rows = np.asarray(rows, dtype=np.float64).reshape(
            -1, len(ROW_COLUMNS))
        signed = rows[:, 3]
        sizes = np.abs(signed)
        index = (rows[:, 0] / self.bin_width).astype(np.int64)
        ok = (index >= 0) & (index < self.n_bins)
        np.add.at(self._total, index[ok], sizes[ok])
        attacked = ok & (signed < 0.0)
        np.add.at(self._attack, index[attacked], sizes[attacked])

    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Bin centre timestamps, seconds."""
        return (np.arange(self.n_bins) + 0.5) * self.bin_width

    @property
    def bytes_per_bin(self) -> np.ndarray:
        """Total bytes (attack + legitimate) per bin."""
        return self._total.copy()

    def as_columns(self) -> np.ndarray:
        """``(time, total_bytes, attack_bytes)`` rows (flight-recorder
        harvest format; one row per bin)."""
        return np.column_stack([self.times, self._total, self._attack])
