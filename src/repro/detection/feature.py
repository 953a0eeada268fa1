"""Feature-based flow conformance filtering.

Stands in for the feature-based defenses the paper cites ([3] hop-count
filtering, [11] statistical header profiling, [17] route-based
filtering): mechanisms that flag traffic whose *per-packet features*
deviate from legitimate flows.  The paper's point is that a PDoS
attacker sends few enough packets to craft each one with fully
consistent features, so such filters score the attack flow as clean.

This module profiles flows from a link's arrival rows and scores each
on a behavioural feature that survives header spoofing:
**one-wayness** -- legitimate TCP has a reverse ACK stream; a pure
datagram flood does not.

A flow is flagged when it is one-way *and* its average rate is
non-negligible -- modelling a conservative filter tuned against false
positives.  A PDoS attacker evades it by keeping the average rate under
the rate floor (the same γ knob as Section 3).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Tuple

from repro.util.validate import check_positive

__all__ = ["FlowProfile", "ConformanceDetector"]


@dataclasses.dataclass
class FlowProfile:
    """Accumulated per-flow observations.

    Attributes:
        forward_packets / forward_bytes: data-direction arrivals.
        reverse_packets: return-link arrivals.
        first_time / last_time: observation span.
    """

    forward_packets: int = 0
    forward_bytes: float = 0.0
    reverse_packets: int = 0
    first_time: float = float("inf")
    last_time: float = 0.0

    def mean_rate_bps(self) -> float:
        """Average forward rate over the flow's observed lifetime."""
        span = self.last_time - self.first_time
        if span <= 0:
            return 0.0
        return self.forward_bytes * 8.0 / span

    def one_way(self) -> bool:
        """True when the flow shows no reverse (ACK) traffic at all."""
        return self.reverse_packets == 0 and self.forward_packets > 0


class ConformanceDetector:
    """Flags flows that look like one-way floods.

    Feed :meth:`ingest` the arrival rows (:data:`repro.sim.trace.
    ROW_COLUMNS`) of the protected (data-direction) link and of its
    return link, then call :meth:`flagged_flows`.
    """

    def __init__(self, *, min_rate_bps: float = 1_000_000.0) -> None:
        self.min_rate_bps = check_positive("min_rate_bps", min_rate_bps)
        self.profiles: Dict[int, FlowProfile] = {}

    # ------------------------------------------------------------------
    def _profile(self, flow_id: int) -> FlowProfile:
        profile = self.profiles.get(flow_id)
        if profile is None:
            profile = self.profiles[flow_id] = FlowProfile()
        return profile

    def ingest(self, forward_rows: Iterable[tuple],
               reverse_rows: Iterable[tuple]) -> None:
        """Profile flows from a run's arrival rows.

        Every forward arrival counts, dropped or not, and its bytes
        accumulate in row order (bit-identical to adding each arrival
        as it happens).  Every return-link arrival counts as reverse
        traffic for its flow: on a dumbbell the return link carries
        only ACKs.
        """
        for now, _, _, size, flow_id, _ in forward_rows:
            profile = self._profile(flow_id)
            profile.forward_packets += 1
            profile.forward_bytes += abs(size)
            profile.first_time = min(profile.first_time, now)
            profile.last_time = max(profile.last_time, now)
        for row in reverse_rows:
            self._profile(row[4]).reverse_packets += 1

    # ------------------------------------------------------------------
    def flagged_flows(self) -> List[Tuple[int, FlowProfile]]:
        """One-way flows whose average rate exceeds the floor, worst first.

        Burstiness is *not* required: a smooth flood is just as one-way.
        The rate floor is what a stealthy attacker exploits -- a
        sufficiently risk-averse PDoS tuning pushes the average rate
        under it (see the detection-evasion experiment).
        """
        flagged = [
            (flow_id, profile)
            for flow_id, profile in self.profiles.items()
            if profile.one_way()
            and profile.mean_rate_bps() >= self.min_rate_bps
        ]
        flagged.sort(key=lambda item: item[1].mean_rate_bps(), reverse=True)
        return flagged

    def is_flagged(self, flow_id: int) -> bool:
        """Whether a specific flow is among the flagged set."""
        return any(fid == flow_id for fid, _ in self.flagged_flows())
