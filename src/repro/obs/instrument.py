"""Publishers: turn component counters into registry metrics.

The simulator's components already keep cumulative statistics on their
hot paths (``Link.bytes_sent``, ``QueueDiscipline.drops``,
``TCPSender.timeouts``, ...).  The functions here *snapshot* those into
the active :class:`~repro.obs.metrics.MetricsRegistry` as gauges after a
run segment -- so enabling metrics adds zero per-packet work, and
publishing twice (warm-up then measurement window) simply refreshes the
gauges with the latest cumulative values.

Everything is duck-typed against the attribute names of
:class:`~repro.sim.link.Link` and :class:`~repro.sim.tcp.TCPSender`
rather than importing them, so this module stays import-light and the
engine can depend on :mod:`repro.obs.metrics` without cycles.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = ["publish_links", "publish_tcp", "publish_nodes",
           "publish_network"]


def publish_links(registry: MetricsRegistry,
                  links: Mapping[str, object]) -> None:
    """Publish per-link counters as ``link.<label>.*`` gauges.

    *links* maps a stable label (``"bottleneck"``) to a
    :class:`~repro.sim.link.Link`; the link's own
    ``metrics_snapshot()`` provides the values (accepted/dropped
    bytes+packets, queue occupancy, discipline accept/drop/early-drop
    counts, RED's averaged queue, CHOKe match-drops).
    """
    for label, link in links.items():
        base = f"link.{label}."
        for key, value in link.metrics_snapshot().items():
            registry.gauge(base + key).set(value)


def publish_tcp(registry: MetricsRegistry, senders: Iterable) -> None:
    """Publish aggregate TCP-sender telemetry as ``tcp.*`` gauges.

    These are exactly the recovery quantities behind the paper's Eq. 1:
    fast-retransmit entries and timeouts drive the converged window
    ``W_c``, and the cwnd spread shows how tightly the pulses hold the
    flows there.
    """
    senders = list(senders)
    totals = {
        "segments_sent": 0.0, "retransmissions": 0.0,
        "fast_retransmits": 0.0, "timeouts": 0.0,
        "acked_segments": 0.0, "goodput_bytes": 0.0,
    }
    cwnds = []
    for sender in senders:
        snap = sender.metrics_snapshot()
        for key in totals:
            totals[key] += snap[key]
        cwnds.append(snap["cwnd"])
    registry.gauge("tcp.flows").set(float(len(senders)))
    for key, value in totals.items():
        registry.gauge("tcp." + key).set(value)
    if cwnds:
        registry.gauge("tcp.cwnd_min").set(min(cwnds))
        registry.gauge("tcp.cwnd_max").set(max(cwnds))
        registry.gauge("tcp.cwnd_mean").set(sum(cwnds) / len(cwnds))


def publish_nodes(registry: MetricsRegistry, nodes: Iterable) -> None:
    """Publish node-level drop telemetry as ``node.*`` gauges.

    ``undeliverable`` drops (packets that arrived with no route or no
    agent) used to be a silent per-node counter; here they surface in
    ``repro obs report`` as an aggregate plus one per-node gauge for
    each node that actually dropped something (per-node gauges for
    thousands of clean hosts would drown the report).
    """
    total = 0.0
    for node in nodes:
        dropped = float(node.undeliverable)
        total += dropped
        if dropped:
            registry.gauge(
                f"node.{node.name}.undeliverable_packets").set(dropped)
    registry.gauge("node.undeliverable_packets").set(total)


def publish_network(registry: MetricsRegistry, *,
                    links: Mapping[str, object],
                    senders: Iterable,
                    nodes: Iterable = ()) -> None:
    """Publish one network's link, TCP, and node telemetry in one call.

    The dumbbell and test-bed networks call this from ``run()`` whenever
    a registry is active -- once per run segment, never per event.
    """
    publish_links(registry, links)
    publish_tcp(registry, senders)
    publish_nodes(registry, nodes)
