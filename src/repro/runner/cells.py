"""The runner's unit of work: one picklable, deterministic measurement.

A :class:`Cell` fully describes one goodput measurement -- the platform
(as a serializable :class:`PlatformSpec` rather than a live network),
the measurement window, and the optional attack (a single
:class:`~repro.core.attack.PulseTrain` or a distributed
:class:`DeploymentSpec`).  :func:`execute_cell` is the pure executor:
it rebuilds the scenario from scratch, seeds it from the spec, and
measures -- so the same cell yields bit-identical results whether it
runs inline, in a worker process, or is replayed from the cache.

Warm-start grouping: every cell's execution begins with an attack-free
warm-up that depends only on the platform and the warm-up length --
:func:`warmup_key` captures exactly that identity.
:func:`execute_cell_group` runs a batch of same-key cells by simulating
the shared prefix once, freezing the network with
:class:`~repro.sim.checkpoint.NetworkSnapshot`, and measuring every
cell on a bit-identical fork.  Observers (a flight recorder, the
conformance detector, the bottleneck's arrival tap) attach to each
cell's network after the fork, so the prefix is the same for observed
and unobserved cells.
``execute_cell(cell)`` and a grouped run of the same cell produce
byte-for-byte equal :class:`CellResult`\\ s.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.attack import PulseTrain
from repro.core.throughput import VictimPopulation
from repro.obs.metrics import MetricsRegistry
from repro.sim.convergence import ConvergenceConfig, GoodputConvergenceMonitor
from repro.sim.tcp import TCPConfig
from repro.sim.topology import (
    QUEUE_FACTORIES,
    DumbbellConfig,
    ParkingLotConfig,
    build_dumbbell,
    build_parking_lot,
    check_queue,
)
from repro.sim.trace import ROW_COLUMNS, RateMonitor, arrival_rows
from repro.testbed.dummynet import PIPE_QUEUES, TestbedConfig, build_testbed
from repro.util.errors import ValidationError
from repro.util.validate import check_int, check_non_negative, check_positive

__all__ = ["ARRIVAL_BIN_WIDTH", "PlatformSpec", "DeploymentSpec", "Cell",
           "CellResult", "GroupResult", "execute_cell", "execute_cell_group",
           "goodput_rate", "measured_seconds", "warmup_key"]

#: Bin width of :attr:`CellResult.arrival_bytes`, seconds: fine enough
#: to resolve the paper's 50-150 ms pulses.
ARRIVAL_BIN_WIDTH = 0.02


def _tcp_payload(tcp: Optional[TCPConfig]) -> Optional[dict]:
    if tcp is None:
        return None
    payload = dataclasses.asdict(tcp)
    payload["variant"] = tcp.variant.value
    return payload


def _train_payload(train: Optional[PulseTrain]) -> Optional[dict]:
    if train is None:
        return None
    return {
        "extents": list(train.extents),
        "rates_bps": list(train.rates_bps),
        "spaces": list(train.spaces),
    }


#: Platform kind -> scenario builder.
_BUILDERS = {
    "dumbbell": build_dumbbell,
    "parking_lot": build_parking_lot,
    "testbed": build_testbed,
}

#: Platform kind -> the queue names its bottleneck accepts.
_QUEUES = {
    "dumbbell": QUEUE_FACTORIES,
    "parking_lot": QUEUE_FACTORIES,
    "testbed": PIPE_QUEUES,
}

#: ParkingLotConfig fields a spec's ``extra`` may set: every field but
#: the ones :meth:`PlatformSpec.to_config` fills from the spec itself.
_EXTRA_FIELDS = frozenset(
    field.name for field in dataclasses.fields(ParkingLotConfig)
) - {"long_flows", "queue", "tcp", "seed"}


@dataclasses.dataclass(frozen=True)
class PlatformSpec:
    """A serializable description of one measurement environment.

    The one platform type: cells carry it, the builders consume
    :meth:`to_config`, and the analytics read the contested rate, the
    victims' minimum RTO and their population from that same config
    (:attr:`bottleneck_bps`, :attr:`min_rto`, :meth:`victim_population`).
    :func:`~repro.experiments.base.DumbbellPlatform` and its siblings
    make specs with the paper's stacks.

    Attributes:
        kind: ``"dumbbell"`` (the ns-2-style topology of Figs. 6-10),
            ``"testbed"`` (the Dummynet emulation of Fig. 12), or
            ``"parking_lot"`` (the N-bottleneck chain of the
            multi-bottleneck experiment).
        n_flows: victim TCP flow count (the *long* flows on the
            parking lot).
        seed: the scenario seed (flow-start jitter, RED coin flips).
        queue: the bottleneck discipline's name, the one knob for it on
            every kind: one of :data:`repro.sim.topology.QUEUE_FACTORIES`
            (``"red"``, ``"droptail"``, ``"choke"``) on the dumbbell and
            the parking lot, one of
            :data:`repro.testbed.dummynet.PIPE_QUEUES` (``"red"``,
            ``"droptail"``) on the test-bed.  Any other name raises
            :class:`ValidationError` when the spec is made.
        tcp: the victim stack; ``None`` selects the platform's stock
            configuration.
        extra: additional :class:`~repro.sim.topology.ParkingLotConfig`
            fields as a tuple of ``(name, value)`` pairs (parking lot
            only) -- e.g. ``(("n_segments", 3), ("attack_segments",
            (0, 1)))``.  A tuple rather than a dict keeps the spec
            hashable; ``None`` (the default) keeps dumbbell/testbed
            specs byte-identical to their historical cache identity.
    """

    kind: str
    n_flows: int
    seed: int
    queue: str = "red"
    tcp: Optional[TCPConfig] = None
    extra: Optional[Tuple[Tuple[str, object], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _BUILDERS:
            raise ValidationError(
                f"kind must be 'dumbbell', 'testbed', or 'parking_lot', "
                f"got {self.kind!r}"
            )
        check_queue(self.queue, _QUEUES[self.kind])
        if self.extra is not None:
            if self.kind != "parking_lot":
                raise ValidationError(
                    "extra platform fields apply to the parking lot only"
                )
            for name, _value in self.extra:
                if name not in _EXTRA_FIELDS:
                    raise ValidationError(
                        f"extra field {name!r} is not a settable "
                        f"ParkingLotConfig field; expected one of "
                        f"{sorted(_EXTRA_FIELDS)}"
                    )
        # A float or None seed would key the cache while the builders
        # draw different jitter per process.
        check_int("n_flows", self.n_flows, 1)
        check_int("seed", self.seed)

    # ------------------------------------------------------------------
    def _extra_kwargs(self) -> dict:
        """``extra`` as keyword arguments (sequence fields re-tupled)."""
        kwargs = dict(self.extra or ())
        for key in ("attack_segments", "segment_rates_bps"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return kwargs

    def to_config(self):
        """The platform's config dataclass (frozen, picklable)."""
        if self.kind == "dumbbell":
            return DumbbellConfig(
                n_flows=self.n_flows,
                queue=self.queue,
                tcp=self.tcp if self.tcp is not None else TCPConfig(),
                seed=self.seed,
            )
        if self.kind == "parking_lot":
            return ParkingLotConfig(
                long_flows=self.n_flows,
                queue=self.queue,
                tcp=self.tcp if self.tcp is not None else TCPConfig(),
                seed=self.seed,
                **self._extra_kwargs(),
            )
        config = TestbedConfig(
            n_flows=self.n_flows, queue=self.queue, seed=self.seed,
        )
        if self.tcp is not None:
            config = dataclasses.replace(config, tcp=self.tcp)
        return config

    def build(self):
        """A freshly built, unstarted network for this spec."""
        return _BUILDERS[self.kind](self.to_config())

    @property
    def bottleneck_bps(self) -> float:
        """The contested link's rate, γ's normalizer (Eq. 4)."""
        return self.to_config().contested_rate_bps()

    @property
    def min_rto(self) -> float:
        """The victims' minimum RTO, seconds."""
        return self.to_config().tcp.min_rto

    def victim_population(self) -> VictimPopulation:
        """The victim flows as C_ψ (Eq. 11) sees them: RTTs and stack."""
        config = self.to_config()
        return VictimPopulation(
            rtts=config.flow_rtts(),
            aimd=config.tcp.aimd,
            delayed_ack=config.tcp.delayed_ack,
        )

    def describe(self) -> dict:
        """A JSON-serializable identity (feeds the cache key)."""
        payload = {
            "kind": self.kind,
            "n_flows": self.n_flows,
            "seed": self.seed,
            "tcp": _tcp_payload(self.tcp),
        }
        if self.kind == "dumbbell":
            payload["queue"] = self.queue
        elif self.kind == "parking_lot":
            payload["queue"] = self.queue
            payload["extra"] = [
                [name, list(value) if isinstance(value, tuple) else value]
                for name, value in (self.extra or ())
            ]
        else:
            # The test-bed's historical key: its cells keep their cache
            # identity.
            payload["use_red"] = self.queue == "red"
        return payload


@dataclasses.dataclass(frozen=True)
class DeploymentSpec:
    """A distributed attack as (train, start-offset) pairs per source.

    Duck-compatible with
    :class:`~repro.core.distributed.DistributedAttack` where launching
    is concerned (``trains`` / ``offsets``), but picklable-by-value and
    serializable for cache keys.
    """

    trains: Tuple[PulseTrain, ...]
    offsets: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.trains) != len(self.offsets):
            raise ValidationError(
                f"got {len(self.trains)} trains but {len(self.offsets)} offsets"
            )
        if not self.trains:
            raise ValidationError("a deployment needs at least one source")

    @classmethod
    def from_attack(cls, attack) -> "DeploymentSpec":
        """Adapt a :class:`~repro.core.distributed.DistributedAttack`."""
        return cls(
            trains=tuple(attack.trains),
            offsets=tuple(float(offset) for offset in attack.offsets),
        )

    def describe(self) -> list:
        return [
            {"train": _train_payload(train), "offset": offset}
            for train, offset in zip(self.trains, self.offsets)
        ]


@dataclasses.dataclass(frozen=True)
class Cell:
    """One independent goodput measurement.

    Attributes:
        platform: the environment to rebuild.
        warmup: seconds of attack-free warm-up before the window opens.
        window: measurement window length, seconds.
        train: single-source pulse train starting at ``warmup`` (or
            ``None`` for the no-attack baseline).
        deployment: multi-source attack (mutually exclusive with
            ``train``; dumbbell platforms only).
        rate_floor_bps: when set, a per-flow conformance detector with
            this rate floor observes the bottleneck from ``t = warmup``
            and the result reports how many attack sources it flagged
            (dumbbell only; the detector is passive, so goodput is
            unaffected).
        early_exit: when set, a convergence monitor may end the window
            early once the goodput rate estimate stabilizes (the result
            then carries ``converged_at``).  Early-exit cells serialize
            the config into their identity, so they can never share a
            cache entry with an exact full-window cell.
        backend: ``"packet"`` (the exact event-driven engine, default)
            or ``"fluid"`` (the ODE model of :mod:`repro.sim.fluid` --
            milliseconds per cell, γ-landscape accuracy only).  The
            backend is part of :meth:`describe`, so fluid and packet
            results can never collide in the cache.
        fluid_max_step: integration step-size cap for fluid cells, or
            ``None`` for the backend default
            (:data:`repro.sim.fluid.DEFAULT_MAX_STEP`).  Coarser steps
            trade per-cell fidelity for speed -- the planner pre-pass
            uses one because it only needs the γ landscape's shape.
            Part of the cell identity, so results integrated at
            different resolutions never share a cache entry.
        arrival_series: when set, the result carries the bottleneck's
            offered load over the window, binned
            (:attr:`CellResult.arrival_bytes`; packet cells only).  The
            tap is passive, so goodput is unaffected.
    """

    platform: PlatformSpec
    warmup: float
    window: float
    train: Optional[PulseTrain] = None
    deployment: Optional[DeploymentSpec] = None
    rate_floor_bps: Optional[float] = None
    early_exit: Optional[ConvergenceConfig] = None
    backend: str = "packet"
    fluid_max_step: Optional[float] = None
    arrival_series: bool = False

    def __post_init__(self) -> None:
        check_non_negative("warmup", self.warmup)
        check_positive("window", self.window)
        if self.train is not None and self.deployment is not None:
            raise ValidationError(
                "a cell takes a single train or a deployment, not both"
            )
        if self.platform.kind != "dumbbell" and (
            self.deployment is not None or self.rate_floor_bps is not None
        ):
            raise ValidationError(
                "deployments and conformance detection require the "
                "dumbbell platform"
            )
        if self.rate_floor_bps is not None:
            check_positive("rate_floor_bps", self.rate_floor_bps)
        if self.backend not in ("packet", "fluid"):
            raise ValidationError(
                f"backend must be 'packet' or 'fluid', got {self.backend!r}"
            )
        if self.backend == "fluid" and self.platform.kind == "parking_lot":
            raise ValidationError(
                "the fluid model covers single-bottleneck platforms; "
                "parking-lot cells run on the packet backend"
            )
        if self.backend == "fluid" and self.rate_floor_bps is not None:
            raise ValidationError(
                "conformance detection is packet-level; fluid cells "
                "cannot carry a rate floor"
            )
        if self.backend == "fluid" and self.early_exit is not None:
            raise ValidationError(
                "the fluid backend integrates the full window in "
                "milliseconds; early exit applies to packet cells only"
            )
        if self.backend == "fluid" and self.arrival_series:
            raise ValidationError(
                "the arrival series is packet-level; fluid cells cannot "
                "request it"
            )
        if self.fluid_max_step is not None:
            if self.backend != "fluid":
                raise ValidationError(
                    "fluid_max_step only applies to fluid cells"
                )
            check_positive("fluid_max_step", self.fluid_max_step)

    def describe(self) -> dict:
        """A JSON-serializable identity (feeds the cache key)."""
        payload = {
            "platform": self.platform.describe(),
            "warmup": self.warmup,
            "window": self.window,
            "train": _train_payload(self.train),
            "deployment": (
                None if self.deployment is None else self.deployment.describe()
            ),
            "rate_floor_bps": self.rate_floor_bps,
        }
        # Conditional so exact cells keep their historical identity (and
        # cache keys) byte for byte; early-exit cells hash differently.
        if self.early_exit is not None:
            payload["early_exit"] = self.early_exit.describe()
        # Same pattern: default packet cells keep their existing keys,
        # fluid cells can never collide with them.
        if self.backend != "packet":
            payload["backend"] = self.backend
        if self.fluid_max_step is not None:
            payload["fluid_max_step"] = self.fluid_max_step
        if self.arrival_series:
            payload["arrival_series"] = True
        return payload


@dataclasses.dataclass(frozen=True)
class CellResult:
    """What a cell measures.

    Attributes:
        goodput_bytes: payload bytes delivered in the window.
        flagged_sources: attack sources the conformance detector
            flagged, or ``None`` when no detector was requested.
        converged_at: simulation time at which a convergence early-exit
            ended the window, or ``None`` for a full-horizon run.  When
            set, ``goodput_bytes`` covers only
            ``[warmup, converged_at]`` -- compare via
            :func:`goodput_rate`, never raw bytes.
        flow_goodput_bytes: payload bytes each victim flow delivered in
            the window, in flow order (packet cells; ``None`` on the
            fluid backend).  ``goodput_bytes`` is measured on its own,
            not summed from these.
        arrival_bytes: the bottleneck's offered load, one total per
            :data:`ARRIVAL_BIN_WIDTH` bin over
            ``[warmup, warmup + window)``, or ``None`` unless the cell
            set ``arrival_series``.
    """

    goodput_bytes: float
    flagged_sources: Optional[int] = None
    converged_at: Optional[float] = None
    flow_goodput_bytes: Optional[Tuple[float, ...]] = None
    arrival_bytes: Optional[Tuple[float, ...]] = None


def measured_seconds(cell: Cell, result: CellResult) -> float:
    """How much of the window *result* actually covers, in seconds."""
    if result.converged_at is not None:
        return result.converged_at - cell.warmup
    return cell.window


def goodput_rate(cell: Cell, result: CellResult) -> float:
    """Goodput normalized to bytes/second over the measured span.

    For full-horizon results this is ``goodput_bytes / window``; for
    early-exited results the divisor is the truncated span, so exact and
    fast measurements of the same scenario are comparable.
    """
    return result.goodput_bytes / measured_seconds(cell, result)


def warmup_key(cell: Cell) -> str:
    """The identity of a cell's attack-free warm-up prefix.

    Two cells with equal keys simulate byte-for-byte identical state up
    to ``t = warmup``: same platform (topology, seeds, stack) and same
    warm-up length.  The attack train/deployment, the window length and
    the conformance detector's rate floor deliberately do not appear --
    they only act after the prefix ends (the detector and the arrival
    tap attach at ``t = warmup``, and the detector's verdicts read
    attack flows, which start there).
    """
    payload = {
        "platform": cell.platform.describe(),
        "warmup": cell.warmup,
    }
    # Fluid cells never share a snapshot with packet cells (there is no
    # packet-level network to fork); conditional for key stability.
    if cell.backend != "packet":
        payload["backend"] = cell.backend
    return json.dumps(payload, sort_keys=True)


def _build_warm(cell: Cell):
    """Build the cell's scenario and simulate its attack-free warm-up.

    Returns the network with the simulation clock at ``cell.warmup``;
    the result depends only on :func:`warmup_key`.
    """
    net = cell.platform.build()
    net.start_flows()
    net.run(until=cell.warmup)
    return net


def _make_recorder(cell: Cell, record: bool):
    """A fresh :class:`~repro.obs.recorder.FlightRecorder`, or ``None``.

    Fluid cells have no packet-level dynamics to record, so only packet
    cells get one.  Imported lazily: the default (unrecorded) executor
    never loads the obs recorder module.
    """
    if not record or cell.backend != "packet":
        return None
    from repro.obs.recorder import FlightRecorder

    return FlightRecorder()


def _arrival_bins(rows, cell: Cell) -> Tuple[float, ...]:
    """Bin arrival *rows* over the cell's window.

    Each row's time is shifted by the warm-up, then the row lands in
    its :data:`ARRIVAL_BIN_WIDTH` bin of ``[0, window)``.
    """
    rows = np.array(rows, dtype=np.float64).reshape(-1, len(ROW_COLUMNS))
    rows[:, 0] -= cell.warmup
    monitor = RateMonitor(ARRIVAL_BIN_WIDTH, cell.window)
    monitor.ingest(rows)
    return tuple(monitor.bytes_per_bin.tolist())


def _measure_warmed(net, cell: Cell, recorder=None) -> CellResult:
    """Apply the cell's attack to a warmed network and measure.

    The observers are attached first, all purely passive: the cell's
    conformance detector, when it has a rate floor, an optional flight
    *recorder* (link arrival taps, sender telemetry pointers, an engine
    post-run hook), and the bottleneck's arrival series, when the cell
    asks for it.  Each tapped link has one row list
    (:func:`~repro.sim.trace.arrival_rows`) that every observer of it
    reads after the run, so a recorded cell bins and profiles the rows
    an unrecorded one would.  The measured goodput is bit-identical
    with or without any of them.  Attachment happens here, after any
    warm-start fork, because observers must never ride through a
    snapshot deep copy.  The recorder is detached on the way out, also
    when the run raises, so its raised GC threshold never outlives the
    cell.
    """
    before = net.aggregate_goodput_bytes()
    flows_before = net.goodput_snapshot()
    if recorder is not None:
        recorder.attach(net, horizon=cell.warmup + cell.window)
    arrivals = reverse = None
    if cell.arrival_series or cell.rate_floor_bps is not None:
        arrivals = arrival_rows(net.bottleneck)
    if cell.rate_floor_bps is not None:
        reverse = arrival_rows(net.reverse_bottleneck)
    try:
        attack_flow_ids: List[int] = []
        if cell.deployment is not None:
            sources = net.launch_distributed(
                cell.deployment, start_time=cell.warmup,
            )
            attack_flow_ids = [source.flow_id for source in sources]
        elif cell.train is not None:
            source = net.add_attack(cell.train, start_time=cell.warmup)
            source.start()
            attack_flow_ids = [source.flow_id]

        monitor = None
        if cell.early_exit is not None:
            monitor = GoodputConvergenceMonitor(
                net.sim, net.aggregate_goodput_bytes, cell.early_exit,
            )
            monitor.arm(start=cell.warmup,
                        horizon=cell.warmup + cell.window)

        net.run(until=cell.warmup + cell.window)
    finally:
        if recorder is not None:
            recorder.detach()
    goodput = net.aggregate_goodput_bytes() - before
    flow_goodput = net.goodput_snapshot() - flows_before

    flagged = None
    if cell.rate_floor_bps is not None:
        from repro.detection.feature import ConformanceDetector

        detector = ConformanceDetector(min_rate_bps=cell.rate_floor_bps)
        detector.ingest(arrivals, reverse)
        flagged = sum(
            1 for flow_id in attack_flow_ids if detector.is_flagged(flow_id)
        )
    return CellResult(
        goodput_bytes=goodput,
        flagged_sources=flagged,
        converged_at=monitor.converged_at if monitor is not None else None,
        flow_goodput_bytes=tuple(flow_goodput.tolist()),
        arrival_bytes=(_arrival_bins(arrivals, cell)
                       if cell.arrival_series else None),
    )


def _execute_fluid(cell: Cell) -> CellResult:
    """Run one measurement on the fluid (ODE) backend."""
    # Imported lazily so the default packet path never loads the fluid
    # module (keeps the packet executor's import set, and its
    # determinism envelope, untouched).
    from repro.sim.fluid import scenario_from_config, simulate_fluid

    if cell.deployment is not None:
        sources = tuple(zip(cell.deployment.trains, cell.deployment.offsets))
    elif cell.train is not None:
        sources = ((cell.train, 0.0),)
    else:
        sources = ()
    kwargs = {}
    if cell.fluid_max_step is not None:
        kwargs["max_step"] = cell.fluid_max_step
    result = simulate_fluid(
        scenario_from_config(cell.platform.to_config()),
        warmup=cell.warmup,
        window=cell.window,
        sources=sources,
        **kwargs,
    )
    return CellResult(goodput_bytes=result.goodput_bytes)


def execute_cell(cell: Cell, recorder=None) -> CellResult:
    """Run one measurement from scratch (pure: spec in, result out).

    An optional :class:`~repro.obs.recorder.FlightRecorder` captures
    the cell's in-sim time series (packet cells only); harvest it after
    this returns.  The result is bit-identical either way.
    """
    if cell.backend == "fluid":
        return _execute_fluid(cell)
    return _measure_warmed(_build_warm(cell), cell, recorder=recorder)


@dataclasses.dataclass(frozen=True)
class GroupResult:
    """What :func:`execute_cell_group` produced, plus its economics.

    Attributes:
        results: one :class:`CellResult` per input cell, in order.
        elapsed: wall-clock seconds per cell.  The shared warm-up (and
            the snapshot) is attributed to the first cell, which
            actually paid for it, so ``sum(elapsed)`` is the group's
            total execution time.
        warmup_sims: warm-up prefixes simulated from scratch (1 here;
            the runner sums across groups).
        warm_starts: cells measured on a snapshot fork instead of
            re-simulating their warm-up.
        warmup_seconds_saved: *simulated* seconds avoided -- the sum of
            the forked cells' warm-up lengths.
        series: one flight-recorder capture per cell (a tuple of
            :class:`~repro.obs.recorder.Series`, or ``None`` when the
            cell was not recorded).  Empty when recording was off --
            the default -- so unrecorded group results pickle exactly
            as before.
        worker: execution-placement attribution (``host:pid`` of the
            process that measured the group), or ``None`` when unknown.
            Pure provenance -- never part of any cache key or result
            comparison.
        metrics: the :class:`~repro.obs.metrics.MetricsRegistry` the
            group ran under, or ``None`` when metrics were off.  The
            runner absorbs it into the parent's active registry.
    """

    results: Tuple[CellResult, ...]
    elapsed: Tuple[float, ...]
    warmup_sims: int
    warm_starts: int
    warmup_seconds_saved: float
    series: Tuple[Optional[tuple], ...] = ()
    worker: Optional[str] = None
    metrics: Optional[MetricsRegistry] = None


def execute_cell_group(cells: Sequence[Cell], *,
                       record: bool = False) -> GroupResult:
    """Run cells sharing one warm-up prefix: simulate it once, fork the rest.

    All cells must agree on :func:`warmup_key` (enforced).  The prefix
    is simulated once; the first cell is measured on that very network
    (no copy), every later cell on a private
    :class:`~repro.sim.checkpoint.NetworkSnapshot` fork.  Results are
    bit-identical to calling :func:`execute_cell` per cell.

    With ``record=True`` every packet cell gets a private flight
    recorder whose harvested series ride back in
    :attr:`GroupResult.series`.  Recorders and conformance detectors
    attach only after the snapshot fork (observers never leak between
    cells or into the frozen prefix), so a group may mix observed and
    unobserved cells, and recorded results stay bit-identical to
    unrecorded ones.
    """
    if not cells:
        return GroupResult((), (), 0, 0, 0.0)
    first = cells[0]
    key = warmup_key(first)
    for cell in cells[1:]:
        if warmup_key(cell) != key:
            raise ValidationError(
                "execute_cell_group: cells must share a warmup prefix "
                f"(expected {key}, got {warmup_key(cell)})"
            )

    if first.backend == "fluid":
        # Fluid cells have no packet network to snapshot, and each one
        # integrates in milliseconds -- just run them back to back.
        results, elapsed = [], []
        for cell in cells:
            started = time.perf_counter()
            results.append(execute_cell(cell))
            elapsed.append(time.perf_counter() - started)
        return GroupResult(tuple(results), tuple(elapsed), 0, 0, 0.0,
                           series=(None,) * len(cells) if record else ())

    def _harvest(recorder):
        return None if recorder is None else recorder.harvest()

    started = time.perf_counter()
    net = _build_warm(first)
    if len(cells) == 1:
        recorder = _make_recorder(first, record)
        result = _measure_warmed(net, first, recorder=recorder)
        return GroupResult(
            (result,), (time.perf_counter() - started,), 1, 0, 0.0,
            series=(_harvest(recorder),) if record else (),
        )

    from repro.sim.checkpoint import NetworkSnapshot

    # Freeze before measuring the first cell: its attack and observers
    # must not leak into the forks.
    snapshot = NetworkSnapshot(net)
    recorder = _make_recorder(first, record)
    results = [_measure_warmed(net, first, recorder=recorder)]
    series = [_harvest(recorder)]
    elapsed = [time.perf_counter() - started]
    for cell in cells[1:]:
        forked = time.perf_counter()
        recorder = _make_recorder(cell, record)
        results.append(_measure_warmed(snapshot.fork(), cell,
                                       recorder=recorder))
        series.append(_harvest(recorder))
        elapsed.append(time.perf_counter() - forked)
    return GroupResult(
        results=tuple(results),
        elapsed=tuple(elapsed),
        warmup_sims=1,
        warm_starts=len(cells) - 1,
        warmup_seconds_saved=float(sum(cell.warmup for cell in cells[1:])),
        series=tuple(series) if record else (),
    )
