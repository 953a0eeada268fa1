"""One benchmark rep, run by ``run.py`` in a fresh Python process.

Usage::

    PYTHONPATH=src python3 pdosbench/rep.py '<request json>'

The request names the workload, the seed, the phase (``cold`` runs the
workload against an empty result cache, ``replay`` re-renders it from
the cache a cold rep filled, ``golden`` computes the reference outputs
stored in ``goldens.json``), the cache directory, and whether the rep
is traced.  The rep times its own set-up (imports, code fingerprints,
runner or topology construction) and its measured phase, and prints
one JSON object as the last line of standard output.

Every layer is measured from outside the program: a traced rep wraps
public callables where the runner looks them up and samples the main
thread's stack from a daemon thread.  An untraced rep installs only
the per-group event counter that ``events_per_s`` needs.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
import multiprocessing
import resource
import sys
import threading
import time
from pathlib import Path

#: The layers a stack sample can be charged to, named after modules.
LAYERS = (
    "sim.engine", "sim.link", "sim.tcp", "sim.forwarding", "sim.packet",
    "sim.attacker", "sim.checkpoint", "sim.topology", "sim.fluid",
    "sim.convergence", "runner.runner", "runner.planner", "experiments",
    "core", "other",
)

#: Source path under ``src/repro`` (a file, or a directory ending in
#: ``/``) -> layer.  A file rule beats a directory rule; anything no rule
#: covers (obs, util, analysis, detection, baselines, the CLI, ...) is
#: ``other``.  The test-bed's dummynet pipe is the Fig. 12 link, and the
#: short-flow workload and iperf are TCP traffic, so they join those
#: layers.
LAYER_RULES = {
    "sim/engine.py": "sim.engine",
    "sim/link.py": "sim.link",
    "sim/queues.py": "sim.link",
    "sim/trace.py": "sim.link",
    "testbed/dummynet.py": "sim.link",
    "sim/tcp/": "sim.tcp",
    "sim/workload.py": "sim.tcp",
    "testbed/iperf.py": "sim.tcp",
    "sim/node.py": "sim.forwarding",
    "sim/routing.py": "sim.forwarding",
    "sim/packet.py": "sim.packet",
    "sim/attacker.py": "sim.attacker",
    "sim/checkpoint.py": "sim.checkpoint",
    "sim/topology.py": "sim.topology",
    "sim/fluid.py": "sim.fluid",
    "sim/convergence.py": "sim.convergence",
    "runner/planner.py": "runner.planner",
    "runner/": "runner.runner",
    "experiments/": "experiments",
    "core/": "core",
}

#: Platform seeds move by this stride per benchmark seed, so seed 0 runs
#: the shipped figures' own platforms.
SEED_STRIDE = 1000

#: Sampling period of the stack sampler, seconds.
SAMPLE_INTERVAL = 0.005

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def layer_of(relative: str) -> str:
    """The layer of a source file given its path under ``src/repro``."""
    if relative in LAYER_RULES:
        return LAYER_RULES[relative]
    best = ""
    for rule in LAYER_RULES:
        if rule.endswith("/") and relative.startswith(rule) and (
                len(rule) > len(best)):
            best = rule
    return LAYER_RULES[best] if best else "other"


class StackSampler:
    """Charges periodic samples of the main thread to source layers.

    Each sample goes to the innermost frame whose file lies under
    ``src/repro``; a stack with no such frame is unmapped.  Samples
    whose stack passes through the runner's parallel-batch method are
    also counted as pool waiting.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL) -> None:
        self.interval = interval
        self.layers = collections.Counter()
        self.samples = 0
        self.unmapped = 0
        self.pool_wait = 0
        self._files = {}
        self._main = threading.main_thread().ident
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _layer(self, filename: str):
        layer = self._files.get(filename)
        if layer is None:
            try:
                relative = Path(filename).resolve().relative_to(REPRO_ROOT)
            except ValueError:
                layer = ""
            else:
                layer = layer_of(relative.as_posix())
            self._files[filename] = layer
        return layer

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._main)
            layer = ""
            in_pool = False
            while frame is not None:
                code = frame.f_code
                if not layer:
                    layer = self._layer(code.co_filename)
                if code.co_name == "_execute_parallel":
                    in_pool = True
                frame = frame.f_back
            self.samples += 1
            if layer:
                self.layers[layer] += 1
            else:
                self.unmapped += 1
            self.pool_wait += in_pool

    def __enter__(self) -> "StackSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def report(self) -> dict:
        return {"samples": self.samples, "unmapped": self.unmapped,
                "pool_wait": self.pool_wait, "layers": dict(self.layers)}


def _timed(fn, log: list, hits: list = None):
    """Wrap *fn* to append each call's duration to *log*.

    With *hits*, also append whether the call returned something other
    than ``None`` (a cache hit).
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            log.append(time.perf_counter() - started)
        if hits is not None:
            hits.append(result is not None)
        return result
    return wrapper


class GroupCounters:
    """Counts work done inside ``execute_cell_group`` in any process.

    The runner's pool forks its workers after this is installed, so the
    wrapped function and the shared array reach them; each group adds
    its own deltas under the array's lock.  Slots: events dispatched,
    calendar-queue builds, snapshots taken, snapshot forks.
    """

    def __init__(self, traced: bool) -> None:
        import repro.runner.runner as runner_module
        from repro.sim import checkpoint
        from repro.sim.engine import scheduler_builds, total_events_dispatched

        self.shared = multiprocessing.Array("d", 4)
        local = [0, 0]  # snapshots, forks taken by this process

        def probe():
            return (total_events_dispatched(),
                    scheduler_builds()["calendar"], local[0], local[1])

        if traced:
            snapshot_init = checkpoint.NetworkSnapshot.__init__
            snapshot_fork = checkpoint.NetworkSnapshot.fork

            @functools.wraps(snapshot_init)
            def counted_init(self, *args, **kwargs):
                local[0] += 1
                return snapshot_init(self, *args, **kwargs)

            @functools.wraps(snapshot_fork)
            def counted_fork(self, *args, **kwargs):
                local[1] += 1
                return snapshot_fork(self, *args, **kwargs)

            checkpoint.NetworkSnapshot.__init__ = counted_init
            checkpoint.NetworkSnapshot.fork = counted_fork

        real = runner_module.execute_cell_group
        shared = self.shared

        @functools.wraps(real)
        def counted_group(*args, **kwargs):
            before = probe()
            try:
                return real(*args, **kwargs)
            finally:
                after = probe()
                with shared.get_lock():
                    for slot, (a, b) in enumerate(zip(before, after)):
                        shared[slot] += b - a

        runner_module.execute_cell_group = counted_group

    def read(self) -> dict:
        events, calendar, snapshots, forks = self.shared[:]
        return {"events": int(events), "calendar_builds": int(calendar),
                "snapshots": int(snapshots), "forks": int(forks)}


class CacheProbe:
    """Times the runner's cache-key and result-cache calls."""

    def __init__(self) -> None:
        import repro.runner.runner as runner_module
        from repro.runner.cache import ResultCache

        self.key, self.get, self.put, self.hits = [], [], [], []
        runner_module.cell_key = _timed(runner_module.cell_key, self.key)
        ResultCache.get = _timed(ResultCache.get, self.get, self.hits)
        ResultCache.put = _timed(ResultCache.put, self.put)

    def read(self) -> dict:
        return {"key": self.key, "get": self.get, "put": self.put,
                "hits": sum(self.hits)}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _exact_batches(workload: str, seed: int):
    """The exact figure batches of *workload*: ``[(figure, [plans])]``.

    Each batch is one ``run_gain_sweeps`` call, as in the figure
    drivers.  The slices keep one rep to a few seconds: one Fig. 6
    series, Fig. 10's normal-gain case at its shrew harmonics, and one
    Fig. 12 rate; ``pool-2`` takes a 15-flow panel with two extents
    from each of Figs. 7 and 8, so each batch is one warm-up group the
    runner chunks across both workers.
    """
    from repro.experiments.base import (
        DumbbellPlatform, TestbedPlatform, plan_gain_sweep)
    from repro.experiments.fig06_09_gain import FIGURE_RATES
    from repro.util.units import mbps, ms

    offset = SEED_STRIDE * seed
    if workload == "exact-serial":
        return [
            ("fig06", [plan_gain_sweep(
                DumbbellPlatform(n_flows=15, seed=615 + offset),
                rate_bps=FIGURE_RATES[6], extent=ms(100),
                label="fig06 15 flows T_extent=100ms")]),
            # T_AIMD = minRTO/n lands on gamma = 0.2 n for this case.
            ("fig10", [plan_gain_sweep(
                DumbbellPlatform(n_flows=15, seed=1000 + offset),
                rate_bps=mbps(30), extent=ms(100),
                gammas=(0.2, 0.4, 0.6, 0.8),
                label="fig10 normal-gain R=30M T_extent=100ms")]),
            ("fig12", [plan_gain_sweep(
                TestbedPlatform(n_flows=10, seed=42 + offset),
                rate_bps=mbps(20), extent=ms(150),
                label="fig12 R_attack=20M")]),
        ]
    return [
        (f"fig0{figure}", [
            plan_gain_sweep(
                DumbbellPlatform(n_flows=15,
                                 seed=figure * 100 + 15 + offset),
                rate_bps=FIGURE_RATES[figure], extent=ms(extent),
                label=f"fig0{figure} 15 flows T_extent={extent}ms")
            for extent in (50, 100)
        ])
        for figure in (7, 8)
    ]


def fast_panels(seed: int):
    """The fast-mode panels: ``[(label, platform, rate_bps, extent)]``.

    These are the shipped figures' own 15-flow platforms; the seed only
    sets the order they run in.  The planner's work depends on the
    platform seed far more than on the code (one panel's packet events
    differ by up to 2x between platform seeds), so varying it would
    make this workload's wall time measure the seed.
    """
    from repro.experiments.base import DumbbellPlatform
    from repro.experiments.fig06_09_gain import FIGURE_RATES
    from repro.util.units import ms

    panels = [
        (f"fig0{figure} 15 flows T_extent={extent}ms",
         DumbbellPlatform(n_flows=15, seed=figure * 100 + 15),
         FIGURE_RATES[figure], ms(extent))
        for figure, extent in ((6, 100), (7, 50))
    ]
    turn = seed % len(panels)
    return panels[turn:] + panels[:turn]


def _run_exact(batches, runner) -> str:
    from repro.experiments.base import render_curve_table, run_gain_sweeps

    return "\n\n".join(
        render_curve_table(run_gain_sweeps(plans, runner=runner),
                           title=figure)
        for figure, plans in batches
    )


def _run_fast(panels, runner):
    from repro.runner.planner import FAST_POLICY, run_planned_sweep

    sweeps = [
        run_planned_sweep(platform, rate_bps=rate, extent=extent,
                          label=label, policy=FAST_POLICY, runner=runner)
        for label, platform, rate, extent in panels
    ]
    text = "\n".join(sweep.summary() for sweep in sweeps)
    return text, {label: sweep.gamma_star
                  for (label, *_), sweep in zip(panels, sweeps)}


#: The many-flows dumbbell: 10k elephants over a 600 Mb/s RED bottleneck
#: with the rule-of-thumb buffer scaled to the flock, plus mice.
MANY_FLOWS = 10_000
MANY_FLOWS_HORIZON = 1.5


def _build_many_flows(seed: int):
    from repro.sim.topology import (
        FULL_PACKET_BYTES, DumbbellConfig, build_dumbbell)
    from repro.sim.workload import ShortFlowWorkload
    from repro.util.units import mbps, ms

    config = DumbbellConfig(
        n_flows=MANY_FLOWS, bottleneck_rate_bps=mbps(600),
        buffer_bytes=1500 * FULL_PACKET_BYTES,
    )
    net = build_dumbbell(config)
    mice_src, mice_dst = net.add_host_pair(rtt=ms(100))
    mice = ShortFlowWorkload(
        net.sim, mice_src, mice_dst, tcp=config.tcp,
        mean_size_segments=15.0, mean_interarrival=0.01, seed=seed,
    )
    return net, mice


def _run_many_flows(net, mice) -> None:
    net.start_flows()
    mice.start()
    net.run(until=MANY_FLOWS_HORIZON)
    mice.finalize()


def _cache_outputs(cache_dir) -> dict:
    """Every executed cell in a private cache: ``{cell id: result}``.

    A cell id is the SHA-256 of the cell's description, which, unlike
    the cache key, does not change with the code fingerprint.
    """
    cells = {}
    for path in Path(cache_dir).glob("??/*.json"):
        payload = json.loads(path.read_text())
        cells[cell_id(payload["meta"]["cell"])] = [
            payload["goodput_bytes"], payload["flagged_sources"],
            payload["converged_at"]]
    return cells


def cell_id(description: dict) -> str:
    blob = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _golden(workload: str, seed: int, cache_dir: str) -> dict:
    """Reference outputs for *seed*, computed serially.

    ``pool-2``'s cells are computed with one job, so its golden checks
    the pool path against the serial one.  ``fast-serial``'s golden is
    the exact gamma* of each panel on the default grid.
    """
    from repro.runner import ExperimentRunner

    if workload == "many-flows":
        net, mice = _build_many_flows(seed)
        _run_many_flows(net, mice)
        return {"fingerprint": _many_flows_fingerprint(net, mice)}
    if workload == "fast-serial":
        from repro.experiments.base import plan_gain_sweep, run_gain_sweeps

        stars = {}
        for label, platform, rate, extent in fast_panels(seed):
            curve = run_gain_sweeps(
                [plan_gain_sweep(platform, rate_bps=rate, extent=extent)],
                runner=ExperimentRunner())[0]
            stars[label] = curve.peak_measured().gamma
        return {"gamma_star": stars}
    with ExperimentRunner(jobs=1, cache_dir=cache_dir) as runner:
        _run_exact(_exact_batches(workload, seed), runner)
    return {"cells": _cache_outputs(cache_dir)}


def _many_flows_fingerprint(net, mice) -> list:
    sim = net.sim
    return [sim.events_executed, net.aggregate_goodput_bytes(),
            mice.launched, _digest(repr(sim.state_digest()))]


def _rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_rep(request: dict) -> dict:
    workload = request["workload"]
    seed = request["seed"]
    phase = request["phase"]
    traced = request.get("traced", False)

    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the CLI's import set)
    import repro.experiments  # noqa: F401
    from repro.runner import ExperimentRunner, code_version
    imported = time.perf_counter()
    code_version("packet")
    code_version("fluid")
    fingerprinted = time.perf_counter()

    if phase == "golden":
        return _golden(workload, seed, request["cache_dir"])

    net = mice = runner = None
    if workload == "many-flows":
        from repro.sim.engine import scheduler_builds

        net, mice = _build_many_flows(seed)
    else:
        runner = ExperimentRunner(
            jobs=2 if workload == "pool-2" else 1,
            cache_dir=request["cache_dir"])
    built = time.perf_counter()

    counters = cache = None
    if runner is not None:
        counters = GroupCounters(traced)
        if traced:
            cache = CacheProbe()
    else:
        calendar_before = scheduler_builds()["calendar"]

    outputs = {}
    sampler = StackSampler() if traced else None
    with sampler or contextlib.nullcontext():
        measured = time.perf_counter()
        if workload == "many-flows":
            _run_many_flows(net, mice)
        elif workload == "fast-serial":
            text, outputs["gamma_star"] = _run_fast(fast_panels(seed), runner)
        else:
            text = _run_exact(_exact_batches(workload, seed), runner)
        if runner is not None:
            runner.close()  # joins pool workers; the user waits for it
        wall = time.perf_counter() - measured

    result = {
        "setup": {
            "import_s": imported - started,
            "fingerprint_s": fingerprinted - imported,
            "build_s": built - fingerprinted,
            "total_s": built - started,
        },
        "wall_s": wall,
        "rss_mb": _rss_mb(),
        "outputs": outputs,
    }
    if runner is None:
        outputs["fingerprint"] = _many_flows_fingerprint(net, mice)
        result["work"] = {
            "events": net.sim.events_executed,
            "calendar_builds": scheduler_builds()["calendar"]
            - calendar_before,
            "snapshots": 0, "forks": 0,
        }
    else:
        outputs["render"] = _digest(text)
        if phase == "cold":
            outputs["cells"] = _cache_outputs(request["cache_dir"])
        result["work"] = counters.read()
        stats = runner.stats
        result["runner"] = stats.snapshot()
        result["cell_seconds"] = [
            timing.elapsed for timing in stats.timings
            if timing.source == "executed"]
    if cache is not None:
        result["cache"] = cache.read()
    if sampler is not None:
        result["trace"] = sampler.report()
    return result


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_rep(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
