"""Self-tests of the benchmark harness: ``python3 -m pytest pdosbench``.

They need no simulation: the layer map is checked against the source
tree, and the correctness and metric code against synthetic reps.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from legacy import LEGACY
from rep import LAYER_RULES, LAYERS, REPRO_ROOT, layer_of
from run import (END_TO_END, PER_LAYER, check, end_to_end, per_layer,
                 tail_percentile)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("n, expected", [
    (76, 86), (11, 9), (20, 50), (1000, 99), (10, None), (0, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= 10 - 1e-9
        assert n * (1 - (expected + 1) / 100) < 10


def test_every_source_file_maps_to_one_declared_layer():
    files = [path.relative_to(REPRO_ROOT).as_posix()
             for path in REPRO_ROOT.rglob("*.py")]
    assert files
    for relative in files:
        assert layer_of(relative) in LAYERS, relative
    # No dead rules: each names a file or directory that exists.
    for rule in LAYER_RULES:
        assert any(f == rule or (rule.endswith("/") and f.startswith(rule))
                   for f in files), rule
    assert set(LAYER_RULES.values()) | {"other"} == set(LAYERS)


def _reps(workload="exact-serial"):
    cells = {"a": [100.0, None, None], "b": [90.0, None, None]}
    outputs = {"cells": cells, "render": "r0"}
    if workload == "fast-serial":
        outputs["gamma_star"] = {"panel": 0.3}
    replay_out = {k: v for k, v in outputs.items() if k != "cells"}
    setup = {"import_s": 0.9, "fingerprint_s": 0.01, "build_s": 0.001,
             "total_s": 0.911}
    replay = {"outputs": replay_out, "setup": setup, "process_s": 1.2,
              "runner": {"cells": 2, "executed": 0},
              "cache": {"key": [1e-5] * 2, "get": [1e-5] * 2, "put": [],
                        "hits": 2}}

    def rep(traced=False):
        return {
            "traced": traced,
            "cold": {
                "wall_s": 2.0, "process_s": 3.0, "rss_mb": 100.0,
                "outputs": outputs, "setup": setup,
                "work": {"events": 1000, "calendar_builds": 0,
                         "snapshots": 1, "forks": 1},
                "runner": {"executed": 2, "worker_utilization": None},
                "cell_seconds": [1.0, 1.0],
                "cache": {"key": [1e-5] * 2, "get": [1e-5] * 2,
                          "put": [1e-4] * 2, "hits": 0},
                "trace": {"samples": 10, "unmapped": 0, "pool_wait": 0,
                          "layers": {"sim.engine": 6, "sim.link": 4}},
            },
            "replays": [copy.deepcopy(replay) for _ in range(2)],
        }
    return [copy.deepcopy(rep(traced=i % 2 == 1)) for i in range(4)]


def test_identical_reps_pass():
    verdict = check("exact-serial", _reps(), golden=None)
    assert verdict["failed"] == 0
    assert verdict["attempted"] == 4 * (2 + 1 + 2 * (2 + 1))


def test_perturbed_result_counts_as_failed():
    reps = _reps()
    reps[2]["cold"]["outputs"]["cells"]["b"][0] += 1.0
    assert check("exact-serial", reps, golden=None)["failed"] == 1
    golden = {"cells": copy.deepcopy(_reps()[0]["cold"]["outputs"]["cells"])}
    golden["cells"]["a"][0] = 99.0
    # Every rep now disagrees with the golden on "a"; rep 2 also on "b".
    assert check("exact-serial", reps, golden=golden)["failed"] == 5


def test_replay_that_executes_or_differs_fails():
    reps = _reps()
    reps[1]["replays"][0]["runner"]["executed"] = 2
    reps[3]["replays"][1]["outputs"]["render"] = "other"
    assert check("exact-serial", reps, golden=None)["failed"] == 3


def test_gamma_star_miss_is_counted():
    reps = _reps("fast-serial")
    assert check("fast-serial", reps, {"gamma_star": {"panel": 0.5}})[
        "failed"] == 0
    verdict = check("fast-serial", reps, {"gamma_star": {"panel": 0.7}})
    assert verdict["gamma_star_miss"] == 4
    assert verdict["failed"] == 4


def test_declared_metrics_match_benchmark_json():
    for section, emitted in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert declared == emitted, section
        for name in emitted:
            assert NAME.fullmatch(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} == {
        "exact-serial", "fast-serial", "pool-2", "many-flows"}


def test_emitted_metrics_are_exactly_the_declared_ones():
    reps = _reps()
    assert set(end_to_end("exact-serial", reps)) == set(END_TO_END)
    metrics, _details = per_layer("exact-serial", reps)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["sim.engine.share"] == pytest.approx(60.0)
    assert metrics["trace.coverage"] == pytest.approx(100.0)


def test_legacy_report_names_declared_layers():
    for workload, layers in LEGACY.values():
        assert workload in {w["name"] for w in BENCHMARK["workloads"]}
        assert set(layers) <= set(LAYERS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "pdosbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "pdosbench/run.py", "--workload", "exact-serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
