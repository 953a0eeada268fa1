"""Golden digests of the forensic time series and detector verdicts.

Fig. 1 (cwnd per epoch), Fig. 3 (binned offered load), the
detection-evasion verdicts, the distributed-deployment flags, the
per-flow damage and the mice-vs-elephants outcomes are all read from
in-sim observers.  Each digest below is the sha256 of an
experiment's observable output at a short horizon; a change to how the
series are observed must leave every one of them byte for byte equal.
"""

import hashlib

from repro.experiments.detection_evasion import run_detection_evasion
from repro.experiments.distributed_attack import run_distributed_attack
from repro.experiments.fig01_cwnd import run_fig01
from repro.experiments.fig03_sync import run_fig03_ns2, run_fig03_testbed
from repro.experiments.flow_damage import run_flow_damage
from repro.experiments.mice_elephants import run_mice_elephants
from repro.runner import ExperimentRunner, set_default_runner

GOLDEN = {
    "fig03a":
        "4017c7a82106bcc480f98c910f03b31707731b74fa86f9ab0912631fe44f4862",
    "fig03b":
        "a1a59559b0c10b6e5b362391507ef4ce635e054386545d99fbaaf68c5971bd70",
    "fig01":
        "827460fac33591a21dc90f8dfb40ac7487bb5979ca4482d5ceb018c2a77b03f6",
    "detection":
        "c6c17b7480213e85cf1c99174968424ceb4bbc352dfdb4dad81dd727dfaaf3d4",
    "distributed":
        "f1066f3325b651159499ad24e7b439a9af104b57b78d2c7297ab78eb4b4f2feb",
    "flow_damage":
        "e948981ea8323296c4f29e5b37b225046fe8939b582c769fa8f3b7e96e4aaea2",
    "mice_elephants":
        "2326d5bfbe940f45bcc47894934ab7e254e4ce2da93f7816119f17ed51a76c19",
}


def digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else repr(part).encode())
    return sha.hexdigest()


def sync_digest(result) -> str:
    r = result.report
    return digest(result.series.tobytes(), r.pinnacles, r.pinnacle_period,
                  r.acf_period, r.fft_period)


class _RecordingRunner(ExperimentRunner):
    """The default runner, also keeping every measured goodput."""

    def __init__(self) -> None:
        super().__init__(jobs=1)
        self.goodputs = []

    def measure_many(self, cells):
        results = super().measure_many(cells)
        self.goodputs.extend(result.goodput_bytes for result in results)
        return results


def test_fig03a_binned_series():
    assert sync_digest(run_fig03_ns2(horizon=10.0)) == GOLDEN["fig03a"]


def test_fig03b_binned_series():
    assert sync_digest(run_fig03_testbed(horizon=10.0)) == GOLDEN["fig03b"]


def test_fig01_epochs():
    result = run_fig01()
    assert digest(result.epochs, result.measured_steady_mean) \
        == GOLDEN["fig01"]


def test_detection_verdicts():
    report = run_detection_evasion(horizon=10.0)
    rows = [
        (name, s.flood_verdict.detected, s.dtw_fast.detected,
         s.dtw_fast.best_distance, s.dtw_slow.detected,
         s.dtw_slow.best_distance, s.conformance_flagged,
         s.mean_rate_fraction)
        for name, s in report.scenarios.items()
    ]
    assert digest(rows) == GOLDEN["detection"]


def test_distributed_flags_and_goodput():
    runner = _RecordingRunner()
    set_default_runner(runner)
    with runner:
        result = run_distributed_attack(n_sources=4, warmup=3.0, window=6.0,
                                        fast=False)
    rows = [(name, o.flagged_sources, o.degradation)
            for name, o in result.outcomes.items()]
    assert digest(rows, runner.goodputs) == GOLDEN["distributed"]


def test_flow_damage_per_flow():
    report = run_flow_damage(window=8.0)
    rows = [(d.rtt, d.baseline_bytes, d.attacked_bytes)
            for d in report.damages]
    assert digest(rows, report.fairness_before, report.fairness_during) \
        == GOLDEN["flow_damage"]


def test_mice_elephants_outcomes():
    result = run_mice_elephants(window=18.0, n_elephants=6)
    assert digest(result.baseline, result.attacked) \
        == GOLDEN["mice_elephants"]
