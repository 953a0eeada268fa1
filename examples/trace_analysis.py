#!/usr/bin/env python3
"""Offline trace analysis: ns-2-format traces from the simulator.

The simulator writes the classic ns-2 whitespace trace format, so runs
can be archived and analysed offline with existing tooling -- or with
this library's own analysis stack, as demonstrated here:

1. run an attacked dumbbell with the bottleneck traced to a file;
2. reload the trace and rebuild the incoming-traffic series *from the
   trace alone*;
3. recover the attack period and locate the loss bursts offline.

Run:  python examples/trace_analysis.py
"""

import os
import tempfile

import numpy as np

from repro.analysis import analyze_synchronization, sparkline
from repro.core import PulseTrain
from repro.sim import DumbbellConfig, PacketKind, TraceWriter, build_dumbbell, read_trace
from repro.util.units import mbps, ms

HORIZON = 30.0
BIN = 0.1


def main() -> None:
    # -- 1. run and trace (the directory goes when the block ends) -----
    with tempfile.TemporaryDirectory(prefix="pdos_") as tmp:
        trace_path = os.path.join(tmp, "bottleneck.tr")
        writer = TraceWriter.to_path(trace_path)
        net = build_dumbbell(DumbbellConfig(n_flows=15, seed=8))
        writer.attach(net.bottleneck)

        train = PulseTrain.uniform(ms(100), mbps(30), ms(400), n_pulses=60)
        net.start_flows()
        net.add_attack(train, start_time=3.0).start()
        net.run(until=HORIZON)
        writer.close()
        print(f"wrote {writer.lines_written} trace lines to {trace_path}")

        # -- 2. reload and rebuild the traffic series ------------------
        records = read_trace(trace_path)
    n_bins = int(HORIZON / BIN)
    series = np.zeros(n_bins)
    drops_per_bin = np.zeros(n_bins)
    for record in records:
        index = int(record.time / BIN)
        if index >= n_bins:
            continue
        series[index] += record.size_bytes
        if record.dropped:
            drops_per_bin[index] += 1

    attack_bytes = sum(r.size_bytes for r in records
                       if r.kind is PacketKind.ATTACK)
    legit_bytes = sum(r.size_bytes for r in records
                      if r.kind is PacketKind.DATA)
    print(f"offered at bottleneck: {legit_bytes / 1e6:.1f} MB legitimate, "
          f"{attack_bytes / 1e6:.1f} MB attack")

    # -- 3. analysis from the trace alone ------------------------------
    print("\noffered load (from trace):")
    print(sparkline(series))
    print("drops per bin:")
    print(sparkline(drops_per_bin))

    report = analyze_synchronization(series[int(3.0 / BIN):], BIN)
    print(f"\nrecovered period: pinnacles -> "
          f"{report.pinnacle_period and round(report.pinnacle_period, 2)} s, "
          f"ACF -> {report.acf_period and round(report.acf_period, 2)} s "
          f"(ground truth T_AIMD = {train.period:.2f} s)")

    drop_report = analyze_synchronization(drops_per_bin[int(3.0 / BIN):],
                                          BIN)
    print(f"loss process: {int(drops_per_bin.sum())} drops across "
          f"{int((drops_per_bin > 0).sum())} bins; drop-series ACF period "
          f"{drop_report.acf_period and round(drop_report.acf_period, 2)} s "
          f"(the attack period again)")


if __name__ == "__main__":
    main()
