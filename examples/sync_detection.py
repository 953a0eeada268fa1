#!/usr/bin/env python3
"""Quasi-global synchronization: see the attack's fingerprint in traffic.

Reproduces the Fig.-3 measurement end to end and renders it as an ASCII
sparkline: a PDoS attack with T_AIMD = 2 s is launched against 24 TCP
flows, the bottleneck's offered load is binned, normalized, and PAA-
reduced, and the attack period is recovered three independent ways
(pinnacle counting, autocorrelation, FFT).  A DTW pulse detector is then
run at two sampling periods to show the paper's point about reference
[8]: sampled slower than T_extent, the pulses become invisible.

Run:  python examples/sync_detection.py
"""

import numpy as np

from repro.analysis import analyze_synchronization, normalize, paa_series, sparkline
from repro.core import PulseTrain
from repro.detection import DTWPulseDetector
from repro.sim import DumbbellConfig, RateMonitor, build_dumbbell
from repro.util.units import mbps, ms

BIN = 0.02      # raw trace bin, seconds
PAA_WIDTH = 5   # 5 bins -> 0.1 s display segments
HORIZON = 30.0


def main() -> None:
    train = PulseTrain.uniform(ms(50), mbps(100), ms(1950), n_pulses=20)
    print(f"attack: {train}  (period {train.period:.1f} s, "
          f"duty cycle {train.duty_cycle:.1%})")

    net = build_dumbbell(DumbbellConfig(n_flows=24, seed=11))
    net.start_flows()
    net.run(until=5.0)
    # One (time, queue_bytes, queue_packets, signed_size, flow_id,
    # accepted) row per bottleneck arrival from here on; attack sizes
    # are negative.
    offset = net.sim.now
    arrivals = []
    net.bottleneck.arrival_tap = arrivals.append
    net.add_attack(train, start_time=5.0).start()
    net.run(until=5.0 + HORIZON)

    rows = np.array(arrivals)
    rows[:, 0] -= offset
    monitor = RateMonitor(BIN, HORIZON)
    monitor.ingest(rows)

    display = paa_series(normalize(monitor.bytes_per_bin), PAA_WIDTH)
    print("\nincoming traffic (normalized, PAA):")
    print(sparkline(display))

    report = analyze_synchronization(display, BIN * PAA_WIDTH)
    print(f"\npinnacles: {report.pinnacles} in {report.window:.0f} s "
          f"=> period {report.pinnacle_period:.2f} s")
    print(f"autocorrelation period: {report.acf_period:.2f} s")
    print(f"FFT period:             {report.fft_period:.2f} s")
    print(f"attack period:          {train.period:.2f} s  "
          f"(consistent: {report.consistent_with(train.period)})")

    print("\nDTW pulse detector (Sun/Lui/Yau style):")
    print(f"  (T_extent = {train.extent * 1e3:.0f} ms; once the sampling "
          f"period grows well past it,\n   the pulse energy averages away "
          f"-- the blind spot the paper identifies)")
    for sample_period in (0.1, 1.0):
        verdict = DTWPulseDetector(sample_period=sample_period).detect(
            monitor.bytes_per_bin, BIN
        )
        print(f"  sampling {sample_period:.1f} s: detected="
              f"{verdict.detected} (distance {verdict.best_distance:.3f})")


if __name__ == "__main__":
    main()
