#!/usr/bin/env python3
"""The other attack class, and what a defender can do about it.

The paper analyses the AIMD-based PDoS attack; its companion (NDSS '05)
covers the timeout-based class -- the shrew mechanism.  This example:

1. plans a timeout-based attack from first principles (period on a
   minRTO harmonic, pulse width covering the victims' RTTs, rate sized
   to fill the bottleneck buffer);
2. launches it on the dumbbell and measures the damage;
3. deploys the two defenses this library implements -- randomized RTO
   (reference [7]) and a CHOKe bottleneck -- and measures how much
   goodput each recovers;
4. shows the paper's point: the randomization defense that neutralizes
   *this* attack is ineffective against the AIMD-based attack from
   `quickstart.py`.

Run:  python examples/timeout_attack_and_defense.py
"""

from repro.core import plan_timeout_attack
from repro.sim import DumbbellConfig, TCPConfig, TCPVariant, build_dumbbell
from repro.util.units import mbps

WARMUP, WINDOW = 6.0, 25.0


def measure(train, *, rto_jitter=0.0, queue="red", n_flows=15, seed=5):
    """Goodput (bits/s) of the victims during the attack window."""
    tcp = TCPConfig(variant=TCPVariant.NEWRENO, delayed_ack=2, min_rto=1.0,
                    rto_jitter=rto_jitter)
    net = build_dumbbell(DumbbellConfig(
        n_flows=n_flows, tcp=tcp, seed=seed, queue=queue,
    ))
    net.start_flows()
    net.run(until=WARMUP)
    before = net.aggregate_goodput_bytes()
    if train is not None:
        net.add_attack(train, start_time=WARMUP).start()
    net.run(until=WARMUP + WINDOW)
    return (net.aggregate_goodput_bytes() - before) * 8 / WINDOW


def main() -> None:
    config = DumbbellConfig(n_flows=15)
    plan = plan_timeout_attack(
        min_rto=1.0,                      # the victims' ns-2-style minRTO
        bottleneck_bps=config.bottleneck_rate_bps,
        buffer_bytes=config.buffer_bytes,
        rtt_max=float(config.flow_rtts()[-1]),
    )
    print(plan.render())
    train = plan.train(n_pulses=int(WINDOW / plan.period) + 2)

    baseline = measure(None)
    attacked = measure(train)
    print(f"\nbaseline goodput          = {baseline / 1e6:6.2f} Mb/s")
    print(f"under timeout-based attack= {attacked / 1e6:6.2f} Mb/s "
          f"(Gamma = {1 - attacked / baseline:.2f})")

    with_jitter = measure(train, rto_jitter=0.5)
    with_choke = measure(train, queue="choke")
    print("\ndefenses against the timeout-based attack:")
    print(f"  randomized RTO (+-50%):  {with_jitter / 1e6:6.2f} Mb/s "
          f"({(with_jitter / attacked - 1):+.0%} vs undefended)")
    print(f"  CHOKe bottleneck:        {with_choke / 1e6:6.2f} Mb/s "
          f"({(with_choke / attacked - 1):+.0%} vs undefended)")

    # The AIMD-based attack shrugs off the randomization defense.
    from repro.core import PulseTrain

    aimd = PulseTrain.from_gamma(
        gamma=0.6, rate_bps=mbps(30), extent=0.1,
        bottleneck_bps=config.bottleneck_rate_bps,
        n_pulses=int(WINDOW / 0.33) + 2,
    )
    aimd_plain = measure(aimd)
    aimd_jittered = measure(aimd, rto_jitter=0.5)
    print("\nthe same defense against the AIMD-based attack:")
    print(f"  undefended:              {aimd_plain / 1e6:6.2f} Mb/s")
    print(f"  randomized RTO (+-50%):  {aimd_jittered / 1e6:6.2f} Mb/s "
          f"({(aimd_jittered / aimd_plain - 1):+.0%} -- the paper's "
          f"Section-1.1 point)")


if __name__ == "__main__":
    main()
