"""Warm-start checkpointing: snapshot/fork determinism at the sim layer.

The load-bearing property is *bit-identity*: a network forked from a
:class:`~repro.sim.checkpoint.NetworkSnapshot` must evolve exactly like
the original network continuing from the same point -- same goodput,
same drop counts, same packet uid streams, same RNG draws -- across
every queue discipline and TCP variant the experiments use.
"""

import gc
import itertools
import types

import pytest

from repro.core.attack import PulseTrain
from repro.sim import NetworkSnapshot, Packet
from repro.sim.tcp import TCPConfig, TCPVariant
from repro.sim.topology import DumbbellConfig, QUEUE_FACTORIES, build_dumbbell
from repro.testbed.dummynet import TestbedConfig, build_testbed
from repro.util.errors import SimulationError
from repro.util.units import mbps, ms


def make_train(rate=mbps(60), pulses=3):
    return PulseTrain(
        extents=[0.1] * pulses,
        rates_bps=[rate] * pulses,
        spaces=[0.9] * (pulses - 1),
    )


def warmed_dumbbell(queue="red", variant=TCPVariant.NEWRENO, *,
                    n_flows=4, warmup=2.0, seed=9):
    config = DumbbellConfig(
        n_flows=n_flows,
        queue=queue,
        tcp=TCPConfig(variant=variant),
        seed=seed,
    )
    net = build_dumbbell(config)
    net.start_flows()
    net.run(warmup)
    return net


def reachable(root):
    """Every object a deep copy of *root* could copy.

    Modules, classes and functions are shared by reference, not copied,
    so the walk stops at them; a bound method contributes its instance.
    """
    shared = (types.ModuleType, type, types.FunctionType,
              types.BuiltinFunctionType, types.CodeType)
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        else:
            stack.extend(gc.get_referents(obj))


def drop_totals(net):
    return (net.bottleneck.packets_dropped, net.bottleneck.bytes_dropped)


class TestForkBitIdentity:
    @pytest.mark.parametrize("queue", sorted(QUEUE_FACTORIES))
    def test_fork_digest_matches_original(self, queue):
        net = warmed_dumbbell(queue)
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        assert fork.state_digest() == net.state_digest()

    @pytest.mark.parametrize("queue", sorted(QUEUE_FACTORIES))
    def test_fork_evolves_identically_under_attack(self, queue):
        net = warmed_dumbbell(queue)
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        for candidate in (net, fork):
            candidate.add_attack(make_train(), start_time=2.0).start()
            candidate.run(6.0)
        assert fork.state_digest() == net.state_digest()
        assert fork.aggregate_goodput_bytes() == net.aggregate_goodput_bytes()
        assert drop_totals(fork) == drop_totals(net)

    @pytest.mark.parametrize(
        "variant",
        [TCPVariant.TAHOE, TCPVariant.RENO, TCPVariant.NEWRENO,
         TCPVariant.SACK],
    )
    def test_fork_identity_across_tcp_variants(self, variant):
        net = warmed_dumbbell("red", variant)
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        for candidate in (net, fork):
            candidate.add_attack(make_train(), start_time=2.0).start()
            candidate.run(5.0)
        assert fork.state_digest() == net.state_digest()

    def test_fork_matches_from_scratch_rerun(self):
        # Fork-at-warmup must equal building the identical scenario from
        # scratch and simulating through the same warm-up: the economics
        # of warm starts rest on this equivalence.
        scratch = warmed_dumbbell("red")
        snapshot = NetworkSnapshot(warmed_dumbbell("red"))
        fork = snapshot.fork()
        assert fork.state_digest() == scratch.state_digest()

    def test_testbed_fork_identity(self):
        net = build_testbed(TestbedConfig(n_flows=3))
        net.start_flows()
        net.run(2.0)
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        assert fork.state_digest() == net.state_digest()
        for candidate in (net, fork):
            candidate.add_attack(make_train(mbps(40)), start_time=2.0).start()
            candidate.run(5.0)
        assert fork.state_digest() == net.state_digest()
        assert fork.aggregate_goodput_bytes() == net.aggregate_goodput_bytes()


class TestForkIsolation:
    def test_forks_are_independent(self):
        net = warmed_dumbbell()
        snapshot = NetworkSnapshot(net)
        heavy = snapshot.fork()
        light = snapshot.fork()
        heavy.add_attack(make_train(mbps(80)), start_time=2.0).start()
        light.add_attack(make_train(mbps(20)), start_time=2.0).start()
        heavy.run(6.0)
        light.run(6.0)
        # A harder attack must not bleed into the sibling fork.
        assert (heavy.aggregate_goodput_bytes()
                < light.aggregate_goodput_bytes())

    def test_snapshot_frozen_against_later_mutation(self):
        net = warmed_dumbbell()
        snapshot = NetworkSnapshot(net)
        digest = net.state_digest()
        # Mutate the original well past the snapshot point...
        net.add_attack(make_train(), start_time=2.0).start()
        net.run(7.0)
        # ...and the snapshot still forks from the frozen state.
        fork = snapshot.fork()
        assert fork.state_digest() == digest

    def test_same_snapshot_forks_identical_uid_streams(self):
        snapshot = NetworkSnapshot(warmed_dumbbell())
        first = snapshot.fork()
        uid_after_first = Packet.peek_uid()
        first.run(4.0)  # consume uids on the first fork
        second = snapshot.fork()
        assert Packet.peek_uid() == uid_after_first
        second.run(4.0)
        assert first.state_digest() == second.state_digest()

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_graph_holds_no_iterator_counter(self, scheduler, pin_backend):
        # Copying an itertools.count is deprecated (gone in Python
        # 3.14), so seq and uid positions are plain ints: nothing a
        # snapshot or fork deep-copies may hold a count.
        pin_backend(scheduler)
        net = warmed_dumbbell()
        assert net.sim.scheduler == scheduler
        fork = NetworkSnapshot(net).fork()
        for root in (net, fork):
            assert not [obj for obj in reachable(root)
                        if isinstance(obj, itertools.count)]

    def test_fork_counter(self):
        snapshot = NetworkSnapshot(warmed_dumbbell())
        assert snapshot.forks == 0
        snapshot.fork()
        snapshot.fork()
        assert snapshot.forks == 2


class TestEdgeCases:
    def test_snapshot_with_cancelled_timer_in_calendar(self):
        # Cancelled events stay in the heap as (time, seq, None, ())
        # tombstones; they must deep-copy and replay identically.
        net = warmed_dumbbell(n_flows=2, warmup=1.0)
        cancelled = net.sim.schedule(10.0, lambda: None)
        cancelled.cancel()
        assert net.sim.pending_events > 0
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        assert fork.state_digest() == net.state_digest()
        for candidate in (net, fork):
            candidate.run(3.0)
        assert fork.state_digest() == net.state_digest()

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_fork_round_trip_per_backend(self, scheduler, pin_backend):
        # The fork contract is backend-agnostic: freezing a network
        # whose simulator runs the calendar queue (buckets, front,
        # freelist, seq counter) must round-trip as exactly as the
        # heap, and the fork must keep evolving bit-identically.
        pin_backend(scheduler)
        net = build_dumbbell(DumbbellConfig(n_flows=4, seed=9))
        net.start_flows()
        net.run(2.0)
        assert net.sim.scheduler == scheduler
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        assert fork.sim.scheduler == scheduler
        assert fork.state_digest() == net.state_digest()
        for candidate in (net, fork):
            candidate.add_attack(make_train(), start_time=2.0).start()
            candidate.run(6.0)
        assert fork.state_digest() == net.state_digest()
        assert fork.aggregate_goodput_bytes() == net.aggregate_goodput_bytes()
        assert drop_totals(fork) == drop_totals(net)

    def test_fork_digest_equal_across_backends(self, pin_backend):
        # Two networks warmed identically on different backends agree
        # on the digest, and so do forks taken from each.  Each backend's
        # network and fork run under its own pin: a re-pin would migrate
        # a heap fork that has not run yet.
        warm_digests, fork_digests = [], []
        for scheduler in ("heap", "calendar"):
            pin_backend(scheduler)
            net = build_dumbbell(DumbbellConfig(n_flows=3, seed=5))
            net.start_flows()
            net.run(2.0)
            warm_digests.append(net.state_digest())
            fork = NetworkSnapshot(net).fork()
            fork.run(4.0)
            assert (net.sim.scheduler, fork.sim.scheduler) == (
                scheduler, scheduler)
            fork_digests.append(fork.state_digest())
        assert warm_digests[0] == warm_digests[1]
        assert fork_digests[0] == fork_digests[1]

    def test_snapshot_mid_pulse(self):
        # Freezing while an attack pulse is actively emitting (its next
        # emission event pending in the calendar) must restore the pulse
        # train mid-flight.
        net = warmed_dumbbell(n_flows=2, warmup=1.0)
        net.add_attack(
            PulseTrain(extents=[2.0], rates_bps=[mbps(50)], spaces=[]),
            start_time=1.0,
        ).start()
        net.run(1.5)  # halfway through the 2 s pulse
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        for candidate in (net, fork):
            candidate.run(4.0)
        assert fork.state_digest() == net.state_digest()
        assert drop_totals(fork) == drop_totals(net)

    def test_refuses_snapshot_while_running(self):
        net = warmed_dumbbell(n_flows=1, warmup=0.5)

        def snap_inside_event():
            with pytest.raises(SimulationError, match="running"):
                NetworkSnapshot(net)
            net.sim.stop()

        net.sim.schedule(0.1, snap_inside_event)
        net.run(1.0)

    def test_zero_warmup_snapshot(self):
        config = DumbbellConfig(n_flows=2, seed=3)
        net = build_dumbbell(config)
        net.start_flows()
        net.run(0.0)
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        for candidate in (net, fork):
            candidate.run(2.0)
        assert fork.state_digest() == net.state_digest()
