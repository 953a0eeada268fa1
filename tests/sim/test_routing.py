"""The compiled forwarding plane and graph-topology routing.

Pins the tentpole promises: compiled shortest-path routes match a BFS
oracle on random connected graphs, golden digests fix the forwarded
dynamics of the dumbbell, parking-lot and test-bed scenarios, and the
parking-lot scenario is deterministic across scheduler backends and
warm-start forks.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.core.attack import PulseTrain
from repro.runner.cells import Cell, PlatformSpec, execute_cell
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import FULL_PACKET_BYTES, Packet, PacketKind
from repro.sim.queues import DropTailQueue
from repro.sim.routing import GraphTopology, aimd_buffer_bytes
from repro.sim.topology import (
    DumbbellConfig,
    ParkingLotConfig,
    build_dumbbell,
    build_parking_lot,
    make_choke_queue,
)
from repro.testbed.dummynet import TestbedConfig, build_testbed
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.units import mbps, ms


# ----------------------------------------------------------------------
# aimd_buffer_bytes
# ----------------------------------------------------------------------
class TestAimdBufferRule:
    def test_standard_tcp_gets_full_bdp(self):
        # beta = 1/2 -> B = C*T: the classic full-utilization buffer.
        assert aimd_buffer_bytes(mbps(15), 0.1) == pytest.approx(
            mbps(15) * 0.1 / 8.0
        )

    def test_multiplexing_scales_inverse_sqrt(self):
        one = aimd_buffer_bytes(mbps(100), 0.2, 1)
        many = aimd_buffer_bytes(mbps(100), 0.2, 16)
        assert many == pytest.approx(one / 4.0)

    def test_gentler_decrease_needs_less_buffer(self):
        # beta = 3/4 -> B = C*T/3.
        assert aimd_buffer_bytes(mbps(30), 0.1, beta=0.75) == pytest.approx(
            mbps(30) * 0.1 / 8.0 / 3.0
        )

    def test_floor_bounds_tiny_bdp_links(self):
        assert aimd_buffer_bytes(1e5, 0.001) == 16.0 * FULL_PACKET_BYTES

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            aimd_buffer_bytes(mbps(10), 0.1, beta=1.0)
        with pytest.raises(ValidationError):
            aimd_buffer_bytes(0.0, 0.1)
        with pytest.raises(ValidationError):
            aimd_buffer_bytes(mbps(10), -1.0)


# ----------------------------------------------------------------------
# route compilation vs a BFS oracle
# ----------------------------------------------------------------------
def random_connected_graph(rng: random.Random, n_nodes: int):
    """Random connected undirected graph as a set of duplex edges."""
    edges = set()
    for i in range(1, n_nodes):
        edges.add((rng.randrange(i), i))  # random spanning tree
    extra = rng.randrange(0, 2 * n_nodes)
    for _ in range(extra):
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def build_graph(edges, n_nodes, sim=None):
    topo = GraphTopology(sim if sim is not None else Simulator())
    for i in range(n_nodes):
        topo.add_node(f"n{i}")
    for a, b in edges:
        topo.add_duplex_link(
            topo.nodes[a], topo.nodes[b],
            rate_bps=mbps(10), delay=ms(1),
            queue=DropTailQueue(64_000.0), queue_back=DropTailQueue(64_000.0),
        )
    topo.compile_routes()
    return topo


def bfs_distances(edges, n_nodes, root):
    adjacency = {i: [] for i in range(n_nodes)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    nxt.append(neighbor)
        frontier = nxt
    return dist


class TestCompiledRoutesVsOracle:
    def test_compiled_paths_are_shortest_on_random_graphs(self):
        """Property: every compiled path has the BFS-oracle length."""
        rng = random.Random(0xC0FFEE)
        for trial in range(25):
            n_nodes = rng.randrange(2, 14)
            edges = random_connected_graph(rng, n_nodes)
            topo = build_graph(edges, n_nodes)
            for src in range(n_nodes):
                oracle = bfs_distances(edges, n_nodes, src)
                for dst in range(n_nodes):
                    if dst == src:
                        continue
                    path = topo.path(src, dst)
                    assert path is not None, (trial, src, dst)
                    assert len(path) == oracle[dst], (trial, src, dst)
                    # Path validity: contiguous hops ending at dst.
                    assert path[0].src.node_id == src
                    assert path[-1].dst.node_id == dst
                    for first, second in zip(path, path[1:]):
                        assert first.dst is second.src

    def test_compilation_is_deterministic(self):
        """Two identical builds install identical forwarding state."""
        rng = random.Random(7)
        edges = random_connected_graph(rng, 12)
        topo_a = build_graph(edges, 12)
        topo_b = build_graph(edges, 12)
        for src in range(12):
            for dst in range(12):
                if src == dst:
                    continue
                hops_a = [l.dst.node_id for l in topo_a.path(src, dst)]
                hops_b = [l.dst.node_id for l in topo_b.path(src, dst)]
                assert hops_a == hops_b

    def test_compilation_is_idempotent(self):
        rng = random.Random(21)
        edges = random_connected_graph(rng, 9)
        topo = build_graph(edges, 9)
        before = {
            (s, d): [l.dst.node_id for l in topo.path(s, d)]
            for s in range(9) for d in range(9) if s != d
        }
        topo.compile_routes()
        after = {
            (s, d): [l.dst.node_id for l in topo.path(s, d)]
            for s in range(9) for d in range(9) if s != d
        }
        assert before == after

    def test_disconnected_destination_is_unroutable(self):
        topo = GraphTopology(Simulator())
        a = topo.add_node("a")
        b = topo.add_node("b")
        c = topo.add_node("c")
        topo.add_node("island")
        topo.add_duplex_link(a, b, rate_bps=mbps(10), delay=ms(1))
        topo.add_duplex_link(a, c, rate_bps=mbps(10), delay=ms(1))
        topo.compile_routes()
        # From the router (dense table) the island is simply absent;
        # from a host the default route leads to the router, which
        # drops -- either way no path exists.
        assert topo.path(0, 3) is None
        assert topo.path(1, 3) is None
        assert topo.path(1, 2) is not None

    def test_path_rejects_unknown_endpoints(self):
        topo = GraphTopology(Simulator())
        topo.add_node("only")
        with pytest.raises(ConfigurationError):
            topo.path(0, 99)

    def test_duplicate_node_id_rejected(self):
        topo = GraphTopology(Simulator())
        topo.add_node("a", node_id=3)
        with pytest.raises(ConfigurationError):
            topo.add_node("b", node_id=3)


# ----------------------------------------------------------------------
# node-level behaviour
# ----------------------------------------------------------------------
def one_packet(dst, flow_id=1):
    return Packet(PacketKind.CBR, flow_id, 0, dst, 100.0)


class TestNodeForwarding:
    def test_default_route_carries_unknown_destinations(self):
        sim = Simulator()
        host = Node(sim, 0, "host")
        router = Node(sim, 1, "router")
        sink = Node(sim, 2, "sink")
        Link(sim, host, router, mbps(10), ms(1))
        Link(sim, router, sink, mbps(10), ms(1))
        host.set_default_route(1)
        router.set_default_route(2)
        got = []
        sink.register_agent(1, got.append)
        host.send(one_packet(2))
        sim.run()
        assert len(got) == 1

    def test_unroutable_counts_undeliverable(self):
        sim = Simulator()
        node = Node(sim, 0, "lonely")
        node.receive(one_packet(9))
        assert node.undeliverable == 1
        assert node.metrics_snapshot() == {"undeliverable_packets": 1.0}

    def test_parallel_links_rejected(self):
        """Routes name next-hop nodes, so a second a->b link is an error."""
        topo = GraphTopology(Simulator())
        a = topo.add_node("a")
        b = topo.add_node("b")
        first = topo.add_link(a, b, rate_bps=mbps(10), delay=ms(1))
        with pytest.raises(ConfigurationError, match=r"^a: .* b \(n1\)"):
            topo.add_link(a, b, rate_bps=mbps(20), delay=ms(1))
        assert topo.links == [first]
        assert a.link_to(1) is first
        topo.compile_routes()
        assert topo.path(0, 1) == (first,)

    def test_explicit_route_survives_later_neighbor_link(self):
        sim = Simulator()
        a, b, c = Node(sim, 0, "a"), Node(sim, 1, "b"), Node(sim, 2, "c")
        via_b = Link(sim, a, b, mbps(10), ms(1))
        a.add_route(2, 1)
        Link(sim, a, c, mbps(10), ms(1))
        assert a._outbound(2) is via_b

    def test_bulk_register_agents(self):
        sim = Simulator()
        node = Node(sim, 0, "host")
        sink = []
        node.register_agents({1: sink.append, 2: sink.append})
        with pytest.raises(ConfigurationError):
            node.register_agents({2: sink.append, 3: sink.append})
        node.receive(one_packet(0, flow_id=2))
        assert len(sink) == 1


# ----------------------------------------------------------------------
# golden digests, scheduler backends, and forks
# ----------------------------------------------------------------------
def run_dumbbell(**config_kw):
    config = DumbbellConfig(n_flows=5, seed=3, **config_kw)
    net = build_dumbbell(config)
    net.start_flows()
    net.run(until=2.0)
    source = net.add_attack(
        PulseTrain.uniform(ms(75), mbps(25), 0.5, 6), start_time=2.0,
    )
    source.start()
    net.run(until=5.0)
    return net


def run_parking_lot(until=4.0):
    config = ParkingLotConfig(
        n_segments=2, long_flows=4, cross_flows=2, seed=5,
    )
    net = build_parking_lot(config)
    net.start_flows()
    net.run(until=1.5)
    source = net.add_attack(
        PulseTrain.uniform(ms(75), mbps(25), 0.4, 8), start_time=1.5,
    )
    source.start()
    net.run(until=until)
    return net


def run_testbed():
    net = build_testbed(TestbedConfig(n_flows=4, seed=2))
    net.start_flows()
    net.run(until=2.0)
    return net


#: scenario -> (events executed, aggregate goodput bytes, sha256 of the
#: repr of the final state digest).  Any change to forwarding, links,
#: queues, TCP or the engine that alters a single dispatch shows up here.
#: The digest includes the process-global packet uid counter, so hash a
#: network before building the next one.
GOLDEN = {
    "red-dumbbell": (
        run_dumbbell, 31003, 6590440.0,
        "b58175228164bb1863a4be1e7b3fe9eb3d2a9d090e2187d02602057e46872270",
    ),
    # The CHOKe bottleneck tracks its buffer, so its deliveries dispatch
    # through Node.receive rather than a send-time resolved callable.
    "choke-dumbbell": (
        lambda: run_dumbbell(queue_factory=make_choke_queue),
        28303, 5641440.0,
        "749727b45d413de06ad1476b65a3d0230ad8e013f5f3ab6d47121608c69fd979",
    ),
    "parking-lot": (
        run_parking_lot, 35366, 881840.0,
        "a99f7eb4ee23c75415444362492ca7019fb556ccf9de4384dfeb49f8811379ae",
    ),
    # Compiled routes: hosts forward on their default route, the
    # dummynet box and the egress router on their tables.
    "testbed": (
        run_testbed, 573, 140160.0,
        "38e8b32ab3b32e8e492b377819ae50b085970ae686831bb75b3d52253c020d7a",
    ),
}


class TestBitIdenticality:
    @pytest.mark.parametrize("scenario", sorted(GOLDEN))
    def test_golden_digest(self, scenario):
        run, events, goodput, digest_sha = GOLDEN[scenario]
        net = run()
        assert net.sim.events_executed == events
        assert net.aggregate_goodput_bytes() == goodput
        got = hashlib.sha256(repr(net.state_digest()).encode()).hexdigest()
        assert got == digest_sha

    def test_parking_lot_heap_vs_calendar(self, pin_backend):
        """Cross-backend fingerprint: heap and calendar dispatch match."""
        pin_backend("heap")
        heap = run_parking_lot()
        assert heap.sim.scheduler == "heap"
        pin_backend("calendar")
        calendar = run_parking_lot()
        assert calendar.sim.scheduler == "calendar"
        assert heap.sim.events_executed == calendar.sim.events_executed
        assert heap.state_digest() == calendar.state_digest()

    def test_parking_lot_snapshot_fork_matches_straight_run(self):
        from repro.sim.checkpoint import NetworkSnapshot

        straight = run_parking_lot(until=4.0)

        config = ParkingLotConfig(
            n_segments=2, long_flows=4, cross_flows=2, seed=5,
        )
        net = build_parking_lot(config)
        net.start_flows()
        net.run(until=1.5)
        snapshot = NetworkSnapshot(net)
        fork = snapshot.fork()
        source = fork.add_attack(
            PulseTrain.uniform(ms(75), mbps(25), 0.4, 8), start_time=1.5,
        )
        source.start()
        fork.run(until=4.0)
        assert fork.state_digest() == straight.state_digest()


# ----------------------------------------------------------------------
# runner PlatformSpec integration
# ----------------------------------------------------------------------
class TestParkingLotPlatformSpec:
    def test_dumbbell_describe_unchanged(self):
        """Existing cells keep their historical cache identity."""
        spec = PlatformSpec(kind="dumbbell", n_flows=15, seed=1)
        assert spec.describe() == {
            "kind": "dumbbell", "n_flows": 15, "seed": 1,
            "tcp": None, "queue": "red",
        }
        testbed = PlatformSpec(kind="testbed", n_flows=10, seed=7)
        assert testbed.describe() == {
            "kind": "testbed", "n_flows": 10, "seed": 7,
            "tcp": None, "use_red": True,
        }

    def test_parking_lot_round_trip(self):
        spec = PlatformSpec(
            kind="parking_lot", n_flows=4, seed=2,
            extra=(("n_segments", 2), ("cross_flows", 2),
                   ("attack_segments", (0, 1))),
        )
        config = spec.to_config()
        assert isinstance(config, ParkingLotConfig)
        assert config.long_flows == 4
        assert config.n_segments == 2
        assert config.attack_segments == (0, 1)
        payload = spec.describe()
        assert payload["kind"] == "parking_lot"
        assert ["attack_segments", [0, 1]] in payload["extra"]
        hash(spec)  # stays hashable for the runner's memo

    def test_extra_restricted_to_parking_lot(self):
        with pytest.raises(ValidationError):
            PlatformSpec(kind="dumbbell", n_flows=5, seed=1,
                         extra=(("n_segments", 2),))

    def test_fluid_backend_rejected(self):
        spec = PlatformSpec(kind="parking_lot", n_flows=4, seed=2)
        with pytest.raises(ValidationError):
            Cell(platform=spec, warmup=1.0, window=2.0, backend="fluid")

    def test_execute_cell_deterministic(self):
        spec = PlatformSpec(
            kind="parking_lot", n_flows=3, seed=4,
            extra=(("cross_flows", 1),),
        )
        cell = Cell(
            platform=spec, warmup=1.0, window=2.0,
            train=PulseTrain.uniform(ms(75), mbps(25), 0.4, 6),
        )
        assert execute_cell(cell) == execute_cell(cell)


# ----------------------------------------------------------------------
# parking-lot construction details
# ----------------------------------------------------------------------
class TestParkingLotConfig:
    def test_attack_span_must_be_contiguous(self):
        with pytest.raises(ConfigurationError):
            ParkingLotConfig(n_segments=3, attack_segments=(0, 2))
        with pytest.raises(ConfigurationError):
            ParkingLotConfig(n_segments=2, attack_segments=())
        with pytest.raises(ConfigurationError):
            ParkingLotConfig(n_segments=2, attack_segments=(1, 2))

    def test_heterogeneous_rates_resolve(self):
        config = ParkingLotConfig(
            n_segments=2, segment_rates_bps=(mbps(10), mbps(20)),
            attack_segments=(0, 1),
        )
        assert config.segment_rates() == (mbps(10), mbps(20))
        assert config.contested_rate_bps() == mbps(10)

    def test_rtt_draws_are_seeded(self):
        config = ParkingLotConfig(seed=9)
        long_a, cross_a = config.draw_rtts()
        long_b, cross_b = config.draw_rtts()
        assert np.array_equal(long_a, long_b)
        assert np.array_equal(cross_a, cross_b)
        assert long_a.min() >= config.rtt_min
        assert long_a.max() <= config.rtt_max

    def test_network_paths_cross_expected_segments(self):
        net = build_parking_lot(ParkingLotConfig(
            n_segments=3, long_flows=2, cross_flows=1,
            attack_segments=(1, 2),
        ))
        topo = net.topo
        segments = [net.labels[f"segment{j}"] for j in range(3)]
        # A long flow's forward path crosses every chain segment.
        path = topo.path(
            net.senders[0].node.node_id, net.receivers[0].node.node_id,
        )
        chain = [link for link in path if link in segments]
        assert len(chain) == 3
        # The attack path crosses exactly the attacked span.
        attack_path = topo.path(
            net.attacker_node.node_id, net.attack_sink_node.node_id,
        )
        attacked = [l for l in attack_path if l in segments]
        assert attacked == [segments[1], segments[2]]


class TestTestbedRoutes:
    def test_compiled_paths_match_fig_11_wiring(self):
        """Every user's data, the victim's ACKs and the attack cross
        the pipe, as Fig. 11 wires them."""
        net = build_testbed(TestbedConfig(n_flows=3))
        topo = net.topo
        by_name = {node.name: node for node in topo.nodes.values()}
        victim = by_name["victim"].node_id

        def names(path):
            return [link.name for link in path]

        for i in range(3):
            user = by_name[f"user{i}"].node_id
            assert names(topo.path(user, victim)) == [
                f"user{i}->dummynet", "pipe", "egress->victim"]
            assert names(topo.path(victim, user)) == [
                "victim->egress", "pipe-reverse", f"dummynet->user{i}"]
        assert names(topo.path(by_name["attacker"].node_id, victim)) == [
            "attacker->dummynet", "pipe", "egress->victim"]
        assert topo.path(user, victim)[1] is net.bottleneck
        assert topo.path(victim, user)[1] is net.reverse_bottleneck
