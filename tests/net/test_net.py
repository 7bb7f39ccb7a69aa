"""Tests for packets, routing and the IP layer."""

import hashlib
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channel.shadowing import distance_m
from repro.core.params import Rate
from repro.errors import ConfigurationError
from repro.experiments.multihop import _nearest_neighbours, density_spec
from repro.scenario import build_network
from repro.net.packet import DEFAULT_TTL, Datagram, PROTO_TCP, PROTO_UDP
from repro.net.routing import (
    StaticRouting,
    build_shortest_path_tables,
    connectivity_graph,
)


class TestDatagram:
    def test_valid_datagram(self):
        d = Datagram(src=1, dst=2, protocol=PROTO_UDP, segment="x", size_bytes=100)
        assert d.size_bytes == 100

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            Datagram(src=1, dst=2, protocol=PROTO_UDP, segment="x", size_bytes=10)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            Datagram(src=1, dst=2, protocol="icmp", segment="x", size_bytes=100)

    def test_protocol_tags(self):
        assert PROTO_UDP == "udp"
        assert PROTO_TCP == "tcp"


class TestStaticRouting:
    def test_default_is_direct_delivery(self):
        routing = StaticRouting(own_address=1)
        assert routing.next_hop(7) == 7

    def test_explicit_route_wins(self):
        routing = StaticRouting(own_address=1)
        routing.add_route(dst=7, next_hop=3)
        assert routing.next_hop(7) == 3
        assert routing.routes() == {7: 3}

    def test_route_to_self_rejected(self):
        routing = StaticRouting(own_address=1)
        with pytest.raises(ConfigurationError):
            routing.add_route(dst=1, next_hop=2)


class TestStaticRoutingStrict:
    def test_install_goes_strict_and_misses_answer_none(self):
        routing = StaticRouting(own_address=1)
        routing.install({3: 2})
        assert routing.next_hop(3) == 2
        assert routing.next_hop(9) is None
        assert routing.default_direct is False

    def test_install_can_keep_the_direct_default(self):
        routing = StaticRouting(own_address=1)
        routing.install({3: 2}, strict=False)
        assert routing.next_hop(9) == 9

    def test_install_rejects_a_route_to_self(self):
        routing = StaticRouting(own_address=1)
        with pytest.raises(ConfigurationError):
            routing.install({1: 2})

    def test_routes_returns_a_copy(self):
        routing = StaticRouting(own_address=1)
        routing.add_route(dst=7, next_hop=3)
        routing.routes()[7] = 99
        assert routing.next_hop(7) == 3


class TestConnectivityGraph:
    def test_chain_adjacency(self):
        positions = [(0.0, 0.0), (80.0, 0.0), (160.0, 0.0), (240.0, 0.0)]
        graph = connectivity_graph(positions, max_range_m=100.0)
        assert graph == {1: (2,), 2: (1, 3), 3: (2, 4), 4: (3,)}

    def test_edges_are_symmetric_and_ascending(self):
        rng = random.Random(6)
        positions = [
            (rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)) for _ in range(25)
        ]
        graph = connectivity_graph(positions, max_range_m=150.0)
        for node, neighbours in graph.items():
            assert list(neighbours) == sorted(neighbours)
            for neighbour in neighbours:
                assert node in graph[neighbour]

    def test_non_positive_range_rejected(self):
        with pytest.raises(ConfigurationError):
            connectivity_graph([(0.0, 0.0)], max_range_m=0.0)


def _connectivity_graph_reference(positions_m, max_range_m):
    """The per-station scan: every ordered pair measured on its own."""
    n = len(positions_m)
    return {
        i + 1: tuple(
            j + 1
            for j in range(n)
            if j != i and distance_m(positions_m[i], positions_m[j]) <= max_range_m
        )
        for i in range(n)
    }


def _nearest_neighbour_reference(positions, index):
    """The per-station scan: closest other station, lowest index on ties."""
    best, best_d = -1, float("inf")
    for other, position in enumerate(positions):
        if other == index:
            continue
        d = distance_m(positions[index], position)
        if d < best_d:
            best, best_d = other, d
    return best


_coordinate = st.floats(min_value=-2000.0, max_value=2000.0, allow_nan=False)


@st.composite
def _scattered(draw):
    """Random positions, some stations copied onto others (coincident)."""
    positions = draw(
        st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=30)
    )
    copies = draw(st.lists(st.sampled_from(positions), max_size=5))
    positions = positions + copies
    draw(st.randoms()).shuffle(positions)
    return positions, draw(st.floats(min_value=0.01, max_value=3000.0))


@st.composite
def _lattice(draw):
    """Stations on a square lattice, sites repeatable: many exactly equal
    distances (ties), with the range often exactly one of them."""
    step = draw(st.sampled_from([0.1, 1.0, 50.0, 80.0]))
    sites = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=30,
        )
    )
    positions = [(x * step, y * step) for x, y in sites]
    max_range_m = step * draw(st.sampled_from([0.5, 1.0, math.sqrt(2.0), 2.0, 3.0]))
    return positions, max_range_m


_layouts = st.one_of(_scattered(), _lattice())


class TestPairGeometryOracles:
    @given(layout=_layouts)
    def test_connectivity_graph_matches_the_per_station_scan(self, layout):
        positions, max_range_m = layout
        assert connectivity_graph(positions, max_range_m) == (
            _connectivity_graph_reference(positions, max_range_m)
        )

    @given(layout=_layouts)
    def test_nearest_neighbours_match_the_per_station_scan(self, layout):
        positions, _ = layout
        assert _nearest_neighbours(positions) == [
            _nearest_neighbour_reference(positions, index)
            for index in range(len(positions))
        ]

    def test_ties_go_to_the_lowest_index(self):
        # Station 1 is equidistant from 0 and 2; 3 coincides with 0.
        positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 0.0)]
        assert _nearest_neighbours(positions) == [3, 0, 1, 0]

    @pytest.mark.parametrize(
        "seed, head, sha",
        [
            (1, [130, 63, 52, 74, 118, 184], "d5913aa1e359d4a6"),
            (2, [79, 132, 41, 67, 37, 145], "0094da7c9cdf5dbc"),
            (3, [119, 133, 59, 155, 72, 20], "b4f7ae7f27a50cb6"),
        ],
    )
    def test_density_flows_at_250_stations_are_unchanged(self, seed, head, sha):
        # Destinations recorded from the per-station nearest-neighbour scan.
        flows = density_spec(250, 1.0, 0.1, seed=seed).traffic.flows
        assert [flow.src for flow in flows] == list(range(250))
        dsts = [flow.dst for flow in flows]
        assert dsts[:6] == head
        assert hashlib.sha256(repr(dsts).encode()).hexdigest()[:16] == sha


class TestShortestPathTables:
    def test_chain_routes_hop_by_hop(self):
        positions = [(index * 80.0, 0.0) for index in range(5)]
        tables = build_shortest_path_tables(positions, max_range_m=100.0)
        assert tables[1][5] == 2
        assert tables[2][5] == 3
        assert tables[4][5] == 5
        assert tables[5][1] == 4

    def test_equal_hop_ties_break_toward_the_lowest_address(self):
        # A 2x2 square: corner 1 reaches corner 4 in two hops via either
        # 2 or 3; the ascending neighbour order makes 2 win, always.
        positions = [(0.0, 0.0), (80.0, 0.0), (0.0, 80.0), (80.0, 80.0)]
        tables = build_shortest_path_tables(positions, max_range_m=100.0)
        assert tables[1][4] == 2
        assert tables[4][1] == 2

    def test_unreachable_destinations_are_absent(self):
        positions = [(0.0, 0.0), (80.0, 0.0), (5000.0, 0.0)]
        tables = build_shortest_path_tables(positions, max_range_m=100.0)
        assert tables[1] == {2: 2}
        assert 3 not in tables[2]
        assert tables[3] == {}


class TestMultihopForwarding:
    def test_chain_delivers_over_four_hops(self):
        net = build_network(
            [0.0, 80.0, 160.0, 240.0, 320.0],
            data_rate=Rate.MBPS_2,
            fast_sigma_db=0.0,
            routing="shortest-path",
        )
        received = []
        sink = net[4].udp.bind(5001)
        sink.on_receive(
            lambda payload, payload_bytes, src, src_port: received.append(
                (payload, src)
            )
        )
        socket = net[0].udp.bind()
        assert socket.send("hop-by-hop", 100, dst=5, dst_port=5001)
        net.run(0.1)
        assert received == [("hop-by-hop", 1)]
        assert net[4].ip.datagrams_delivered == 1
        for hop in (1, 2, 3):
            assert net[hop].ip.datagrams_forwarded == 1

    def test_routing_loop_dies_with_a_typed_ttl_expiry(self):
        # Nodes 1 and 2 bounce traffic for the unreachable node 3 at
        # each other; the TTL turns the orbit into one terminal drop.
        net = build_network([0.0, 10.0, 5000.0], fast_sigma_db=0.0)
        net[0].routing.add_route(dst=3, next_hop=2)
        net[1].routing.add_route(dst=3, next_hop=1)
        assert net[0].ip.send("seg", 100, dst=3, protocol=PROTO_UDP)
        net.run(1.0)
        expired = net[0].ip.datagrams_ttl_expired + net[1].ip.datagrams_ttl_expired
        forwarded = net[0].ip.datagrams_forwarded + net[1].ip.datagrams_forwarded
        assert expired == 1
        assert forwarded == DEFAULT_TTL - 1

    def test_strict_table_miss_is_a_typed_no_route_drop(self):
        net = build_network(
            [0.0, 5000.0], fast_sigma_db=0.0, routing="shortest-path"
        )
        assert net[0].ip.send("seg", 100, dst=2, protocol=PROTO_UDP) is False
        assert net[0].ip.datagrams_no_route == 1
        assert net[0].ip.send_failures == 1

    def test_unknown_routing_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            build_network([0.0, 10.0], routing="ospf")


class TestIpLayer:
    def test_send_counts(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        assert net[0].ip.send("seg", 100, dst=2, protocol=PROTO_UDP)
        assert net[0].ip.datagrams_sent == 1

    def test_delivery_dispatches_to_registered_protocol(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        seen = []
        net[1].ip.register_protocol("raw", lambda seg, src: seen.append((seg, src)))

        # Patch a datagram with the custom protocol through the MAC
        # directly (IP validates protocols on send).
        from repro.net.packet import Datagram

        datagram = Datagram.__new__(Datagram)
        object.__setattr__(datagram, "src", 1)
        object.__setattr__(datagram, "dst", 2)
        object.__setattr__(datagram, "protocol", "raw")
        object.__setattr__(datagram, "segment", "hello")
        object.__setattr__(datagram, "size_bytes", 100)
        net[0].mac.enqueue(datagram, 2, 100)
        net.run(0.1)
        assert seen == [("hello", 1)]

    def test_duplicate_protocol_registration_rejected(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        with pytest.raises(ConfigurationError):
            net[0].ip.register_protocol(PROTO_UDP, lambda s, a: None)

    def test_queue_overflow_reports_send_failure(self):
        net = build_network([0, 10], fast_sigma_db=0.0, mac_queue_frames=1)
        results = [
            net[0].ip.send("seg", 100, dst=2, protocol=PROTO_UDP) for _ in range(5)
        ]
        assert False in results
        assert net[0].ip.send_failures > 0

    def test_ip_header_added_to_mac_payload(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        captured = []
        original = net[0].mac.enqueue

        def spy(msdu, dst, msdu_bytes):
            captured.append(msdu_bytes)
            return original(msdu, dst, msdu_bytes)

        net[0].mac.enqueue = spy
        net[0].ip.send("seg", 100, dst=2, protocol=PROTO_UDP)
        assert captured == [120]


class TestNode:
    def test_node_composition(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        node = net[0]
        assert node.address == 1
        assert node.position_m == (0.0, 0.0)
        assert node.ip.address == 1
        assert node.mac.address == 1
        assert "Node(1" in repr(node)
