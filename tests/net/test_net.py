"""Tests for packets, routing and the IP layer."""

import random

import pytest

from repro.core.params import Rate
from repro.errors import ConfigurationError
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
