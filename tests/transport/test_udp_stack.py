"""Full-stack UDP tests over the simulated network."""

import pytest

from repro.core.params import Rate
from repro.core.throughput_model import ThroughputModel
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.errors import TransportError
from repro.scenario import build_network


class TestUdpDelivery:
    def test_datagram_reaches_the_sink(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        socket = net[0].udp.bind()
        socket.send("probe", 512, dst=2, dst_port=5001)
        net.run(0.1)
        assert sink.packets == 1
        assert sink.bytes == 512

    def test_unbound_port_drops_silently(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        socket = net[0].udp.bind()
        socket.send("probe", 512, dst=2, dst_port=4242)
        net.run(0.1)
        assert net[1].ip.datagrams_delivered == 1  # IP got it; UDP dropped

    def test_ephemeral_ports_are_distinct(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        a = net[0].udp.bind()
        b = net[0].udp.bind()
        assert a.port != b.port

    def test_double_bind_rejected(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        net[0].udp.bind(7000)
        with pytest.raises(TransportError):
            net[0].udp.bind(7000)

    def test_closed_socket_rejects_send(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        socket = net[0].udp.bind()
        socket.close()
        with pytest.raises(TransportError):
            socket.send("x", 10, dst=2, dst_port=1)

    def test_port_reusable_after_close(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        socket = net[0].udp.bind(7000)
        socket.close()
        net[0].udp.bind(7000)


class TestCbrSaturation:
    def test_saturated_cbr_hits_analytic_bound(self):
        net = build_network([0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
        net.run(2.0)
        measured = sink.throughput_bps(2.0)
        expected = ThroughputModel().max_throughput_bps(512, Rate.MBPS_11)
        assert measured == pytest.approx(expected, rel=0.05)

    def test_rate_limited_cbr_delivers_offered_load(self):
        net = build_network([0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=500_000)
        net.run(2.0)
        assert sink.throughput_bps(2.0) == pytest.approx(500_000, rel=0.05)

    def test_sequences_arrive_in_order(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=1e6)
        net.run(0.5)
        assert sink.sequences == sorted(sink.sequences)

    def test_warmup_trimming(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001, warmup_s=0.5)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=1e6)
        net.run(1.0)
        assert sink.packets_after_warmup < sink.packets


class TestMultihopForwarding:
    def test_static_route_forwards_through_relay(self):
        # 1 -- 2 -- 3 with 1 and 3 out of range of each other (160 m).
        net = build_network([0, 80, 160], data_rate=Rate.MBPS_2, fast_sigma_db=0.0)
        sink = UdpSink(net[2], port=5001)
        net[0].routing.add_route(dst=3, next_hop=2)
        net[2].routing.add_route(dst=1, next_hop=2)
        socket = net[0].udp.bind()
        for _ in range(5):
            socket.send("via-relay", 512, dst=3, dst_port=5001)
        net.run(0.5)
        assert sink.packets == 5
        assert net[1].ip.datagrams_forwarded == 5
