"""Full-stack TCP tests over the simulated network."""


from repro.apps.bulk import BulkTcpReceiver, BulkTcpSender
from repro.core.params import Rate
from repro.core.throughput_model import ThroughputModel
from repro.scenario import build_network
from repro.transport.tcp.connection import TcpConfig, TcpState


class TestHandshake:
    def test_connection_establishes(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        accepted = []
        net[1].tcp.listen(80, accepted.append)
        connection = net[0].tcp.connect(2, 80)
        net.run(0.1)
        assert connection.state is TcpState.ESTABLISHED
        assert len(accepted) == 1
        assert accepted[0].state is TcpState.ESTABLISHED

    def test_connect_to_missing_host_times_out(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        closed = []
        connection = net[0].tcp.connect(99, 80)
        connection.on_closed = closed.append
        net.run(200.0)
        assert closed == ["connect-timeout"]


class TestBulkTransfer:
    def test_fixed_transfer_delivers_exactly_once(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        receiver = BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=200_000)
        net.run(5.0)
        assert receiver.bytes == 200_000
        assert sender.finished
        assert receiver.peer_closed

    def test_fin_closes_sender_connection(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=10_000)
        net.run(5.0)
        assert sender.connection.state is TcpState.CLOSED

    def test_streaming_throughput_below_udp_bound_but_substantial(self):
        # The paper's Figure-2 observation: TCP pays for its ACK stream.
        net = build_network([0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        receiver = BulkTcpReceiver(net[1], port=80, warmup_s=0.5)
        BulkTcpSender(net[0], dst=2, dst_port=80)
        net.run(3.0)
        measured = receiver.throughput_bps(3.0)
        udp_bound = ThroughputModel().max_throughput_bps(512, Rate.MBPS_11)
        assert measured < udp_bound
        assert measured > 0.5 * udp_bound

    def test_delayed_ack_reduces_ack_traffic(self):
        def ack_count(delayed):
            net = build_network(
                [0, 10],
                fast_sigma_db=0.0,
                tcp_config=TcpConfig(delayed_ack=delayed),
            )
            receiver = BulkTcpReceiver(net[1], port=80)
            BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=100_000)
            net.run(5.0)
            assert receiver.bytes == 100_000
            return receiver.connections[0].acks_sent

        assert ack_count(delayed=True) < 0.7 * ack_count(delayed=False)

    def test_transfer_survives_a_lossy_channel(self):
        # Moderate shadowing at 60 m (2 Mbps range edge is ~92 m):
        # individual frames are lost, MAC retries plus TCP recovery must
        # still deliver the stream exactly.
        net = build_network(
            [0, 60], data_rate=Rate.MBPS_2, fast_sigma_db=4.0, seed=11
        )
        receiver = BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=100_000)
        net.run(60.0)
        assert receiver.bytes == 100_000
        assert sender.finished

    def test_retransmissions_happen_on_lossy_channel(self):
        # MAC retries are disabled so frame losses surface at TCP level.
        from repro.core.params import Dot11bConfig, MacParameters

        net = build_network(
            [0, 70],
            data_rate=Rate.MBPS_2,
            fast_sigma_db=4.0,
            seed=7,
            dot11=Dot11bConfig(
                mac=MacParameters(short_retry_limit=0, long_retry_limit=0)
            ),
        )
        receiver = BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(net[0], dst=2, dst_port=80, total_bytes=50_000)
        net.run(300.0)
        assert receiver.bytes == 50_000
        connection = sender.connection
        assert connection.segments_retransmitted + connection.timeouts > 0


class TestCongestionBehaviour:
    def test_cwnd_grows_from_slow_start(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(net[0], dst=2, dst_port=80)
        net.run(1.0)
        mss = sender.connection.config.mss_bytes
        assert sender.connection.congestion.cwnd_bytes > 4 * mss

    def test_two_tcp_flows_share_fairly(self):
        net = build_network([0, 10, 20], data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        r1 = BulkTcpReceiver(net[1], port=80, warmup_s=1.0)
        r2 = BulkTcpReceiver(net[1], port=81, warmup_s=1.0)
        BulkTcpSender(net[0], dst=2, dst_port=80)
        BulkTcpSender(net[2], dst=2, dst_port=81)
        net.run(5.0)
        t1 = r1.throughput_bps(5.0)
        t2 = r2.throughput_bps(5.0)
        assert t1 > 0 and t2 > 0
        assert 0.5 < t1 / t2 < 2.0
