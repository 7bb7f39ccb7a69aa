"""TCP behaviour across a node crash: RTO give-up or fresh-connection recovery."""

from repro.apps.bulk import BulkTcpReceiver, BulkTcpSender
from repro.scenario import build_network
from repro.faults import FaultSchedule, NodeCrash
from repro.transport.tcp.connection import TcpConfig


def tcp_link(seed=1, **tcp_kwargs):
    return build_network(
        [0, 10],
        seed=seed,
        fast_sigma_db=0.0,
        tcp_config=TcpConfig(**tcp_kwargs),
    )


class TestPeerStaysDown:
    def test_sender_gives_up_via_retransmission_limit(self):
        # Short RTO ceiling + few retries so the give-up lands inside
        # a few simulated seconds.
        net = tcp_link(max_retransmissions=4, max_rto_s=2.0)
        BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(net[0], dst=2, dst_port=80)
        reasons = []
        sender.connection.on_closed = reasons.append
        FaultSchedule(
            [NodeCrash(start_s=1.0, duration_s=None, node=1)]
        ).install(net)
        net.run(20.0)
        assert reasons == ["retransmission-limit"]
        from repro.transport.tcp.connection import TcpState

        assert sender.connection.state is TcpState.CLOSED

    def test_connect_to_dead_peer_times_out(self):
        net = tcp_link(connect_retries=2, max_rto_s=2.0)
        BulkTcpReceiver(net[1], port=80)
        net[1].crash()
        sender = BulkTcpSender(net[0], dst=2, dst_port=80)
        reasons = []
        sender.connection.on_closed = reasons.append
        net.run(20.0)
        assert reasons == ["connect-timeout"]


class TestSenderCrashAndReboot:
    def test_fresh_connection_recovers_after_reboot(self):
        net = tcp_link()
        receiver = BulkTcpReceiver(net[1], port=80)
        sender = BulkTcpSender(net[0], dst=2, dst_port=80)
        reasons = []
        sender.connection.on_closed = reasons.append

        def restart(node):
            BulkTcpSender(node, dst=2, dst_port=80)

        FaultSchedule(
            [NodeCrash(start_s=1.0, duration_s=1.0, node=0,
                       on_reboot=restart)]
        ).install(net)
        bytes_before = []
        net.sim.schedule_s(2.0, lambda: bytes_before.append(receiver.bytes))
        net.run(4.0)
        # Crash aborts the original connection without a FIN...
        assert reasons == ["aborted"]
        # ...the receiver accepts a second connection after reboot...
        assert len(receiver.connections) == 2
        # ...and goodput resumes on it.
        assert receiver.bytes > bytes_before[0] + 100_000

    def test_crash_clears_the_senders_connection_table(self):
        net = tcp_link()
        BulkTcpReceiver(net[1], port=80)
        BulkTcpSender(net[0], dst=2, dst_port=80)
        net.run(1.0)
        assert net[0].tcp.connection_count == 1
        net[0].crash()
        assert net[0].tcp.connection_count == 0

    def test_receiver_survives_late_segments_from_forgotten_connection(self):
        # After the sender reboots, stray segments for the pre-crash
        # connection must not crash the receiver's stack (they are
        # silently dropped: no state, no RST).
        net = tcp_link()
        receiver = BulkTcpReceiver(net[1], port=80)
        BulkTcpSender(net[0], dst=2, dst_port=80)

        def restart(node):
            BulkTcpSender(node, dst=2, dst_port=80)

        FaultSchedule(
            [
                NodeCrash(start_s=1.0, duration_s=0.5, node=0,
                          on_reboot=restart),
                # The *receiver* also blips, so its half-open connection
                # state is exercised from both sides.
                NodeCrash(start_s=3.0, duration_s=0.5, node=1),
            ]
        ).install(net)
        net.run(6.0)
        assert receiver.bytes > 0
