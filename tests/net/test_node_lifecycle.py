"""Node crash/reboot: MAC flush, timer cancellation, traffic recovery."""

import pytest

from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.core.params import Rate
from repro.errors import MacError
from repro.scenario import build_network


def busy_network(seed=1):
    """A saturated 0 -> 1 UDP flow, so the MAC always has work queued."""
    net = build_network(
        [0, 10], data_rate=Rate.MBPS_11, seed=seed, fast_sigma_db=0.0
    )
    sink = UdpSink(net[1], port=5001)
    CbrSource(
        net[0], dst=2, dst_port=5001, payload_bytes=1000, rate_bps=9e6
    )
    return net, sink


class TestCrash:
    def test_crash_flushes_mac_queue_and_cancels_timers(self):
        net, _ = busy_network()
        net.run(0.5)
        mac = net[0].mac
        assert mac.queue_length > 0  # saturated: backlog guaranteed
        net[0].crash()
        assert not net[0].alive
        assert mac.down
        assert mac.queue_length == 0
        assert not mac.busy
        assert mac.counters.flushed_frames > 0
        for timer in mac._timers():
            assert not timer.running

    def test_enqueue_refused_while_down(self):
        net, _ = busy_network()
        net.run(0.1)
        net[0].crash()
        drops_before = net[0].mac.counters.queue_drops
        assert net[0].mac.enqueue(b"x", dst=2, msdu_bytes=100) is False
        assert net[0].mac.counters.queue_drops == drops_before + 1

    def test_radio_deaf_and_mute_while_down(self):
        net, sink = busy_network()
        net.run(0.5)
        net[0].crash()
        assert not net[0].phy.powered
        with pytest.raises(MacError, match="powered off"):
            # The power check precedes any use of the plan, so a dummy
            # plan is enough to probe the guard.
            net[0].phy.transmit(None, None)
        # A frame already on the air at crash time may still complete;
        # let it land before taking the baseline.
        net.run(0.51)
        received_at_crash = sink.packets
        net.run(1.5)
        # The CBR source keeps offering; nothing leaves the dead station.
        assert sink.packets == received_at_crash

    def test_crash_is_idempotent(self):
        net, _ = busy_network()
        net.run(0.2)
        net[0].crash()
        flushed = net[0].mac.counters.flushed_frames
        net[0].crash()
        assert net[0].mac.counters.flushed_frames == flushed


class TestReboot:
    def test_traffic_resumes_after_reboot(self):
        net, sink = busy_network()
        net.run(0.5)
        net[0].crash()
        net.run(1.0)
        at_reboot = sink.packets
        net[0].reboot()
        assert net[0].alive
        assert not net[0].mac.down
        assert net[0].phy.powered
        net.run(1.5)
        assert sink.packets > at_reboot + 50

    def test_rebooted_mac_starts_from_clean_state(self):
        net, _ = busy_network()
        net.run(0.5)
        net[0].crash()
        net[0].reboot()
        mac = net[0].mac
        assert mac.queue_length == 0
        assert not mac.busy
        for timer in mac._timers():
            assert not timer.running
