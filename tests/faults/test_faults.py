"""Fault models + schedule: windows, validation, effect on delivery."""

import pytest

from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.core.params import Rate
from repro.errors import FaultError
from repro.scenario import build_network
from repro.faults import (
    ClockJitter,
    FaultSchedule,
    InterferenceBurst,
    LinkFade,
    NodeCrash,
    link_blackout,
)


def quiet_link(seed=1):
    """Two stations 10 m apart, fade-free: every frame normally delivers."""
    return build_network(
        [0, 10], data_rate=Rate.MBPS_11, seed=seed, fast_sigma_db=0.0
    )


def offered_flow(net, rate_bps=400_000):
    sink = UdpSink(net[1], port=5001)
    CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512,
              rate_bps=rate_bps)
    return sink


def packets_in_window(sink, start_s, end_s):
    lo = round(start_s * 1e9)
    hi = round(end_s * 1e9)
    return sum(1 for t in sink.rx_times_ns if lo <= t < hi)


class TestLinkFade:
    def test_blackout_kills_delivery_then_restores_it(self):
        net = quiet_link()
        sink = offered_flow(net)
        FaultSchedule([link_blackout(1.0, 1.0, node_a=0, node_b=1)]).install(net)
        net.run(3.0)
        # Leave guard bands around the edges: frames queued at the MAC
        # when the fade lifts drain late, and a frame in flight at 1.0s
        # is lost but was sent before.
        assert packets_in_window(sink, 0.1, 0.9) > 50
        assert packets_in_window(sink, 1.1, 1.9) == 0
        assert packets_in_window(sink, 2.1, 2.9) > 50

    def test_mild_fade_is_lossy_not_dead(self):
        # The calibrated 10 m / 11 Mbps link has ~17 dB of margin; a
        # 16 dB fade plus per-frame fading puts it right at the edge:
        # the MAC works hard (retries) but traffic still gets through.
        net = build_network(
            [0, 10], data_rate=Rate.MBPS_11, seed=3, fast_sigma_db=6.0
        )
        sink = offered_flow(net)
        FaultSchedule(
            [LinkFade(start_s=0.0, duration_s=None, extra_loss_db=16.0)]
        ).install(net)
        net.run(1.0)
        assert sink.packets > 50
        assert net[0].mac.counters.retries > 20

    def test_unidirectional_fade_leaves_reverse_path_alive(self):
        net = quiet_link()
        forward = offered_flow(net)  # node 0 -> node 1
        reverse = UdpSink(net[0], port=5002)
        CbrSource(net[1], dst=1, dst_port=5002, payload_bytes=512,
                  rate_bps=400_000)
        FaultSchedule(
            [
                LinkFade(
                    start_s=0.0,
                    duration_s=None,
                    node_a=0,
                    node_b=1,
                    bidirectional=False,
                )
            ]
        ).install(net)
        net.run(1.0)
        assert forward.packets == 0
        # Reverse-path data still arrives, but its ACKs (node 0 ->
        # node 1) are swallowed by the one-way fade, so node 1 retries
        # every frame to the limit — the classic asymmetric link the
        # paper measured.  Duplicates are filtered, delivery is slow
        # but alive.
        assert reverse.packets > 10
        assert net[1].mac.counters.retries > 50

    def test_same_node_pair_rejected(self):
        with pytest.raises(FaultError, match="distinct"):
            LinkFade(start_s=0.0, duration_s=1.0, node_a=1, node_b=1)

    def test_node_index_validated_against_network(self):
        net = quiet_link()
        schedule = FaultSchedule([link_blackout(1.0, 1.0, node_a=0, node_b=7)])
        with pytest.raises(FaultError, match="7"):
            schedule.install(net)


class TestInterferenceBurst:
    def test_strong_burst_blocks_reception(self):
        net = quiet_link()
        sink = offered_flow(net)
        FaultSchedule(
            [
                InterferenceBurst(
                    start_s=1.0, duration_s=1.0, nodes=(1,),
                    noise_rise_db=80.0,
                )
            ]
        ).install(net)
        net.run(3.0)
        assert packets_in_window(sink, 0.1, 0.9) > 50
        assert packets_in_window(sink, 1.1, 1.9) == 0
        assert packets_in_window(sink, 2.1, 2.9) > 50

    def test_noise_rise_reverts_cleanly(self):
        net = quiet_link()
        FaultSchedule(
            [InterferenceBurst(start_s=0.5, duration_s=0.5, nodes=(1,))]
        ).install(net)
        net.run(0.7)
        assert net[1].phy.noise_rise_db == 30.0
        net.run(1.2)
        assert net[1].phy.noise_rise_db == 0.0

    def test_overlapping_bursts_on_shared_node_rejected(self):
        net = quiet_link()
        schedule = FaultSchedule(
            [
                InterferenceBurst(start_s=0.0, duration_s=2.0, nodes=(0,)),
                InterferenceBurst(start_s=1.0, duration_s=2.0, nodes=(0, 1)),
            ]
        )
        with pytest.raises(FaultError, match="overlapping"):
            schedule.install(net)

    def test_disjoint_bursts_allowed(self):
        net = quiet_link()
        FaultSchedule(
            [
                InterferenceBurst(start_s=0.0, duration_s=1.0, nodes=(0,)),
                InterferenceBurst(start_s=1.5, duration_s=1.0, nodes=(0,)),
                InterferenceBurst(start_s=0.0, duration_s=3.0, nodes=(1,)),
            ]
        ).install(net)


class TestClockJitter:
    def test_jitter_changes_the_trace_deterministically(self):
        def one_run(sigma_ns):
            net = quiet_link(seed=5)
            sink = offered_flow(net)
            if sigma_ns:
                FaultSchedule(
                    [
                        ClockJitter(
                            start_s=0.0, duration_s=None, node=0,
                            sigma_ns=sigma_ns,
                        )
                    ]
                ).install(net)
            net.run(1.0)
            return list(sink.rx_times_ns)

        clean = one_run(0)
        jittered = one_run(5000.0)
        assert jittered == one_run(5000.0)  # seeded: reproducible
        assert jittered != clean  # but the timers really moved
        assert len(jittered) == pytest.approx(len(clean), rel=0.1)

    def test_sigma_validated(self):
        with pytest.raises(FaultError, match="sigma"):
            ClockJitter(start_s=0.0, duration_s=1.0, sigma_ns=0.0)


class TestFaultWindows:
    def test_negative_start_rejected(self):
        with pytest.raises(FaultError, match="start"):
            NodeCrash(start_s=-1.0, duration_s=1.0)

    def test_zero_or_infinite_duration_rejected(self):
        with pytest.raises(FaultError, match="duration"):
            NodeCrash(start_s=0.0, duration_s=0.0)
        with pytest.raises(FaultError, match="duration"):
            NodeCrash(start_s=0.0, duration_s=float("inf"))

    def test_permanent_fault_has_no_end(self):
        fault = NodeCrash(start_s=2.0, duration_s=None)
        assert fault.end_s is None
        assert "permanent" in fault.describe()

    def test_describe_orders_by_start_time(self):
        schedule = FaultSchedule(
            [
                NodeCrash(start_s=5.0, duration_s=1.0),
                link_blackout(1.0, 1.0, node_a=0, node_b=1),
            ]
        )
        lines = schedule.describe().splitlines()
        assert lines[0].startswith("linkfade")
        assert lines[1].startswith("nodecrash")


class TestSchedule:
    def test_add_after_install_rejected(self):
        net = quiet_link()
        schedule = FaultSchedule([NodeCrash(start_s=1.0, duration_s=1.0)])
        schedule.install(net)
        with pytest.raises(FaultError, match="installed"):
            schedule.add(NodeCrash(start_s=2.0, duration_s=1.0))

    def test_double_install_rejected(self):
        schedule = FaultSchedule([NodeCrash(start_s=1.0, duration_s=1.0)])
        schedule.install(quiet_link())
        with pytest.raises(FaultError, match="already installed"):
            schedule.install(quiet_link())

    def test_non_fault_rejected(self):
        with pytest.raises(FaultError, match="expected a Fault"):
            FaultSchedule(["not a fault"])

    def test_start_in_the_past_rejected(self):
        net = quiet_link()
        net.run(2.0)
        schedule = FaultSchedule([NodeCrash(start_s=1.0, duration_s=1.0)])
        with pytest.raises(FaultError, match="before the current"):
            schedule.install(net)

    def test_transitions_are_traced(self):
        net = quiet_link()
        events = []
        net.tracer.subscribe(lambda r: events.append((r.event, r.fields)),
                             prefix="fault")
        FaultSchedule([link_blackout(0.5, 1.0, node_a=0, node_b=1)]).install(net)
        net.run(2.0)
        assert events == [
            ("apply", {"kind": "linkfade"}),
            ("revert", {"kind": "linkfade"}),
        ]

    def test_cancel_stops_future_transitions(self):
        net = quiet_link()
        sink = offered_flow(net)
        schedule = FaultSchedule(
            [link_blackout(1.0, 1.0, node_a=0, node_b=1)]
        )
        schedule.install(net)
        schedule.cancel()
        net.run(2.0)
        # The blackout never applied: delivery continues throughout.
        assert packets_in_window(sink, 1.1, 1.9) > 50
