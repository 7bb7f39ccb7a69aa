"""Tests for the on/off bursty source."""

import pytest

from repro.apps.onoff import OnOffSource
from repro.apps.sink import UdpSink
from repro.errors import ConfigurationError
from repro.scenario import build_network


class TestOnOffSource:
    def test_mean_rate_is_duty_cycled(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        OnOffSource(
            net[0],
            dst=2,
            dst_port=5001,
            payload_bytes=500,
            rate_bps=800_000,
            mean_on_s=0.2,
            mean_off_s=0.2,
        )
        net.run(20.0)
        # 50% duty cycle of 800 kbps: ~400 kbps +- burst variance.
        measured = sink.throughput_bps(20.0)
        assert measured == pytest.approx(400_000, rel=0.35)

    def test_alternates_phases(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        UdpSink(net[1], port=5001)
        source = OnOffSource(
            net[0], dst=2, dst_port=5001, mean_on_s=0.1, mean_off_s=0.1
        )
        net.run(5.0)
        assert source.on_periods > 5

    def test_off_periods_are_silent(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        sink = UdpSink(net[1], port=5001)
        source = OnOffSource(
            net[0],
            dst=2,
            dst_port=5001,
            rate_bps=1e6,
            mean_on_s=0.05,
            mean_off_s=10.0,  # long silences
        )
        net.run(5.0)
        # Bursts are rare: far fewer packets than a continuous source.
        continuous_estimate = 5.0 * 1e6 / (512 * 8)
        assert sink.packets < continuous_estimate / 5

    def test_stop(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        UdpSink(net[1], port=5001)
        source = OnOffSource(net[0], dst=2, dst_port=5001)
        net.sim.schedule_s(0.5, source.stop)
        net.run(3.0)
        count = source.packets_sent
        net.run(4.0)
        assert source.packets_sent == count

    def test_validation(self):
        net = build_network([0, 10], fast_sigma_db=0.0)
        with pytest.raises(ConfigurationError):
            OnOffSource(net[0], dst=2, dst_port=5001, payload_bytes=0)
        with pytest.raises(ConfigurationError):
            OnOffSource(net[0], dst=2, dst_port=5001, mean_on_s=0.0)
