"""Tests for rate control (fixed and ARF)."""

import pytest

from repro.core.params import Rate
from repro.errors import ConfigurationError
from repro.mac.ratecontrol import ArfConfig, ArfRateController, FixedRate


class TestFixedRate:
    def test_always_the_same_rate(self):
        controller = FixedRate(Rate.MBPS_5_5)
        assert controller.data_rate(1) is Rate.MBPS_5_5
        controller.on_failure(1)
        controller.on_success(1)
        assert controller.data_rate(1) is Rate.MBPS_5_5


class TestArfUnit:
    def test_starts_at_initial_rate(self):
        arf = ArfRateController(ArfConfig(initial_rate=Rate.MBPS_2))
        assert arf.data_rate(7) is Rate.MBPS_2

    def test_steps_up_after_success_run(self):
        arf = ArfRateController(ArfConfig(success_threshold=3))
        for _ in range(3):
            arf.on_success(7)
        assert arf.data_rate(7) is Rate.MBPS_5_5
        assert arf.upgrades == 1

    def test_steps_down_after_failure_run(self):
        arf = ArfRateController(ArfConfig(failure_threshold=2))
        arf.on_failure(7)
        assert arf.data_rate(7) is Rate.MBPS_2  # one failure: hold
        arf.on_failure(7)
        assert arf.data_rate(7) is Rate.MBPS_1
        assert arf.downgrades == 1

    def test_probation_drops_back_on_first_failure_after_upgrade(self):
        arf = ArfRateController(ArfConfig(success_threshold=2))
        arf.on_success(7)
        arf.on_success(7)
        assert arf.data_rate(7) is Rate.MBPS_5_5
        arf.on_failure(7)  # single failure during probation
        assert arf.data_rate(7) is Rate.MBPS_2

    def test_success_clears_probation(self):
        arf = ArfRateController(ArfConfig(success_threshold=2, failure_threshold=2))
        arf.on_success(7)
        arf.on_success(7)
        arf.on_success(7)  # settles at 5.5 Mbps
        arf.on_failure(7)  # single failure: no longer probation, hold
        assert arf.data_rate(7) is Rate.MBPS_5_5

    def test_clamped_at_ladder_ends(self):
        arf = ArfRateController(ArfConfig(success_threshold=1, failure_threshold=1))
        for _ in range(10):
            arf.on_success(7)
        assert arf.data_rate(7) is Rate.MBPS_11
        for _ in range(10):
            arf.on_failure(7)
        assert arf.data_rate(7) is Rate.MBPS_1
        arf.on_failure(7)  # at the floor: stays
        assert arf.data_rate(7) is Rate.MBPS_1

    def test_per_destination_state(self):
        arf = ArfRateController(ArfConfig(success_threshold=1))
        arf.on_success(1)
        assert arf.data_rate(1) is Rate.MBPS_5_5
        assert arf.data_rate(2) is Rate.MBPS_2

    def test_failure_resets_success_run(self):
        arf = ArfRateController(ArfConfig(success_threshold=3, failure_threshold=99))
        arf.on_success(7)
        arf.on_success(7)
        arf.on_failure(7)
        arf.on_success(7)
        arf.on_success(7)
        assert arf.data_rate(7) is Rate.MBPS_2  # run was broken

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            ArfConfig(success_threshold=0)
        with pytest.raises(ConfigurationError):
            ArfConfig(failure_threshold=0)

    def test_success_run_at_the_ceiling_never_overshoots(self):
        arf = ArfRateController(ArfConfig(success_threshold=1))
        for _ in range(20):
            arf.on_success(7)
        assert arf.data_rate(7) is Rate.MBPS_11
        assert arf.upgrades == 2  # 2 -> 5.5 -> 11 only

    def test_failure_at_the_floor_resets_the_failure_run(self):
        # Dropping is impossible at index 0, but the counters must still
        # clear so the next window starts fresh.
        arf = ArfRateController(
            ArfConfig(initial_rate=Rate.MBPS_1, failure_threshold=2)
        )
        for _ in range(4):
            arf.on_failure(7)
        assert arf.data_rate(7) is Rate.MBPS_1
        assert arf.downgrades == 0
        # Two successes then a failure: the run restarted from zero.
        arf.on_success(7)
        arf.on_failure(7)
        assert arf.data_rate(7) is Rate.MBPS_1


class TestArfIntegration:
    def test_arf_climbs_to_11_mbps_on_a_clean_short_link(self):
        from repro.apps.cbr import CbrSource
        from repro.apps.sink import UdpSink
        from repro.scenario import build_network
        from repro.mac.ratecontrol import ArfConfig

        net = build_network(
            [0, 10], data_rate=Rate.MBPS_11, fast_sigma_db=0.0, arf=ArfConfig()
        )
        sink = UdpSink(net[1], port=5001, warmup_s=1.0)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
        net.run(2.0)
        assert net[0].rate_controller.data_rate(2) is Rate.MBPS_11
        # Post-climb throughput approaches the 11 Mbps bound.
        assert sink.throughput_bps(2.0) > 2.5e6

    def test_arf_settles_low_on_a_long_link(self):
        from repro.apps.cbr import CbrSource
        from repro.apps.sink import UdpSink
        from repro.scenario import build_network
        from repro.mac.ratecontrol import ArfConfig

        # 100 m: only 1 Mbps (113 m) survives; 2 Mbps (94 m) fails.
        net = build_network(
            [0, 100], data_rate=Rate.MBPS_11, fast_sigma_db=0.0, arf=ArfConfig()
        )
        sink = UdpSink(net[1], port=5001, warmup_s=1.0)
        CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
        net.run(3.0)
        assert net[0].rate_controller.data_rate(2) in (Rate.MBPS_1, Rate.MBPS_2)
        assert sink.packets > 0
