"""Tests for the Bianchi saturation model."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bianchi import (
    saturation_throughput_bps,
    solve_fixed_point,
)
from repro.core.params import ALL_RATES, Rate
from repro.core.throughput_model import ThroughputModel
from repro.errors import ConfigurationError


class TestFixedPoint:
    def test_single_station_never_collides(self):
        tau, p = solve_fixed_point(1)
        assert p == 0.0
        # tau = 2 / (W + 1) at p = 0 with W = 32.
        assert tau == pytest.approx(2.0 / 33.0)

    def test_collision_probability_grows_with_population(self):
        ps = [solve_fixed_point(n)[1] for n in (2, 4, 8, 16)]
        assert ps == sorted(ps)

    def test_tau_shrinks_with_population(self):
        taus = [solve_fixed_point(n)[0] for n in (2, 4, 8, 16)]
        assert taus == sorted(taus, reverse=True)

    def test_fixed_point_is_consistent(self):
        for n in (2, 5, 10):
            tau, p = solve_fixed_point(n)
            assert p == pytest.approx(1.0 - (1.0 - tau) ** (n - 1), abs=1e-6)

    def test_invalid_population_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_fixed_point(0)

    @given(n=st.integers(min_value=1, max_value=100))
    def test_probabilities_stay_in_range(self, n):
        tau, p = solve_fixed_point(n)
        assert 0.0 < tau < 1.0
        assert 0.0 <= p < 1.0


class TestSaturationThroughput:
    def test_single_station_matches_equation_1(self):
        """Bianchi at n = 1 degenerates to the paper's Equation (1)."""
        for rate in ALL_RATES:
            bianchi = saturation_throughput_bps(1, 512, rate).throughput_bps
            eq1 = ThroughputModel().max_throughput_bps(512, rate)
            assert bianchi == pytest.approx(eq1, rel=0.001)

    def test_bianchi_shape_rises_then_declines(self):
        values = {
            n: saturation_throughput_bps(n).throughput_bps for n in (1, 2, 4, 16)
        }
        assert values[2] > values[1]  # fewer idle slots
        assert values[16] < values[4]  # collisions start to bite

    def test_throughput_bounded_by_data_rate(self):
        for n in (1, 4, 32):
            result = saturation_throughput_bps(n, 512, Rate.MBPS_11)
            assert 0 < result.throughput_bps < Rate.MBPS_11.bps

    def test_matches_the_simulator(self):
        """The independent analytic model validates the simulator."""
        from repro.apps.cbr import CbrSource
        from repro.apps.sink import UdpSink
        from repro.scenario import build_network

        n = 4
        positions = [0.0] + [2.0 + index for index in range(n)]
        net = build_network(positions, data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
        sinks = []
        for index in range(n):
            port = 5001 + index
            sinks.append(UdpSink(net[0], port=port, warmup_s=0.5))
            CbrSource(net[index + 1], dst=1, dst_port=port, payload_bytes=512)
        net.run(3.0)
        simulated = sum(sink.throughput_bps(3.0) for sink in sinks)
        analytic = saturation_throughput_bps(n).throughput_bps
        assert simulated == pytest.approx(analytic, rel=0.04)
