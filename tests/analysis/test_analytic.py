"""Tests for the closed-form DCF model."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.analytic import (
    collision_overhead_us,
    contention_windows,
    jain_index,
    max_throughput_by_rate,
    predict_scenario,
    retry_limited_tau,
    saturation_throughput,
    solve_fixed_point,
)
from repro.core.params import ALL_RATES, Dot11bConfig, MacParameters, Rate
from repro.core.throughput_model import ThroughputModel
from repro.errors import ConfigurationError


class TestContentionWindows:
    def test_doubling_schedule_clamps_at_cw_max(self):
        assert contention_windows(32, 1024, 7) == (
            32, 64, 128, 256, 512, 1024, 1024, 1024,
        )

    def test_zero_retries_is_a_single_stage(self):
        assert contention_windows(32, 1024, 0) == (32,)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            contention_windows(0, 1024, 7)
        with pytest.raises(ConfigurationError):
            contention_windows(64, 32, 7)
        with pytest.raises(ConfigurationError):
            contention_windows(32, 1024, -1)


class TestTau:
    def test_no_collisions_is_the_textbook_value(self):
        # p = 0: only stage 0, tau = 2 / (W + 1).
        assert retry_limited_tau(0.0, 32, 1024, 7) == pytest.approx(2 / 33)

    def test_matches_bianchi_infinite_retry_limit(self):
        # Bianchi Eq. (7) with m backoff stages; a huge retry limit
        # must converge to it.
        p, w, m = 0.2, 32, 5
        bianchi = (2 * (1 - 2 * p)) / (
            (1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m)
        )
        ours = retry_limited_tau(p, w, w * 2**m, 400)
        assert ours == pytest.approx(bianchi, rel=1e-9)

    def test_tau_decreases_with_collision_probability(self):
        taus = [retry_limited_tau(p, 32, 1024, 7) for p in (0.0, 0.2, 0.5)]
        assert taus == sorted(taus, reverse=True)

    def test_invalid_p_rejected(self):
        with pytest.raises(ConfigurationError):
            retry_limited_tau(1.0, 32, 1024, 7)


class TestFixedPoint:
    def test_single_station_never_collides(self):
        tau, p = solve_fixed_point(1, 32, 1024, 7)
        assert p == 0.0
        assert tau == pytest.approx(2 / 33)

    def test_solution_is_consistent(self):
        tau, p = solve_fixed_point(5, 32, 1024, 7)
        assert p == pytest.approx(1 - (1 - tau) ** 4, abs=1e-9)

    @given(stations=st.integers(min_value=2, max_value=50))
    def test_collision_probability_grows_with_stations(self, stations):
        _, p_small = solve_fixed_point(stations, 32, 1024, 7)
        _, p_large = solve_fixed_point(stations + 1, 32, 1024, 7)
        assert 0.0 < p_small < p_large < 1.0

    def test_zero_stations_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_fixed_point(0, 32, 1024, 7)

    def test_tau_shrinks_with_population(self):
        taus = [solve_fixed_point(n, 32, 1024, 7)[0] for n in (2, 4, 8, 16)]
        assert taus == sorted(taus, reverse=True)

    @given(stations=st.integers(min_value=1, max_value=100))
    def test_probabilities_stay_in_range(self, stations):
        tau, p = solve_fixed_point(stations, 32, 1024, 7)
        assert 0.0 < tau < 1.0
        assert 0.0 <= p < 1.0


class TestSaturationThroughput:
    def test_single_station_equals_the_zero_contention_bound(self):
        # With n = 1 the Bianchi slot expectation collapses to exactly
        # the Eq. 1/2 overhead accounting (DIFS + frame + SIFS + ACK +
        # mean initial backoff), so the two models must agree.
        prediction = saturation_throughput(1, app_payload_bytes=1024)
        assert prediction.efficiency == pytest.approx(1.0)

    def test_single_station_matches_equation_1(self):
        # At n = 1 the model degenerates to the paper's Equation (1) at
        # every rate, not only at the default one.
        for rate in ALL_RATES:
            predicted = saturation_throughput(1, 512, rate).throughput_bps
            eq1 = ThroughputModel().max_throughput_bps(512, rate)
            assert predicted == pytest.approx(eq1, rel=0.001)

    def test_rises_then_declines(self):
        values = {
            n: saturation_throughput(n).throughput_bps for n in (1, 2, 4, 16)
        }
        assert values[2] > values[1]  # fewer idle slots
        assert values[16] < values[4]  # collisions start to bite

    def test_throughput_bounded_by_data_rate(self):
        for n in (1, 4, 32):
            prediction = saturation_throughput(n, 512, Rate.MBPS_11)
            assert 0 < prediction.throughput_bps < Rate.MBPS_11.bps

    def test_matches_the_simulator(self):
        """Bianchi's classic collision cost predicts a 4-station cell."""
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
        analytic = saturation_throughput(n, collision_model="difs").throughput_bps
        assert simulated == pytest.approx(analytic, rel=0.04)

    def test_throughput_degrades_with_contention(self):
        # Collisions erode throughput monotonically once more than one
        # station contends (n=2 can sit slightly *above* n=1, which
        # idles the full mean backoff unshared).
        points = [
            saturation_throughput(n, app_payload_bytes=1024).throughput_bps
            for n in (2, 5, 10, 20)
        ]
        assert points == sorted(points, reverse=True)

    def test_larger_cw_min_helps_under_heavy_contention(self):
        crowded = Dot11bConfig(mac=MacParameters(cw_min_slots=256))
        assert (
            saturation_throughput(20, config=crowded).throughput_bps
            > saturation_throughput(20).throughput_bps
        )

    def test_drop_probability_follows_the_retry_limit(self):
        eager = saturation_throughput(10, retry_limit=0)
        patient = saturation_throughput(10, retry_limit=7)
        assert eager.drop_probability == pytest.approx(
            eager.collision_probability
        )
        assert patient.drop_probability < eager.drop_probability

    def test_collision_overhead_models(self):
        config = Dot11bConfig()
        sim = collision_overhead_us(config, "sim")
        difs = collision_overhead_us(config, "difs")
        # Defaults: EIFS (364 us) dominates the ack-timeout + DIFS path.
        assert sim == pytest.approx(config.mac.eifs_us(config.plcp))
        assert difs == config.mac.difs_us
        with pytest.raises(ConfigurationError):
            collision_overhead_us(config, "nonsense")


class TestMaxThroughputByRate:
    def test_matches_the_table2_model(self):
        model = ThroughputModel()
        for entry in max_throughput_by_rate(512):
            assert entry.max_throughput_bps == model.max_throughput_bps(
                512, entry.data_rate
            )

    def test_efficiency_falls_as_the_phy_rate_rises(self):
        entries = max_throughput_by_rate(512)
        efficiencies = [entry.efficiency for entry in entries]
        assert efficiencies == sorted(efficiencies, reverse=True)
        assert entries[-1].data_rate is Rate.MBPS_11
        assert entries[-1].efficiency < 0.35  # the paper's ~3 of 11 Mbps

    def test_overhead_fraction_is_the_complement_of_payload_share(self):
        for entry in max_throughput_by_rate(1024):
            share = entry.payload_us / entry.occupancy.total_us
            assert entry.overhead_fraction == pytest.approx(1.0 - share)


class TestPredictScenario:
    def test_uses_the_spec_mac_overrides(self):
        from repro.experiments.mac_surface import saturation_spec
        from repro.scenario import MacParamsSpec

        default = predict_scenario(saturation_spec(5))
        wide = predict_scenario(
            saturation_spec(5, mac=MacParamsSpec(cw_min_slots=256))
        )
        assert wide.collision_probability < default.collision_probability

    def test_rejects_paced_flows(self):
        from repro.experiments.mac_surface import saturation_spec
        from repro.scenario import ScenarioSpec

        doc = saturation_spec(2).to_dict()
        doc["traffic"]["flows"][0]["rate_bps"] = 1e6
        with pytest.raises(ConfigurationError, match="saturated"):
            predict_scenario(ScenarioSpec.from_dict(doc))

    def test_rejects_empty_traffic(self):
        from repro.experiments.mac_surface import saturation_spec
        from repro.scenario import ScenarioSpec

        doc = saturation_spec(2).to_dict()
        doc["traffic"]["flows"] = []
        with pytest.raises(ConfigurationError, match="no flows"):
            predict_scenario(ScenarioSpec.from_dict(doc))


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_index([])
        with pytest.raises(ConfigurationError):
            jain_index([1.0, -1.0])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_always_in_the_unit_interval(self, values):
        index = jain_index(values)
        assert 1.0 / len(values) <= index <= 1.0 + 1e-9
