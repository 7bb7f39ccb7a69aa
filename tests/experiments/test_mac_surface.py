"""Tests for the MAC parameter-response surface experiment."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.mac_surface import (
    SURFACE_AXES,
    format_mac_surface,
    mac_surface_metrics,
    ring_positions,
    run_mac_surface,
    saturation_spec,
    surface_sweeps,
)
from repro.parallel import SweepCache
from repro.scenario import ScenarioSpec, build, run_scenarios

#: Collapse every axis so the whole surface is one point per axis.
PIN_ALL = {
    "cw_min": 32,
    "cw_max": 1024,
    "retry": 7,
    "slot_us": 20.0,
    "sifs_us": 10.0,
    "queue": 50,
}


def test_ring_positions_are_equidistant_from_the_sink():
    positions = ring_positions(5)
    assert positions[0] == (0.0, 0.0)
    assert len(positions) == 6
    for x, y in positions[1:]:
        assert (x * x + y * y) ** 0.5 == pytest.approx(5.0)


def test_saturation_spec_round_trips_canonically():
    spec = saturation_spec(3, duration_s=0.5, seed=7)
    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec
    assert restored.canonical_json() == spec.canonical_json()
    assert len(spec.traffic.flows) == 3
    assert all(flow.rate_bps is None for flow in spec.traffic.flows)
    assert spec.observability.audit


def test_surface_rows_cover_every_axis_value():
    rows = surface_sweeps(stations=(2, 5), duration_s=0.5)
    per_n = sum(len(values) for _, _, values in SURFACE_AXES)
    assert len(rows) == 2 * per_n
    seen = {(n, label, value) for n, label, value, _ in rows}
    for label, _, values in SURFACE_AXES:
        for n in (2, 5):
            for value in values:
                assert (n, label, value) in seen


def test_pins_collapse_axes_and_reach_the_spec():
    rows = surface_sweeps(stations=(2,), duration_s=0.5, pins=PIN_ALL)
    assert len(rows) == len(SURFACE_AXES)
    for _, label, value, spec in rows:
        assert value == PIN_ALL[label]
    cw_row = next(spec for _, label, _, spec in rows if label == "cw_min")
    assert cw_row.stack.mac.cw_min_slots == 32


def test_unknown_pin_is_rejected_with_the_axis_menu():
    with pytest.raises(ExperimentError, match="cw_minn.*accepted"):
        surface_sweeps(pins={"cw_minn": 32})


def test_metrics_shape_and_fairness_bounds():
    spec = saturation_spec(2, duration_s=0.3, warmup_s=0.1)
    net = build(spec)
    net.run(spec.duration_s)
    total_bps, mean_delay_s, jain = mac_surface_metrics(net)
    assert total_bps > 1e6  # saturated 11 Mbps channel
    assert 0.0 < mean_delay_s < 1.0
    assert 0.5 <= jain <= 1.0


def test_surface_output_identical_serial_pooled_and_cached(tmp_path):
    """The acceptance matrix: serial == --jobs 2 == warm cache, bytewise."""
    kwargs = dict(
        stations=(2,), duration_s=0.3, seed=1, pins=PIN_ALL
    )
    cache = SweepCache(root=tmp_path / "cache")
    serial = format_mac_surface(run_mac_surface(**kwargs))
    pooled = format_mac_surface(run_mac_surface(**kwargs, jobs=2, cache=cache))
    warm = format_mac_surface(run_mac_surface(**kwargs, cache=cache))
    assert serial == pooled == warm
    assert cache.hits > 0


# ------------------------------------------- cross-backend determinism
#
# One small mac-surface point must produce bit-identical event streams
# on both medium modes: the spatially-indexed medium is an
# optimisation, not physics.

BACKENDS = ("dense", "spatial")


def _digest_spec(medium: str) -> ScenarioSpec:
    spec = saturation_spec(2, duration_s=0.3, warmup_s=0.1)
    doc = spec.to_dict()
    doc["topology"]["medium"] = medium
    doc["observability"]["trace_digest"] = True
    return ScenarioSpec.from_dict(doc)


def test_trace_digest_identical_across_media():
    digests = {}
    for medium in BACKENDS:
        [row] = run_scenarios(
            [_digest_spec(medium)],
            extract="repro.obs.export:trace_digest_row",
        )
        assert row["records"] > 0
        digests[medium] = row["trace_sha256"]
    assert len(set(digests.values())) == 1, (
        "backend matrix diverged: " + repr(digests)
    )
