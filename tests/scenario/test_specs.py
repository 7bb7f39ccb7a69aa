"""Spec validation, serialization and override semantics."""

from __future__ import annotations

import json

import pytest

from repro.channel.weather import DayConditions
from repro.errors import ConfigurationError
from repro.scenario import (
    SPEC_VERSION,
    FaultSpec,
    FlowSpec,
    MobilitySpec,
    ScenarioSpec,
    StackSpec,
    SweepAxis,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
    WeatherSpec,
    apply_overrides,
)


def _base_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        topology=TopologySpec.line(0, 10),
        traffic=TrafficSpec(
            flows=(FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=512),)
        ),
        seed=1,
        duration_s=2.0,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


# ------------------------------------------------------------ validation


def test_unknown_flow_kind_rejected():
    with pytest.raises(ConfigurationError, match="kind"):
        FlowSpec(kind="carrier-pigeon", src=0, dst=1)


def test_onoff_needs_explicit_rate():
    with pytest.raises(ConfigurationError, match="rate_bps"):
        FlowSpec(kind="onoff", src=0, dst=1)


def test_flow_station_indices_must_exist():
    with pytest.raises(ConfigurationError, match="station"):
        _base_spec(
            traffic=TrafficSpec(flows=(FlowSpec(kind="cbr", src=0, dst=7),))
        )


def test_fault_station_indices_must_exist():
    with pytest.raises(ConfigurationError, match="station"):
        _base_spec(
            faults=(
                FaultSpec(kind="node-crash", start_s=1.0, duration_s=0.5, node=5),
            )
        )


def test_restart_flows_must_reference_flows():
    with pytest.raises(ConfigurationError, match="restarts flow"):
        _base_spec(
            faults=(
                FaultSpec(
                    kind="node-crash",
                    start_s=1.0,
                    duration_s=0.5,
                    node=0,
                    restart_flows=(3,),
                ),
            )
        )


def test_warmup_beyond_duration_rejected():
    with pytest.raises(ConfigurationError, match="warmup_s"):
        _base_spec(warmup_s=3.0)
    # Equal is allowed (a zero-length measurement window is legal).
    assert _base_spec(warmup_s=2.0).warmup_s == 2.0


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_durations_rejected(duration):
    with pytest.raises(ConfigurationError):
        _base_spec(duration_s=duration)


def test_mobility_node_must_exist():
    with pytest.raises(ConfigurationError, match="mobility"):
        TopologySpec.line(0, 10, mobility=(MobilitySpec(node=9, speed_m_s=1.0),))


def test_unknown_propagation_preset_rejected():
    with pytest.raises(ConfigurationError, match="propagation"):
        TopologySpec.line(0, 10, propagation="string-and-cans")


# --------------------------------------------------------- serialization


def test_round_trip_preserves_equality_and_canonical_form():
    spec = _base_spec(
        topology=TopologySpec.line(
            0,
            40,
            weather=WeatherSpec.from_conditions(DayConditions.bad_day()),
            mobility=(MobilitySpec(node=1, speed_m_s=2.0),),
        ),
        stack=StackSpec(data_rate_mbps=5.5, rts_enabled=True),
        faults=(FaultSpec(kind="link-fade", start_s=0.5, extra_loss_db=20.0),),
    )
    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec
    assert restored.canonical_json() == spec.canonical_json()


def test_to_dict_is_versioned_and_json_clean():
    doc = _base_spec().to_dict()
    assert doc["version"] == SPEC_VERSION
    json.dumps(doc)  # must be pure JSON primitives


def test_from_dict_rejects_unknown_keys():
    doc = _base_spec().to_dict()
    doc["stack"]["qos_enabled"] = True
    with pytest.raises(ConfigurationError, match="qos_enabled"):
        ScenarioSpec.from_dict(doc)


def test_from_dict_rejects_future_version():
    doc = _base_spec().to_dict()
    doc["version"] = SPEC_VERSION + 1
    with pytest.raises(ConfigurationError, match="version"):
        ScenarioSpec.from_dict(doc)


def test_canonical_json_is_key_order_independent():
    spec = _base_spec()
    doc = spec.to_dict()
    shuffled = json.loads(
        json.dumps(doc, sort_keys=True)[::-1][::-1]  # same content
    )
    assert ScenarioSpec.from_dict(shuffled).canonical_json() == spec.canonical_json()


# -------------------------------------------------------------- overrides


def test_apply_overrides_sets_nested_keys():
    spec = _base_spec()
    updated = apply_overrides(
        spec,
        {
            "seed": 9,
            "stack.rts_enabled": True,
            "traffic.flows.0.payload_bytes": 1024,
        },
    )
    assert updated.seed == 9
    assert updated.stack.rts_enabled is True
    assert updated.traffic.flows[0].payload_bytes == 1024
    # Original untouched (specs are frozen values).
    assert spec.seed == 1


def test_apply_overrides_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="stack.turbo"):
        apply_overrides(_base_spec(), {"stack.turbo": True})


def test_apply_overrides_rejects_bad_list_index():
    with pytest.raises(ConfigurationError):
        apply_overrides(_base_spec(), {"traffic.flows.5.payload_bytes": 64})


def test_apply_overrides_revalidates():
    with pytest.raises(ConfigurationError):
        apply_overrides(_base_spec(), {"duration_s": -1.0})


# ------------------------------------------------------------------ sweep


def test_sweep_expand_orders_first_axis_slowest():
    sweep = SweepSpec(
        base=_base_spec(),
        axes=(
            SweepAxis(key="seed", values=(1, 2)),
            SweepAxis(key="stack.rts_enabled", values=(False, True)),
        ),
    )
    expanded = sweep.expand()
    assert [(s.seed, s.stack.rts_enabled) for s in expanded] == [
        (1, False),
        (1, True),
        (2, False),
        (2, True),
    ]


def test_sweep_round_trips():
    sweep = SweepSpec(
        base=_base_spec(), axes=(SweepAxis(key="seed", values=(1, 2, 3)),)
    )
    restored = SweepSpec.from_dict(sweep.to_dict())
    assert [s.canonical_json() for s in restored.expand()] == [
        s.canonical_json() for s in sweep.expand()
    ]


def test_stack_kernel_knob_round_trips():
    spec = ScenarioSpec(
        topology=TopologySpec(positions_m=((0.0, 0.0), (10.0, 0.0))),
        stack=StackSpec(kernel="python"),
    )
    assert spec.stack.kernel == "python"
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone.stack.kernel == "python"
    assert clone == spec
    assert StackSpec().kernel is None


def test_stack_kernel_knob_rejects_unknown_name():
    with pytest.raises(ConfigurationError, match="kernel"):
        StackSpec(kernel="fortran")
