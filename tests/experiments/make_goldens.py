"""Regenerate ``goldens.json`` for the spec-refactor identity tests.

The stored goldens were produced by the *pre-refactor* experiment code
(hand-wired ``build_network`` + app plumbing).  The spec-layer tests in
``test_spec_goldens.py`` rebuild the same scenarios from declarative
:class:`~repro.scenario.ScenarioSpec` objects and assert the rendered
outputs, metrics and trace digests are bit-identical — the proof that
the refactor changed plumbing, not physics.

Run from the repo root::

    PYTHONPATH=src python tests/experiments/make_goldens.py

Only regenerate after an *intentional* simulation-semantics change, and
say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: (experiment name, kwargs for the registry runner) — small but
#: non-trivial parameters so the whole file regenerates in minutes.
EXPERIMENT_CASES: list[tuple[str, dict]] = [
    ("table2", {}),
    ("figure2", {"duration_s": 0.6, "seed": 2}),
    ("figure3", {"probes": 30, "seed": 1}),
    ("figure4", {"probes": 30, "seed": 1}),
    ("table3", {"probes": 30, "seed": 1}),
    ("figure7", {"duration_s": 1.0, "seed": 1}),
    ("figure9", {"duration_s": 1.0, "seed": 1}),
    ("figure11", {"duration_s": 1.0, "seed": 1}),
    ("figure12", {"duration_s": 1.0, "seed": 1}),
    ("figure1", {}),
    ("scenarios", {}),
    ("arf", {"duration_s": 0.5, "seed": 1}),
    ("delay", {"duration_s": 2.0, "seed": 1}),
    ("multihop", {"duration_s": 1.0, "seed": 1}),
    ("density", {"duration_s": 1.0, "seed": 1}),
    ("fault-blackout", {"duration_s": 15.0, "seed": 1}),
    ("fault-crash", {"duration_s": 15.0, "seed": 1}),
    ("mac-surface", {"duration_s": 1.0, "seed": 1}),
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(tracer) -> str:
    """Order-independent fingerprint of every trace counter."""
    return sha(json.dumps(tracer.counters(), sort_keys=True))


def experiment_outputs() -> dict:
    from repro.experiments.registry import EXPERIMENTS

    outputs = {}
    for name, kwargs in EXPERIMENT_CASES:
        text = EXPERIMENTS[name].run(**kwargs)
        outputs[name] = {"kwargs": kwargs, "sha256": sha(text)}
        print(f"  {name}: {outputs[name]['sha256'][:16]}")
    return outputs


def scenario_digests() -> dict:
    """Event-level digests of hand-wired scenarios the spec layer must hit."""
    from repro.apps.bulk import BulkTcpReceiver, BulkTcpSender
    from repro.apps.cbr import CbrSource
    from repro.apps.sink import UdpSink
    from repro.channel.mobility import walk_away
    from repro.channel.propagation import TwoRayGroundPathLoss
    from repro.core.params import Dot11bConfig, MacParameters, Rate
    from repro.scenario import build_network
    from repro.faults import FaultSchedule, NodeCrash, link_blackout
    from repro.phy.radio import RadioParameters

    digests = {}

    # two-node-udp: saturated CBR, clean channel (the figure2 shape).
    net = build_network([0, 10], data_rate=Rate.MBPS_11, seed=3, fast_sigma_db=0.0)
    sink = UdpSink(net[1], port=5001, warmup_s=0.1)
    CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
    net.run(0.5)
    digests["two-node-udp"] = {
        "trace": trace_digest(net.tracer),
        "metric": sink.throughput_bps(0.5),
    }

    # two-node-tcp: bulk transfer with RTS/CTS.
    net = build_network(
        [0, 10], data_rate=Rate.MBPS_2, rts_enabled=True, seed=4, fast_sigma_db=0.0
    )
    receiver = BulkTcpReceiver(net[1], port=5001, warmup_s=0.1)
    BulkTcpSender(net[0], dst=2, dst_port=5001)
    net.run(0.5)
    digests["two-node-tcp"] = {
        "trace": trace_digest(net.tracer),
        "metric": receiver.throughput_bps(0.5),
    }

    # loss-probe: the ranges methodology (no retries, paced probes, drain).
    net = build_network(
        [0.0, 60.0],
        data_rate=Rate.MBPS_11,
        seed=61,
        dot11=Dot11bConfig(mac=MacParameters(short_retry_limit=0, long_retry_limit=0)),
    )
    sink = UdpSink(net[1], port=5001)
    source = CbrSource(
        net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=512 * 8 / 0.005
    )
    net.run(60 * 0.005)
    source.stop()
    net.sim.run()
    digests["loss-probe"] = {
        "trace": trace_digest(net.tracer),
        "metric": 1.0 - sink.packets / source.packets_accepted,
    }

    # four-node-udp: two concurrent sessions, asymmetric placement.
    from repro.channel.placement import figure6_placement

    positions = [x for x, _ in figure6_placement().positions]
    net = build_network(positions, data_rate=Rate.MBPS_11, seed=1)
    meters = []
    for index, (tx, rx) in enumerate(((0, 1), (2, 3))):
        port = 5001 + index
        meter = UdpSink(net[rx], port=port, warmup_s=0.2)
        CbrSource(net[tx], dst=net[rx].address, dst_port=port, payload_bytes=512)
        meters.append(meter)
    net.run(1.0)
    digests["four-node-udp"] = {
        "trace": trace_digest(net.tracer),
        "metric": [meter.throughput_bps(1.0) for meter in meters],
    }

    # blackout: CBR through a mid-run link outage.
    net = build_network([0, 10], data_rate=Rate.MBPS_11, seed=1, fast_sigma_db=0.0)
    sink = UdpSink(net[1], port=5001)
    CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=1.5e6)
    FaultSchedule([link_blackout(2.0, 2.0, node_a=0, node_b=1)]).install(net)
    net.run(6.0)
    digests["blackout"] = {
        "trace": trace_digest(net.tracer),
        "metric": sink.packets,
    }

    # crash-reboot: TCP sender crashes, reboots, restarts the transfer.
    net = build_network([0, 10], seed=1, fast_sigma_db=0.0)
    receiver = BulkTcpReceiver(net[1], port=5001)
    BulkTcpSender(net[0], dst=2, dst_port=5001)

    def restart(node):
        BulkTcpSender(node, dst=2, dst_port=5001)

    FaultSchedule(
        [NodeCrash(start_s=2.0, duration_s=2.0, node=0, on_reboot=restart)]
    ).install(net)
    net.run(6.0)
    digests["crash-reboot"] = {
        "trace": trace_digest(net.tracer),
        "metric": receiver.bytes,
    }

    # walk-away: receiver walks out of range (the mobility shape).
    net = build_network(
        [0.0, 5.0],
        data_rate=Rate.MBPS_11,
        seed=1,
        radio=RadioParameters.ns2_default(),
        propagation=TwoRayGroundPathLoss(),
    )
    sink = UdpSink(net[1], port=5001)
    CbrSource(
        net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=512 * 8 / 0.02
    )
    walk_away(net.sim, net[1].phy, 10.0)
    net.run(5.0)
    digests["walk-away"] = {
        "trace": trace_digest(net.tracer),
        "metric": len(sink.rx_times_ns),
    }

    for name, entry in digests.items():
        print(f"  {name}: {entry['trace'][:16]}")
    return digests


def trace_spec_cases() -> dict:
    """Name -> :class:`ScenarioSpec` with the streaming digest enabled.

    These pin the *event-level JSONL stream* (every trace record, in
    order, canonically encoded) rather than the counter fingerprint the
    scenario digests use — a reordered event is invisible to counters
    but changes this digest.
    """
    from repro.experiments.four_nodes import ASYMMETRIC_SESSIONS, panel_spec
    from repro.scenario import ScenarioSpec

    specs = {}
    for name, transport in (("figure7-udp", "udp"), ("figure7-tcp", "tcp")):
        spec = panel_spec(
            "figure6", 11.0, transport, False, ASYMMETRIC_SESSIONS,
            duration_s=1.0, seed=1,
        )
        specs[name] = ScenarioSpec.from_dict(
            {**spec.to_dict(), "observability": {"trace_digest": True}}
        )
    return specs


def trace_stream_digests() -> dict:
    from repro.scenario import run_scenarios

    digests = {}
    for name, spec in trace_spec_cases().items():
        [row] = run_scenarios(
            [spec], extract="repro.obs.export:trace_digest_row"
        )
        digests[name] = row
        print(f"  {name}: {row['trace_sha256'][:16]} ({row['records']} records)")
    return digests


def main() -> None:
    print("experiment outputs:")
    outputs = experiment_outputs()
    print("scenario digests:")
    digests = scenario_digests()
    print("trace stream digests:")
    traces = trace_stream_digests()
    GOLDENS_PATH.write_text(
        json.dumps(
            {"experiments": outputs, "scenarios": digests, "traces": traces},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDENS_PATH}")


if __name__ == "__main__":
    main()
