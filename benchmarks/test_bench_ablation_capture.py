"""Ablation: the capture effect under hidden-terminal collisions.

Two senders out of carrier-sense range of each other blast a middle
receiver; one sender is much closer.  With capture enabled the receiver
re-locks onto the stronger preamble and the near flow survives; without
it, overlapping frames destroy each other.
"""

from benchmarks.util import run_once, save_artifact
from repro.analysis.tables import render_table
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.core.params import Rate
from repro.scenario import build_network
from repro.phy.radio import RadioParameters

DURATION_S = 4.0


def _run(capture_enabled: bool):
    # Near sender 10 m left of the receiver, far sender 80 m right:
    # 90 m apart, barely inside each other's CS range, so overlaps are
    # frequent but not constant; the receiver sees a 24 dB power gap.
    radio = RadioParameters.calibrated(capture_enabled=capture_enabled)
    net = build_network(
        [0.0, 10.0, 90.0], data_rate=Rate.MBPS_2, radio=radio, seed=5
    )
    near_sink = UdpSink(net[1], port=5001, warmup_s=0.5)
    far_sink = UdpSink(net[1], port=5002, warmup_s=0.5)
    CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
    CbrSource(net[2], dst=2, dst_port=5002, payload_bytes=512)
    net.run(DURATION_S)
    return (
        near_sink.throughput_bps(DURATION_S) / 1e3,
        far_sink.throughput_bps(DURATION_S) / 1e3,
    )


def _evaluate():
    return {enabled: _run(enabled) for enabled in (False, True)}


def test_bench_ablation_capture(benchmark):
    results = run_once(benchmark, _evaluate)
    rows = [
        (
            "on" if enabled else "off",
            round(near, 1),
            round(far, 1),
        )
        for enabled, (near, far) in results.items()
    ]
    save_artifact(
        "ablation_capture",
        render_table(
            ["capture", "near flow (Kbps)", "far flow (Kbps)"],
            rows,
            title="Ablation - capture effect at a hidden-terminal receiver",
        ),
    )
    near_off, _ = results[False]
    near_on, _ = results[True]
    # Capture can only help the strong (near) flow.
    assert near_on >= near_off
