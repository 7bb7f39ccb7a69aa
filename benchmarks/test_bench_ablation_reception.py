"""Ablation: SINR-threshold vs BER-integration reception (decision 2).

Both reception models must agree on the gross geometry (lossless well
inside range, dead far outside); the BER model produces a steeper
transition because bit errors accumulate over the whole frame.
"""

from benchmarks.util import run_once, save_artifact
from repro.analysis.tables import render_table
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.core.params import Dot11bConfig, MacParameters, Rate
from repro.scenario import build_network
from repro.phy.reception import BerReception, SinrThresholdReception

DISTANCES_M = (10.0, 25.0, 31.0, 40.0, 60.0)
PROBES = 100


def _loss(reception, distance_m):
    net = build_network(
        [0.0, distance_m],
        data_rate=Rate.MBPS_11,
        dot11=Dot11bConfig(
            mac=MacParameters(short_retry_limit=0, long_retry_limit=0)
        ),
        reception=reception,
        seed=int(distance_m) + 11,
    )
    sink = UdpSink(net[1], port=5001)
    source = CbrSource(
        net[0], dst=2, dst_port=5001, payload_bytes=512, rate_bps=512 * 8 / 0.005
    )
    net.run(PROBES * 0.005)
    source.stop()
    net.sim.run()  # drain in-flight probes
    return max(0.0, 1.0 - sink.packets / max(source.packets_accepted, 1))


def _evaluate():
    rows = []
    for distance in DISTANCES_M:
        rows.append(
            (
                distance,
                _loss(SinrThresholdReception(), distance),
                _loss(BerReception(), distance),
            )
        )
    return rows


def test_bench_ablation_reception(benchmark):
    rows = run_once(benchmark, _evaluate)
    save_artifact(
        "ablation_reception",
        render_table(
            ["distance (m)", "SINR-threshold loss", "BER-integration loss"],
            rows,
            title="Ablation - reception model (11 Mbps, no retries)",
        ),
    )
    by_distance = {row[0]: row for row in rows}
    # Deep inside range both models are lossless.
    assert by_distance[10.0][1] == 0.0
    assert by_distance[10.0][2] == 0.0
    # The threshold model dies at its calibrated sensitivity edge; the
    # BER model degrades later and more gradually (no implementation
    # loss is modelled), which is the point of the ablation.
    assert by_distance[60.0][1] == 1.0
    assert by_distance[60.0][2] > 0.05
    assert 0.0 < by_distance[31.0][1] < 1.0
    assert by_distance[31.0][2] <= by_distance[60.0][2]
