"""Extension bench: the optional short PLCP preamble.

The paper assumes the long preamble (192 us).  802.11b's optional short
format halves the PLCP to 96 us; at 11 Mbps, where the PLCP dominates
the frame time, that is worth several hundred kbps of throughput —
quantified here both analytically and in simulation.
"""

from benchmarks.util import run_once, save_artifact
from repro.analysis.tables import render_table
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.core.params import ALL_RATES, Dot11bConfig, PlcpParameters, Rate
from repro.core.throughput_model import ThroughputModel
from repro.scenario import build_network


def _simulated(plcp: PlcpParameters, rate: Rate) -> float:
    net = build_network(
        [0, 10],
        data_rate=rate,
        fast_sigma_db=0.0,
        dot11=Dot11bConfig(plcp=plcp),
    )
    sink = UdpSink(net[1], port=5001, warmup_s=0.3)
    CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
    net.run(2.0)
    return sink.throughput_bps(2.0) / 1e6


def _evaluate():
    rows = []
    for rate in reversed(ALL_RATES):
        long_model = ThroughputModel(Dot11bConfig(plcp=PlcpParameters.long()))
        short_model = ThroughputModel(Dot11bConfig(plcp=PlcpParameters.short()))
        rows.append(
            (
                str(rate),
                long_model.max_throughput_bps(512, rate) / 1e6,
                short_model.max_throughput_bps(512, rate) / 1e6,
            )
        )
    sim_long = _simulated(PlcpParameters.long(), Rate.MBPS_11)
    sim_short = _simulated(PlcpParameters.short(), Rate.MBPS_11)
    return rows, sim_long, sim_short


def test_bench_extension_short_preamble(benchmark):
    rows, sim_long, sim_short = run_once(benchmark, _evaluate)
    text = render_table(
        ["rate", "long PLCP (Mbps)", "short PLCP (Mbps)"],
        rows,
        title="Extension - long vs short PLCP preamble (analytic, m=512)",
    )
    text += (
        f"\n\nsimulated at 11 Mbps: long {sim_long:.3f} Mbps, "
        f"short {sim_short:.3f} Mbps"
    )
    save_artifact("extension_short_preamble", text)

    by_rate = dict((row[0], row) for row in rows)
    # The short preamble always helps, most at 11 Mbps.
    gains = {name: short / long for name, long, short in rows}
    assert all(gain > 1.0 for gain in gains.values())
    assert gains["11 Mbps"] == max(gains.values())
    assert by_rate["11 Mbps"][2] > 3.2  # >3.2 Mbps with short PLCP
    # The simulator tracks the analytic prediction for both formats.
    assert abs(sim_short - by_rate["11 Mbps"][2]) < 0.1
    assert abs(sim_long - by_rate["11 Mbps"][1]) < 0.1
