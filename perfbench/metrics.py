"""Metric definitions, per-layer arithmetic and the regression rule.

``BENCHMARK.json`` at the repository root is generated from the tables
here (``python3 perfbench/run.py --write-spec``), and the benchmark's
tests check that the committed file matches them.

End-to-end times are in reference seconds: host seconds scaled by the
calibration timed around each iteration (see ``run.py``).  Per-layer
times are host seconds of the traced iteration.

Which end-to-end metric each layer should move, and on which workload:

* ``sim``: ``wall_s`` on four-node, ``point_p50_s`` on mac-sweep.
* ``channel``: ``wall_s`` on mobile-field; no change expected on four-node.
* ``phy``: ``wall_s`` on four-node; ``phy.kernel_*`` also on mobile-field.
* ``mac``: ``wall_s`` on four-node, ``point_p50_s`` on mac-sweep.
* ``net``: ``wall_s`` on mobile-field.
* ``transport``: ``wall_s`` on four-node only.
* ``scenario``: ``setup_s`` everywhere; build also ``peak_rss_mb`` on
  mobile-field.
* ``obs``: ``wall_s`` and ``point_p50_s`` on mac-sweep only.
* ``parallel``: ``wall_s`` and ``point_p90_s`` on mac-sweep only.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable, Mapping

RUN_SECONDS = 28

WORKLOAD_WHY = {
    "four-node": "paper Figure 7: 4 stations, UDP/TCP x RTS off/on; per-event phy/mac/sim dispatch, dense medium",
    "mobile-field": "4 fields of 250 mobile stations, shortest-path routes: spatial medium, mobility, 250-node builds",
    "mac-sweep": "mac-surface grid, 2 workers: cold pass, then cached + new points; pool, cache, journal, ledger",
}

#: (name, unit, better, bound).  ``fail_ratio`` is reported through the
#: result's ``attempted``/``failed`` counts: it is 0 on a correct tree,
#: and a metric whose median is 0 has no relative bound.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("point_p50_s", "s", "lower", 0.25),
    ("point_p90_s", "s", "lower", 0.25),
)

#: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.schedules", "count", "lower"),
    ("sim.cancels", "count", "lower"),
    ("sim.schedules_per_event", "ratio", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.self_s", "s", "lower"),
    ("channel.transmits", "count", "lower"),
    ("channel.deliveries", "count", "lower"),
    ("channel.fanout", "ratio", "lower"),
    ("channel.grid_candidates", "count", "lower"),
    ("channel.cull_ratio", "ratio", "higher"),
    ("channel.moves", "count", "lower"),
    ("channel.self_s", "s", "lower"),
    ("phy.signal_starts", "count", "lower"),
    ("phy.signal_ends", "count", "lower"),
    ("phy.receptions", "count", "lower"),
    ("phy.rx_ok_ratio", "ratio", "higher"),
    ("phy.cs_edges", "count", "lower"),
    ("phy.kernel_calls", "count", "lower"),
    ("phy.kernel_self_s", "s", "lower"),
    ("phy.self_s", "s", "lower"),
    ("mac.enqueued", "count", "higher"),
    ("mac.tx_attempts", "count", "lower"),
    ("mac.retries", "count", "lower"),
    ("mac.delivered_ratio", "ratio", "higher"),
    ("mac.queue_drops", "count", "lower"),
    ("mac.self_s", "s", "lower"),
    ("net.sends", "count", "lower"),
    ("net.forwards", "count", "lower"),
    ("net.drops", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("transport.tcp_segments", "count", "lower"),
    ("transport.tcp_retransmits", "count", "lower"),
    ("transport.udp_sends", "count", "lower"),
    ("transport.self_s", "s", "lower"),
    ("apps.offered", "B", "higher"),
    ("apps.delivered", "B", "higher"),
    ("apps.self_s", "s", "lower"),
    ("scenario.import_s", "s", "lower"),
    ("scenario.build_s", "s", "lower"),
    ("obs.records", "count", "lower"),
    ("obs.self_s", "s", "lower"),
    ("parallel.points", "count", "higher"),
    ("parallel.cache_hits", "count", "higher"),
    ("parallel.cache_misses", "count", "lower"),
    ("parallel.cache_get_s", "s", "lower"),
    ("parallel.cache_put_s", "s", "lower"),
    ("parallel.journal_s", "s", "lower"),
    ("parallel.retries", "count", "lower"),
    ("parallel.respawns", "count", "lower"),
    ("parallel.cpu_s", "s", "lower"),
    ("parallel.overhead_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: Why a per-layer metric reads 0 on a workload that does not use it.
ABSENT = {
    "four-node": {
        "channel.grid_candidates": "dense medium at N=4: no grid queries",
        "channel.cull_ratio": "dense medium at N=4: nothing culled",
        "channel.moves": "stations are static",
        "net.forwards": "single-hop sessions",
        "obs.records": "no audit ledger in this workload",
        "parallel.": "serial: the sweep machinery stays idle",
    },
    "mobile-field": {
        "net.forwards": "each flow goes to its nearest neighbour: one hop when routable at all",
        "transport.tcp_": "CBR/UDP flows only",
        "obs.records": "no audit ledger in this workload",
        "parallel.": "serial: the sweep machinery stays idle",
    },
    "mac-sweep": {
        "channel.grid_candidates": "dense medium at N<=10: no grid queries",
        "channel.cull_ratio": "dense medium at N<=10: nothing culled",
        "channel.moves": "stations are static",
        "net.forwards": "single-hop ring",
        "net.drops": "single-hop ring",
        "transport.tcp_": "saturated CBR/UDP flows only",
        "parallel.retries": "no point failed",
        "parallel.respawns": "no worker died",
    },
}


def benchmark_spec() -> dict[str, Any]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def absent_reason(workload: str, metric: str) -> str:
    """Why ``metric`` is 0 on ``workload`` (empty when it should not be)."""
    for prefix, reason in ABSENT.get(workload, {}).items():
        if metric.startswith(prefix):
            return reason
    return ""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values`` (statistics' exclusive method)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def iteration_quantile(iterations: Iterable[Any], q: float, scaled: bool = True) -> float:
    """Operation latency: the ``q`` quantile within each iteration (one
    batch), median over the iterations.  A median across batches keeps a
    slow spell of the host from setting a tail quantile on its own.
    ``scaled`` converts to reference seconds with each iteration's scale."""
    return statistics.median(
        quantile(i.op_times_s, q) * (i.scale if scaled else 1.0) for i in iterations
    )


def layer_metrics(
    trace: Any,
    worker_free_self_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
    import_s: float,
    extra: Mapping[str, float],
) -> dict[str, float]:
    """Every per-layer metric from one traced iteration.

    ``untraced_wall_s`` is the median untraced iteration of the same
    inputs (the counts are identical, since tracing changes no output);
    ``worker_free_self_s`` is the span self time recorded in the
    benchmark process itself, before sweep workers were merged in.
    """
    c = trace.counts
    self_s = trace.self_s
    total_s = trace.total_s
    events = c["sim.events"]
    values = {
        "sim.events": events,
        "sim.schedules": c["sim.schedules"],
        "sim.cancels": c["sim.cancels"],
        "sim.schedules_per_event": _ratio(c["sim.schedules"], events),
        "sim.events_per_s": _ratio(events, untraced_wall_s),
        "sim.self_s": self_s["sim"],
        "channel.transmits": c["channel.transmits"],
        "channel.deliveries": c["channel.deliveries"],
        "channel.fanout": _ratio(c["channel.deliveries"], c["channel.transmits"]),
        "channel.grid_candidates": c["channel.grid_candidates"],
        "channel.cull_ratio": _ratio(c["channel.deliveries"], c["channel.grid_candidates"]),
        "channel.moves": c["channel.moves"],
        "channel.self_s": self_s["channel"],
        "phy.signal_starts": c["phy.signal_starts"],
        "phy.signal_ends": c["phy.signal_ends"],
        "phy.receptions": c["phy.receptions"],
        "phy.rx_ok_ratio": _ratio(c["phy.rx_ok"], c["phy.receptions"]),
        "phy.cs_edges": c["phy.cs_edges"],
        "phy.kernel_calls": c["phy.kernel_calls"],
        "phy.kernel_self_s": self_s["phy.kernel"],
        "phy.self_s": self_s["phy"],
        "mac.enqueued": c["mac.enqueued"],
        "mac.tx_attempts": c["mac.tx_attempts"],
        "mac.retries": c["mac.retries"],
        "mac.delivered_ratio": _ratio(
            c["mac.msdu_ok"], c["mac.msdu_ok"] + c["mac.msdu_dropped"]
        ),
        "mac.queue_drops": c["mac.queue_drops"],
        "mac.self_s": self_s["mac"],
        "net.sends": c["net.sends"],
        "net.forwards": c["net.forwards"],
        "net.drops": c["net.drops"],
        "net.self_s": self_s["net"],
        "transport.tcp_segments": c["transport.tcp_segments"],
        "transport.tcp_retransmits": c["transport.tcp_retransmits"],
        "transport.udp_sends": c["transport.udp_sends"],
        "transport.self_s": self_s["transport"],
        "apps.offered": c["apps.offered"],
        "apps.delivered": c["apps.delivered"],
        "apps.self_s": self_s["apps"],
        "scenario.import_s": import_s,
        "scenario.build_s": total_s["scenario"],
        "obs.records": c["obs.records"],
        "obs.self_s": self_s["obs"],
        "parallel.points": extra.get("points", 0.0),
        "parallel.cache_hits": c["parallel.cache_hits"],
        "parallel.cache_misses": c["parallel.cache_misses"],
        "parallel.cache_get_s": total_s["parallel.cache_get"],
        "parallel.cache_put_s": total_s["parallel.cache_put"],
        "parallel.journal_s": total_s["parallel.journal"],
        "parallel.retries": extra.get("retries", 0.0),
        "parallel.respawns": max(
            0.0, c["parallel.workers_started"] - extra.get("pool_workers", 0.0)
        ),
        "parallel.cpu_s": extra.get("cpu_s", 0.0),
        "parallel.overhead_s": extra.get("overhead_s", 0.0),
        "trace.overhead": _ratio(traced_wall_s, untraced_wall_s),
        "trace.unattributed_s": traced_wall_s - worker_free_self_s,
    }
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:  # the table and this function must list the same metrics
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: float(values[name]) for name, _, _ in PER_LAYER}


def regressions(
    base_runs: Iterable[Mapping[str, float]],
    new_runs: Iterable[Mapping[str, float]],
) -> dict[str, tuple[float, float, float]]:
    """End-to-end metrics whose median got worse by more than the bound.

    Returns ``{metric: (base median, new median, bound)}`` for each
    regression -- the rule applied between two sets of runs.
    """
    base_runs = list(base_runs)
    new_runs = list(new_runs)
    found = {}
    for name, _, better, bound in END_TO_END:
        base = statistics.median(run[name] for run in base_runs)
        new = statistics.median(run[name] for run in new_runs)
        worse = new > base * (1 + bound) if better == "lower" else new < base * (1 - bound)
        if worse:
            found[name] = (base, new, bound)
    return found
