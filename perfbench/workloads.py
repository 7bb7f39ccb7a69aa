"""The benchmark's three workloads, built from a seed against ``repro``'s API.

Each workload is a closed-loop batch job: one caller runs a fixed batch of
scenarios to completion, then the next batch.  One batch is an
*iteration*; the benchmark repeats iterations for its time budget and
reports medians.  An *operation* is one scenario run (``four-node``,
``mobile-field``) or one executed sweep point (``mac-sweep``).

* ``four-node`` -- the paper's Figure 7: four stations on the 25/80/25 m
  line at 11 Mbps, UDP/TCP x RTS off/on, serially in one process.
  Per-event dispatch (phy, mac, sim) dominates; the medium takes its dense
  path at N=4 and the sweep machinery stays idle.
* ``mobile-field`` -- 250 mobile stations on a wide random field with
  shortest-path routing and one low-rate CBR flow per station (the
  ``multihop.scale_point`` shape), on four fields drawn from the seed.  The spatial medium (grid index,
  culling, mobility re-bucketing) is the largest layer; building 250
  nodes and their routes is the largest set-up cost.
* ``mac-sweep`` -- a mac-surface saturation grid through ``run_scenarios``
  with a two-process pool, a fresh ``SweepCache`` and a journal: a cold
  pass (every point a cache write), then a pass over the grid extended
  with new points (old points cache reads, new ones writes).  The only
  workload that exercises the pool, the cache, the journal and the audit
  ledger.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Stretch factor for every timed phase (a float >= 1), shared with
#: ``benchmarks/trajectory.py``: it sleeps the excess after each timed
#: phase so a regression gate can be shown to trip.
HANDICAP_ENV = "REPRO_PERF_HANDICAP"

FOUR_NODE_DURATION_S = 2.0
MOBILE_NODES = 250
MOBILE_SPACING_M = 300.0
MOBILE_SPEED_M_S = 1.5
MOBILE_DURATION_S = 3.0
MOBILE_FIELDS = 4
SWEEP_STATIONS = (2, 3, 4, 5, 6, 7, 8, 9)
SWEEP_EXTRA_STATIONS = (10,)
SWEEP_DURATION_S = 0.05
SWEEP_WARMUP_S = 0.025
#: Pool size of the sweep: fixed rather than ``nproc`` so that runs on
#: different hosts do the same work.
SWEEP_JOBS = 2


def handicap() -> float:
    """The ``REPRO_PERF_HANDICAP`` stretch factor (1.0 when unset)."""
    value = float(os.environ.get(HANDICAP_ENV, "1.0"))
    if value < 1.0:
        raise ValueError(f"{HANDICAP_ENV} must be >= 1.0, got {value}")
    return value


def stretch(elapsed_s: float) -> float:
    """Apply the handicap to one timed phase: sleep the excess, return it."""
    factor = handicap()
    if factor > 1.0:
        time.sleep(elapsed_s * (factor - 1.0))
    return elapsed_s * factor


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    wall_s: float
    #: Latency of each operation that completed.
    op_times_s: list[float]
    #: Operations attempted (completed or not).
    attempted: int
    outputs: Any
    failures: list[str] = field(default_factory=list)
    #: Workload-specific figures (sweep retries, pool CPU time, ...).
    extra: dict[str, float] = field(default_factory=dict)
    #: Medium/kernel choice per scenario kind, for the run manifest.
    backends: dict[str, Any] = field(default_factory=dict)
    #: Reference seconds per host second while this iteration ran.
    scale: float = 1.0


# ---------------------------------------------------------------------------
# Shared helpers


def flow_offered_bytes(handle: Any) -> int:
    """Application bytes a flow's sources handed to their transport."""
    if handle.spec.kind == "bulk-tcp":
        return sum(
            source.connection.send_buffer.written_total
            for source in handle.sources
            if source.connection is not None
        )
    return sum(
        source.packets_offered * handle.spec.payload_bytes
        for source in handle.sources
    )


def flow_rows(net: Any, horizon_s: float) -> tuple[list[list[Any]], list[str]]:
    """Per-flow ``[label, delivered_bits, offered_bits, kbps]`` and the
    invariant violations among them (delivered must not exceed offered)."""
    rows = []
    failures = []
    for handle in net.flows:
        delivered = int(handle.sink.bytes) * 8
        offered = flow_offered_bytes(handle) * 8
        rows.append(
            [handle.label, delivered, offered, handle.throughput_bps(horizon_s) / 1e3]
        )
        if delivered > offered:
            failures.append(
                f"flow {handle.label}: delivered {delivered} b > offered {offered} b"
            )
    return rows, failures


def spec_backends(spec: Any, devices: int) -> dict[str, str]:
    """What the medium and kernel settings resolve to for one spec of
    ``devices`` stations (``auto`` media pick by station count)."""
    from repro.channel.medium import AUTO_SPATIAL_CUTOFF, resolve_medium
    from repro.phy.kernel import resolve_kernel

    medium = resolve_medium(spec.topology.medium)
    effective = medium
    if medium == "auto":
        effective = "spatial" if devices >= AUTO_SPATIAL_CUTOFF else "dense"
    return {
        "medium": medium,
        "medium_effective": effective,
        "kernel": resolve_kernel(spec.stack.kernel),
    }


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """A named batch job.  ``prepare`` is set-up; ``iterate`` is measured."""

    name = ""
    #: Processes the measured phase keeps busy (for host calibration).
    jobs = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Spec construction and any first build (counted in ``setup_s``)."""

    def iterate(self) -> Iteration:
        """Run one batch to completion and check its outputs."""
        raise NotImplementedError


class ScenarioBatch(Workload):
    """A fixed list of scenarios, built then run one after another."""

    def make_specs(self) -> list[Any]:
        raise NotImplementedError

    def prepare(self) -> None:
        self.specs = self.make_specs()
        self._nets: list[Any] | None = self._build()

    def _build(self) -> list[Any]:
        from repro import scenario

        return [scenario.build(spec) for spec in self.specs]

    def iterate(self) -> Iteration:
        nets = self._nets if self._nets is not None else self._build()
        self._nets = None
        op_times = []
        outputs = []
        failures: list[str] = []
        start = time.perf_counter()
        for spec, net in zip(self.specs, nets):
            op_start = time.perf_counter()
            net.run(spec.duration_s)
            op_times.append(stretch(time.perf_counter() - op_start))
            rows, bad = flow_rows(net, spec.duration_s)
            outputs.append(rows)
            failures.extend(bad)
        wall_s = time.perf_counter() - start
        return Iteration(
            wall_s=wall_s,
            op_times_s=op_times,
            attempted=len(self.specs),
            outputs=outputs,
            failures=failures,
            backends={self.name: spec_backends(self.specs[0], len(nets[0].nodes))},
        )


class FourNode(ScenarioBatch):
    name = "four-node"

    def make_specs(self) -> list[Any]:
        from repro.experiments import four_nodes

        return [
            four_nodes.panel_spec(
                "figure6",
                11.0,
                transport,
                rts_cts,
                four_nodes.ASYMMETRIC_SESSIONS,
                FOUR_NODE_DURATION_S,
                self.seed,
            )
            for transport in ("udp", "tcp")
            for rts_cts in (False, True)
        ]


def mobile_field_spec(seed: int) -> Any:
    """The ``multihop.scale_point`` scenario: every station mobile, speeds
    staggered per node so there is real relative motion."""
    from repro.experiments.multihop import density_spec
    from repro.scenario import ScenarioSpec

    spec = density_spec(
        MOBILE_NODES,
        MOBILE_DURATION_S,
        warmup_s=0.0,
        seed=seed,
        spacing_m=MOBILE_SPACING_M,
    )
    topology = spec.topology.to_dict()
    topology["mobility"] = [
        {
            "node": node,
            "speed_m_s": MOBILE_SPEED_M_S * (1.0 + 0.01 * node),
            "update_interval_s": 0.1,
        }
        for node in range(MOBILE_NODES)
    ]
    return ScenarioSpec.from_dict({**spec.to_dict(), "topology": topology})


class MobileField(ScenarioBatch):
    name = "mobile-field"

    def make_specs(self) -> list[Any]:
        # Several random fields per iteration: how many station pairs are
        # routable varies a lot from one field to the next, and the
        # benchmark should measure the simulator, not one field's luck.
        return [
            mobile_field_spec(self.seed * MOBILE_FIELDS + k)
            for k in range(MOBILE_FIELDS)
        ]


def journal_points(path: Path) -> list[dict[str, Any]]:
    """The ``point`` records of a sweep journal, in completion order."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            document = json.loads(line)
            if document.get("type") == "point":
                records.append(document)
    return records


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class MacSweep(Workload):
    name = "mac-sweep"
    jobs = SWEEP_JOBS

    def prepare(self) -> None:
        from repro.experiments import mac_surface
        from repro.parallel.cache import code_version_tag

        def rows(stations: tuple[int, ...]) -> list[Any]:
            return mac_surface.surface_sweeps(
                stations,
                duration_s=SWEEP_DURATION_S,
                warmup_s=SWEEP_WARMUP_S,
                seed=self.seed,
            )

        self.base = [spec for _, _, _, spec in rows(SWEEP_STATIONS)]
        self.extended = self.base + [
            spec for _, _, _, spec in rows(SWEEP_EXTRA_STATIONS)
        ]
        self.extract = "repro.experiments.mac_surface:mac_surface_metrics"
        code_version_tag()  # hashes the simulator sources once per process
        self._iteration = 0

    def iterate(self) -> Iteration:
        from repro.parallel import SweepCache
        from repro.parallel.supervisor import PointFailure
        from repro.scenario import run_scenarios

        self._iteration += 1
        root = self.workdir / f"sweep-{self._iteration}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        cache = SweepCache(root / "cache")
        journals = [root / "cold.jsonl", root / "extended.jsonl"]
        cpu_start = _cpu_s()
        start = time.perf_counter()
        passes = []
        for specs, journal in zip((self.base, self.extended), journals):
            passes.append(
                run_scenarios(
                    specs,
                    extract=self.extract,
                    jobs=SWEEP_JOBS,
                    cache=cache,
                    journal=str(journal),
                    on_error="degrade",
                )
            )
        elapsed = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu_start
        wall_s = stretch(elapsed)
        factor = handicap()

        failures: list[str] = []
        op_times: list[float] = []
        retries = 0
        hits = 0
        pool_workers = 0
        for journal in journals:
            executed = 0
            for record in journal_points(journal):
                retries += max(0, int(record["attempts"]) - 1)
                if record.get("cached"):
                    hits += 1
                    continue
                executed += 1
                if record["status"] == "ok":
                    op_times.append(float(record["duration_s"]) * factor)
            # The supervisor runs a lone point in-process, else starts
            # min(jobs, points) workers.
            pool_workers += min(SWEEP_JOBS, executed) if executed > 1 else 0
        for number, values in enumerate(passes, start=1):
            for index, value in enumerate(values):
                if value is None or isinstance(value, PointFailure):
                    failures.append(f"pass {number} point {index}: {value}")
                    continue
                total_bps, mean_delay_s, jain = value
                if not (0.0 < total_bps <= 11e6 and 0.0 < jain <= 1.0 + 1e-12):
                    failures.append(
                        f"pass {number} point {index}: out of range {value}"
                    )
        cold, extended = passes
        if extended[: len(cold)] != cold:
            failures.append("second-pass values of cached points differ from the cold pass")
        if hits != len(self.base):
            failures.append(f"expected {len(self.base)} cache reads, journal shows {hits}")
        shutil.rmtree(root, ignore_errors=True)
        return Iteration(
            wall_s=wall_s,
            op_times_s=op_times,
            attempted=len(self.extended),  # 104 cold points + the new ones
            outputs=[cold, extended[len(cold):]],
            failures=failures,
            extra={
                "points": float(len(self.base) + len(self.extended)),
                "pool_workers": float(pool_workers),
                "retries": float(retries),
                "cpu_s": cpu_s,
                "overhead_s": wall_s - sum(op_times) / SWEEP_JOBS,
            },
            backends={
                "mac-sweep": spec_backends(
                    self.extended[-1], len(self.extended[-1].topology.positions_m)
                )
            },
        )


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    FourNode.name: FourNode,
    MobileField.name: MobileField,
    MacSweep.name: MacSweep,
}
