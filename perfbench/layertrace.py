"""Span tracing of ``repro``'s layers from outside the program.

:class:`LayerTrace` wraps public calls into each layer (and every
scheduler callback) with a span: a start, an end and the enclosing span.
A span's *self time* is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans.  Counters are
recorded at the same boundaries.  Nothing under ``src/`` changes: the
wrappers are installed on the classes for the duration of a traced
iteration and removed afterwards, and they pass arguments and results
through untouched, so a traced run produces bit-identical outputs.

Spans stay in memory (aggregated per label, plus the first
:data:`SPAN_SAMPLE` raw spans) and are written out by :meth:`dump`.
Sweep workers are forked from the traced process, so they inherit the
wrappers; each worker resets its copy after the fork and writes its
totals to the run's work directory when it exits, and :meth:`merge_workers`
folds them in.
"""

from __future__ import annotations

import json
import multiprocessing.process
import multiprocessing.util
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from workloads import flow_offered_bytes

#: Raw spans kept for the span file; totals cover every span regardless.
SPAN_SAMPLE = 100_000

#: The layers: the packages under ``src/repro``.
LAYERS = (
    "sim",
    "channel",
    "phy",
    "mac",
    "net",
    "transport",
    "apps",
    "scenario",
    "obs",
    "parallel",
)


def _package_label(module: str) -> str:
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class LayerTrace:
    """Span stack, per-label totals and counters for one traced iteration."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._labels: dict[Any, str] = {}
        self._pending_nets: list[Any] = []
        self._signal_start: Any = None
        self._timer_class: Any = type(None)
        self._active = False

    # -- spans -------------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, label: str, start: float) -> None:
        end = time.perf_counter()
        stack = self._stack
        child = stack.pop()
        duration = end - start
        self.self_s[label] += duration - child
        self.total_s[label] += duration
        self.calls[label] += 1
        if stack:
            stack[-1] += duration
        if len(self.spans) < SPAN_SAMPLE:
            self.spans.append((label, start, end, len(stack)))

    def _wrap(
        self,
        owner: Any,
        name: str,
        label: str,
        on_result: Callable[[tuple[Any, ...], Any], None] | None = None,
    ) -> Any:
        original = owner.__dict__[name]
        trace = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = trace._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                trace._leave(label, start)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__name__ = getattr(original, "__name__", name)
        traced.__qualname__ = getattr(original, "__qualname__", name)
        self._patches.append((owner, name, original))
        setattr(owner, name, traced)
        return traced

    def _count(self, key: str) -> Callable[..., None]:
        counts = self.counts

        def add(args: tuple[Any, ...], result: Any) -> None:
            counts[key] += 1

        return add

    # -- scheduler callbacks -----------------------------------------------

    def _callback_label(self, callback: Any) -> str:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, self._timer_class):
            # A timer fires its owner's callback: label by the owner.
            callback = owner._callback
            owner = getattr(callback, "__self__", None)
        function = getattr(callback, "__func__", callback)
        key = (type(owner), function)
        label = self._labels.get(key)
        if label is None:
            module = (
                type(owner).__module__
                if owner is not None
                else getattr(callback, "__module__", "") or ""
            )
            label = _package_label(module)
            self._labels[key] = label
        return label

    def _fire(self, label: str, callback: Any, *args: Any) -> None:
        self.counts["sim.events"] += 1
        start = self._enter()
        try:
            callback(*args)
        finally:
            self._leave(label, start)

    def _install_scheduler(self) -> None:
        from repro.sim.engine import Simulator
        from repro.sim.timers import Timer

        self._timer_class = Timer
        trace = self
        fire = self._fire
        counts = self.counts
        for name in ("schedule_slot", "schedule_slot_at"):
            original = Simulator.__dict__[name]

            def schedule(
                sim: Any,
                when: int,
                callback: Any,
                *args: Any,
                _original: Any = original,
            ) -> Any:
                counts["sim.schedules"] += 1
                if getattr(callback, "__func__", None) is trace._signal_start:
                    counts["channel.deliveries"] += 1
                return _original(
                    sim, when, fire, trace._callback_label(callback), callback, *args
                )

            self._patches.append((Simulator, name, original))
            setattr(Simulator, name, schedule)

        # Plain counter, no span: the cancel is part of its caller's work.
        original_cancel = Simulator.__dict__["cancel_slot"]

        def cancel_slot(sim: Any, slot: int, seq: int) -> bool:
            result = original_cancel(sim, slot, seq)
            if result:
                counts["sim.cancels"] += 1
            return result

        self._patches.append((Simulator, "cancel_slot", original_cancel))
        Simulator.cancel_slot = cancel_slot  # type: ignore[method-assign]
        self._wrap(Simulator, "run", "sim")

    # -- install / remove --------------------------------------------------

    def install(self) -> "LayerTrace":
        """Wrap every traced call; :meth:`remove` undoes it."""
        import repro.scenario
        import repro.scenario.points as points
        from repro.channel.medium import GridIndex, Medium
        from repro.mac.dcf import MacStation
        from repro.net.ip import IpLayer
        from repro.obs import auditors
        from repro.obs.ledger import PacketLedger
        from repro.parallel.cache import SweepCache
        from repro.parallel.journal import SweepJournal
        from repro.phy.kernel import SinrKernel
        from repro.phy.reception import BerReception, SinrThresholdReception
        from repro.phy.transceiver import Transceiver
        from repro.transport.tcp.connection import TcpConnection
        from repro.transport.udp import UdpSocket

        counts = self.counts
        self._install_scheduler()

        self._wrap(Medium, "transmit", "channel", self._count("channel.transmits"))
        self._wrap(Medium, "notify_moved", "channel", self._count("channel.moves"))

        def candidates(args: tuple[Any, ...], result: Any) -> None:
            counts["channel.grid_candidates"] += len(result)

        self._wrap(GridIndex, "near", "channel", candidates)

        self._wrap(Transceiver, "transmit", "phy")
        self._signal_start = self._wrap(
            Transceiver, "on_signal_start", "phy", self._count("phy.signal_starts")
        )
        self._wrap(Transceiver, "on_signal_end", "phy", self._count("phy.signal_ends"))

        def reception(args: tuple[Any, ...], result: Any) -> None:
            counts["phy.receptions"] += 1
            if result.success:
                counts["phy.rx_ok"] += 1

        for model in (SinrThresholdReception, BerReception):
            self._wrap(model, "evaluate", "phy", reception)
        self._wrap(SinrKernel, "evaluate", "phy.kernel", self._count("phy.kernel_calls"))

        def enqueued(args: tuple[Any, ...], result: Any) -> None:
            if result:
                counts["mac.enqueued"] += 1

        self._wrap(MacStation, "enqueue", "mac", enqueued)
        self._wrap(MacStation, "on_rx_end", "mac")
        self._wrap(MacStation, "on_tx_end", "mac")
        self._wrap(MacStation, "on_cs_busy", "mac", self._count("phy.cs_edges"))
        self._wrap(MacStation, "on_cs_idle", "mac", self._count("phy.cs_edges"))

        self._wrap(IpLayer, "send", "net", self._count("net.sends"))
        self._wrap(UdpSocket, "send", "transport", self._count("transport.udp_sends"))
        self._wrap(TcpConnection, "send", "transport")
        self._wrap(TcpConnection, "on_segment", "transport")

        def looked_up(args: tuple[Any, ...], result: Any) -> None:
            counts["parallel.cache_hits" if result[0] else "parallel.cache_misses"] += 1

        self._wrap(SweepCache, "lookup", "parallel.cache_get", looked_up)
        self._wrap(SweepCache, "put", "parallel.cache_put")
        self._wrap(SweepJournal, "record", "parallel.journal")

        self._wrap(PacketLedger, "on_record", "obs", self._count("obs.records"))
        for name in dir(auditors):
            auditor = getattr(auditors, name)
            if (
                isinstance(auditor, type)
                and issubclass(auditor, auditors.Auditor)
                and "on_record" in auditor.__dict__
            ):
                self._wrap(auditor, "on_record", "obs")

        def built(args: tuple[Any, ...], net: Any) -> None:
            self._pending_nets.append(net)

        for module in (repro.scenario, points):
            self._wrap(module, "build", "scenario", built)

        def point_done(args: tuple[Any, ...], result: Any) -> None:
            self.harvest()

        self._wrap(points, "scenario_point", "scenario.point", point_done)

        def process_started(args: tuple[Any, ...], result: Any) -> None:
            counts["parallel.workers_started"] += 1

        self._wrap(
            multiprocessing.process.BaseProcess, "start", "parallel.spawn", process_started
        )
        multiprocessing.util.register_after_fork(self, LayerTrace._after_fork)
        self._active = True
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute (in reverse install order)."""
        self._active = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- counters read from the program's own objects ----------------------

    def harvest(self) -> None:
        """Fold the counters of every network built since the last call."""
        counts = self.counts
        nets, self._pending_nets = self._pending_nets, []
        for net in nets:
            for node in net.nodes:
                mac = node.mac.counters
                counts["mac.tx_attempts"] += mac.data_tx
                counts["mac.retries"] += mac.retries
                counts["mac.queue_drops"] += mac.queue_drops
                counts["mac.msdu_ok"] += mac.tx_success
                counts["mac.msdu_dropped"] += mac.tx_drops
                counts["net.forwards"] += node.ip.datagrams_forwarded
                counts["net.drops"] += (
                    node.ip.datagrams_no_route + node.ip.datagrams_ttl_expired
                )
            for handle in net.flows:
                counts["apps.offered"] += flow_offered_bytes(handle)
                counts["apps.delivered"] += handle.sink.bytes
                connections = list(getattr(handle.sink, "connections", ()))
                connections += [
                    source.connection
                    for source in handle.sources
                    if getattr(source, "connection", None) is not None
                ]
                for connection in connections:
                    counts["transport.tcp_segments"] += connection.segments_sent
                    counts["transport.tcp_retransmits"] += (
                        connection.segments_retransmitted
                    )
            if net.recorder is not None and net.recorder.report is not None:
                counts["obs.unbalanced"] += 0 if net.recorder.report.balanced else 1

    # -- sweep workers -----------------------------------------------------

    def _after_fork(self) -> None:
        if not self._active:
            return
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counts.clear()
        self.spans = []
        self._stack = []
        self._pending_nets = []
        multiprocessing.util.Finalize(None, self._write_worker, exitpriority=100)

    def _write_worker(self) -> None:
        self.harvest()
        path = self.workdir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self._totals()))

    def _totals(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def merge_workers(self) -> int:
        """Fold in the totals sweep workers wrote; returns how many."""
        merged = 0
        for path in sorted(self.workdir.glob("worker-*.json")):
            document = json.loads(path.read_text())
            for key, target in (
                ("calls", self.calls),
                ("total_s", self.total_s),
                ("self_s", self.self_s),
                ("counts", self.counts),
            ):
                for name, value in document[key].items():
                    target[name] += value
            path.unlink()
            merged += 1
        self.counts["parallel.worker_files"] += merged
        return merged

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the totals and the raw span sample."""
        path.write_text(
            json.dumps(
                {
                    **self._totals(),
                    "span_fields": ["label", "start_s", "end_s", "depth"],
                    "spans": self.spans,
                }
            )
        )
