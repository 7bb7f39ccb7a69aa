"""Turn specs into running networks.

Two levels live here:

* :func:`build_network` — the low-level constructor taking live objects
  (a :class:`Rate`, a propagation model instance, ...).
* :func:`build` — the declarative entry point: a
  :class:`~repro.scenario.specs.ScenarioSpec` in, a fully wired
  :class:`~repro.scenario.network.ScenarioNetwork` out, with every flow
  sink/source application attached, mobility walking and the fault
  schedule installed.  Wiring order (flows in spec order, sink before
  source, then mobility, then faults) is part of the contract: event
  ties break by insertion sequence, so the order *is* the determinism.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.channel.medium import Medium
from repro.channel.propagation import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PropagationModel,
    TwoRayGroundPathLoss,
)
from repro.channel.shadowing import ChannelModel
from repro.channel.weather import DayConditions, WeatherProcess
from repro.core.params import Dot11bConfig, Rate
from repro.errors import ConfigurationError
from repro.core.range_model import solve_range_m
from repro.mac.dcf import AckPolicy
from repro.mac.ratecontrol import ArfConfig
from repro.net.node import Node, NodeStackConfig
from repro.net.routing import ROUTING_POLICIES, build_shortest_path_tables
from repro.phy.radio import RadioParameters
from repro.phy.reception import ReceptionModel
from repro.scenario.network import FlowHandle, ScenarioNetwork
from repro.scenario.specs import (
    DEFAULT_FAST_SIGMA_DB,
    FlowSpec,
    ScenarioSpec,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngManager
from repro.sim.tracing import Tracer
from repro.transport.tcp.connection import TcpConfig


def build_network(
    positions_m: Sequence[float | tuple[float, float]],
    data_rate: Rate = Rate.MBPS_11,
    rts_enabled: bool = False,
    seed: int = 1,
    fast_sigma_db: float = DEFAULT_FAST_SIGMA_DB,
    static_sigma_db: float = 0.0,
    weather: DayConditions | None = None,
    radio: RadioParameters | None = None,
    propagation: PropagationModel | None = None,
    ack_policy: AckPolicy = AckPolicy.ALWAYS,
    dot11: Dot11bConfig | None = None,
    tcp_config: TcpConfig | None = None,
    reception: ReceptionModel | None = None,
    mac_queue_frames: int = 200,
    arf: ArfConfig | None = None,
    medium_mode: str | None = None,
    routing: str | None = None,
) -> ScenarioNetwork:
    """Construct the full stack for one scenario.

    ``positions_m`` entries are either an x-coordinate (stations on a
    line, like every topology in the paper) or an ``(x, y)`` pair.
    Addresses are assigned 1..N left to right, matching the paper's
    S1..S4 naming.

    ``medium_mode`` pins the reception-event path (``dense`` |
    ``spatial``; ``None`` follows ``REPRO_MEDIUM``).  ``routing``
    selects the per-node table policy: ``"shortest-path"`` builds
    hop-count BFS tables over the connectivity graph (link range solved
    from the radio's sensitivity at the configured data rate) and
    installs them strict, so unreachable destinations surface as typed
    ``no-route`` drops instead of frames aimed at out-of-range MACs.
    """
    sim = Simulator()
    rngs = RngManager(seed)
    tracer = Tracer()
    weather_process = None
    if weather is not None:
        weather_process = WeatherProcess(rngs.stream("weather"), weather)
    channel = ChannelModel(
        propagation=propagation,
        fast_sigma_db=fast_sigma_db,
        static_sigma_db=static_sigma_db,
        rng=rngs.stream("channel"),
        weather=weather_process,
    )
    medium = Medium(sim, channel, mode=medium_mode)
    stack = NodeStackConfig(
        data_rate=data_rate,
        dot11=dot11 if dot11 is not None else Dot11bConfig(),
        rts_enabled=rts_enabled,
        ack_policy=ack_policy,
        radio=radio if radio is not None else RadioParameters.calibrated(),
        tcp=tcp_config if tcp_config is not None else TcpConfig(),
        max_queue_frames=mac_queue_frames,
        arf=arf,
    )
    nodes = []
    for index, position in enumerate(positions_m):
        if isinstance(position, tuple):
            xy = (float(position[0]), float(position[1]))
        else:
            xy = (float(position), 0.0)
        nodes.append(
            Node(
                sim,
                medium,
                address=index + 1,
                position_m=xy,
                stack=stack,
                rng=rngs.stream(f"node{index + 1}"),
                tracer=tracer,
                reception=reception,
            )
        )
    if routing is not None and routing not in ROUTING_POLICIES:
        raise ConfigurationError(
            f"unknown routing policy {routing!r}; "
            f"accepted: {list(ROUTING_POLICIES)} (or None for direct)"
        )
    if routing == "shortest-path":
        node_radio = stack.radio
        max_range_m = solve_range_m(
            channel.mean_loss_db,
            node_radio.tx_power_dbm,
            node_radio.sensitivity_dbm[data_rate],
        )
        tables = build_shortest_path_tables(
            [node.position_m for node in nodes], max_range_m
        )
        for node in nodes:
            node.routing.install(tables[node.address])
    return ScenarioNetwork(sim=sim, medium=medium, nodes=nodes, tracer=tracer, rngs=rngs)


_PROPAGATION_FACTORIES = {
    "log-distance": LogDistancePathLoss.calibrated,
    "free-space": FreeSpacePathLoss,
    "two-ray": TwoRayGroundPathLoss,
}

_RADIO_FACTORIES = {
    "calibrated": RadioParameters.calibrated,
    "ns2": RadioParameters.ns2_default,
}


def _stack_dot11(spec: ScenarioSpec) -> Dot11bConfig | None:
    """A Dot11bConfig only when the spec overrides MAC parameters.

    Delegates to :meth:`StackSpec.dot11_config` — the one place that
    merges retry-limit and ``stack.mac`` contention overrides, shared
    with the analytic model so sim and prediction read identical
    constants.
    """
    return spec.stack.dot11_config()


def make_source(net: ScenarioNetwork, flow: FlowSpec, index: int) -> Any:
    """Start (or restart) the source application for one flow."""
    from repro.apps.bulk import BulkTcpSender
    from repro.apps.cbr import CbrSource
    from repro.apps.onoff import OnOffSource

    src_node = net.nodes[flow.src]
    dst_address = net.nodes[flow.dst].address
    if flow.kind == "cbr":
        return CbrSource(
            src_node,
            dst=dst_address,
            dst_port=flow.port,
            payload_bytes=flow.payload_bytes,
            rate_bps=flow.rate_bps,
            start_s=flow.start_s,
            timestamped=flow.timestamped,
        )
    if flow.kind == "onoff":
        return OnOffSource(
            src_node,
            dst=dst_address,
            dst_port=flow.port,
            payload_bytes=flow.payload_bytes,
            rate_bps=flow.rate_bps,
            mean_on_s=flow.mean_on_s,
            mean_off_s=flow.mean_off_s,
            rng=net.rngs.stream(f"flow{index}.onoff"),
        )
    # bulk-tcp: segments are MSS-sized (TcpConfig), not payload-sized.
    return BulkTcpSender(
        src_node,
        dst=dst_address,
        dst_port=flow.port,
        total_bytes=flow.total_bytes,
        start_s=flow.start_s,
    )


def _make_sink(net: ScenarioNetwork, flow: FlowSpec, warmup_s: float) -> Any:
    from repro.apps.bulk import BulkTcpReceiver
    from repro.apps.sink import UdpSink

    dst_node = net.nodes[flow.dst]
    if flow.kind == "bulk-tcp":
        return BulkTcpReceiver(dst_node, port=flow.port, warmup_s=warmup_s)
    return UdpSink(dst_node, port=flow.port, warmup_s=warmup_s)


def build(spec: ScenarioSpec) -> ScenarioNetwork:
    """Build and fully wire the network a :class:`ScenarioSpec` describes."""
    from repro.channel.mobility import walk_away
    from repro.faults.schedule import FaultSchedule

    if not isinstance(spec, ScenarioSpec):
        raise ConfigurationError(
            f"build() takes a ScenarioSpec, got {type(spec).__name__}; "
            "parse dicts with ScenarioSpec.from_dict first"
        )
    net = build_network(
        list(spec.topology.positions_m),
        data_rate=Rate.from_mbps(spec.stack.data_rate_mbps),
        rts_enabled=spec.stack.rts_enabled,
        seed=spec.seed,
        fast_sigma_db=spec.topology.fast_sigma_db,
        static_sigma_db=spec.topology.static_sigma_db,
        weather=(
            spec.topology.weather.to_conditions()
            if spec.topology.weather is not None
            else None
        ),
        radio=(
            _RADIO_FACTORIES[spec.stack.radio]()
            if spec.stack.radio is not None
            else None
        ),
        propagation=(
            _PROPAGATION_FACTORIES[spec.topology.propagation]()
            if spec.topology.propagation is not None
            else None
        ),
        ack_policy=AckPolicy(spec.stack.ack_policy),
        dot11=_stack_dot11(spec),
        mac_queue_frames=spec.stack.effective_queue_frames,
        arf=ArfConfig() if spec.stack.arf else None,
        medium_mode=spec.topology.medium,
        routing=spec.stack.routing,
    )
    net.spec = spec
    # The recorder must attach before flows are wired: a CBR source with
    # start_s=0 offers its first packet during construction, and the
    # ledger has to see that SDU open.
    _attach_recorder(net, spec)
    handles = []
    for index, flow in enumerate(spec.traffic.flows):
        sink = _make_sink(net, flow, spec.warmup_s)
        handle = FlowHandle(spec=flow, index=index, net=net, sink=sink)
        handle.sources.append(make_source(net, flow, index))
        handles.append(handle)
    net.flows = tuple(handles)
    for mobility in spec.topology.mobility:
        walk_away(
            net.sim,
            net.nodes[mobility.node].phy,
            mobility.speed_m_s,
            update_interval_s=mobility.update_interval_s,
        )
    if spec.faults:
        net.fault_schedule = FaultSchedule.from_specs(spec.faults, flows=net.flows)
        net.fault_schedule.install(net)
    return net


def _attach_recorder(net: ScenarioNetwork, spec: ScenarioSpec) -> None:
    """Attach a flight recorder when the spec or the session asks for one.

    Imported locally: observability is an optional layer, and builds
    with it off must not pay the import.
    """
    from repro.obs.recorder import FlightRecorder
    from repro.obs.session import active_collector

    collector = active_collector()
    obs = spec.observability
    if collector is None and not obs.enabled:
        return
    recorder = FlightRecorder(
        net.sim,
        net.tracer,
        audit=obs.audit or collector is not None,
        strict=collector.strict if collector is not None else True,
        trace_digest=obs.trace_digest,
        trace_jsonl=obs.trace_jsonl,
        ledger_jsonl=obs.ledger_jsonl,
    ).attach()
    net.recorder = recorder
    if collector is not None:
        collector.register(recorder)
