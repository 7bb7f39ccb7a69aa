"""Declarative scenario specs: topology + stack + traffic + faults as data.

Every experiment in the paper is a combination of one small vocabulary —
stations on a line, a NIC rate, RTS on/off, a traffic pattern, a seed.
The frozen dataclasses here capture that vocabulary as *data* with a
canonical, versioned JSON serialisation, so a complete scenario can live
in a file, be content-addressed by the sweep cache, and be rebuilt
bit-identically by :func:`repro.scenario.builder.build`.

The layers compose bottom-up:

* :class:`TopologySpec` — station positions, shadowing, propagation
  preset, weather and mobility;
* :class:`StackSpec` — NIC rate, RTS/CTS, ACK policy, radio preset, MAC
  retry limits / queue depth, ARF;
* :class:`TrafficSpec` — CBR / on-off / bulk-TCP flows between station
  indices;
* :class:`FaultSpec` — a :mod:`repro.faults` impairment window, in
  serialisable form (node *indices* instead of live callbacks);
* :class:`ScenarioSpec` — all of the above plus seed / duration / warmup;
* :class:`SweepSpec` — a base scenario and override axes expanding to a
  scenario grid.

``from_dict`` rejects unknown keys (a typo never silently produces a
default run) and ``apply_overrides`` takes dotted ``--set``-style paths
with the same strictness.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Iterable, Mapping, Sequence

from repro.channel.medium import MEDIUMS
from repro.channel.weather import DayConditions
from repro.core.params import Dot11bConfig, MacParameters, Rate
from repro.errors import ConfigurationError, FaultError
from repro.mac.dcf import AckPolicy
from repro.net.routing import ROUTING_POLICIES

#: Serialisation format version; bump on incompatible spec changes.
SPEC_VERSION = 1

#: Default per-frame shadowing used by the dynamic experiments.  Chosen
#: so the loss-vs-distance curves of Figure 3 spread over the distance
#: window the paper shows (roughly 20-30 m wide per rate).
DEFAULT_FAST_SIGMA_DB = 2.5

#: Propagation preset names (``None`` means the library default, the
#: calibrated log-distance model).
PROPAGATION_PRESETS = ("log-distance", "free-space", "two-ray")

#: Radio preset names (``None`` means the calibrated default).
RADIO_PRESETS = ("calibrated", "ns2")

FLOW_KINDS = ("cbr", "onoff", "bulk-tcp")

FAULT_KINDS = (
    "link-fade",
    "link-blackout",
    "interference",
    "node-crash",
    "clock-jitter",
)


def _check_keys(data: Mapping[str, Any], cls: type, what: str) -> None:
    """Reject keys that are not fields of ``cls`` (typo protection)."""
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - allowed - {"version"})
    if unknown:
        raise ConfigurationError(
            f"unknown {what} key(s) {unknown}; accepted: {sorted(allowed)}"
        )


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _optional_number(value: Any, what: str) -> float | None:
    return None if value is None else _number(value, what)


def _integer(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


def _freeze_types(
    spec: Any,
    float_fields: tuple[str, ...] = (),
    bool_fields: tuple[str, ...] = (),
) -> None:
    """Normalise numeric/bool field types in place (frozen-safe).

    ``ScenarioSpec(duration_s=1)`` and ``ScenarioSpec(duration_s=1.0)``
    describe the same scenario and compare equal, but without coercion
    they would serialise to different canonical bytes (``1`` vs ``1.0``)
    and therefore different sweep-cache keys.  Coercing at construction
    makes equality and canonical serialisation agree.
    """
    for name in float_fields:
        value = getattr(spec, name)
        if value is not None and not isinstance(value, float):
            object.__setattr__(spec, name, float(value))
    for name in bool_fields:
        value = getattr(spec, name)
        if not isinstance(value, bool):
            object.__setattr__(spec, name, bool(value))


@dataclass(frozen=True)
class WeatherSpec:
    """Serialisable form of :class:`repro.channel.weather.DayConditions`."""

    name: str
    offset_db: float
    sigma_db: float = 1.5
    correlation_time_s: float = 30.0

    def __post_init__(self) -> None:
        _freeze_types(
            self, ("offset_db", "sigma_db", "correlation_time_s")
        )

    @classmethod
    def from_conditions(cls, day: DayConditions) -> "WeatherSpec":
        """Wrap an existing :class:`DayConditions` value."""
        return cls(
            name=day.name,
            offset_db=day.offset_db,
            sigma_db=day.sigma_db,
            correlation_time_s=day.correlation_time_s,
        )

    def to_conditions(self) -> DayConditions:
        """The :class:`DayConditions` the channel model consumes."""
        return DayConditions(
            name=self.name,
            offset_db=self.offset_db,
            sigma_db=self.sigma_db,
            correlation_time_s=self.correlation_time_s,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "offset_db": self.offset_db,
            "sigma_db": self.sigma_db,
            "correlation_time_s": self.correlation_time_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WeatherSpec":
        _check_keys(data, cls, "weather")
        return cls(
            name=str(data["name"]),
            offset_db=_number(data["offset_db"], "weather offset_db"),
            sigma_db=_number(data.get("sigma_db", 1.5), "weather sigma_db"),
            correlation_time_s=_number(
                data.get("correlation_time_s", 30.0), "weather correlation_time_s"
            ),
        )


@dataclass(frozen=True)
class MobilitySpec:
    """One moving station (the paper's walking-receiver pattern)."""

    node: int
    speed_m_s: float
    update_interval_s: float = 0.1
    kind: str = "walk-away"

    def __post_init__(self) -> None:
        _freeze_types(self, ("speed_m_s", "update_interval_s"))
        if self.kind != "walk-away":
            raise ConfigurationError(
                f"unknown mobility kind {self.kind!r}; accepted: ['walk-away']"
            )
        if self.node < 0:
            raise ConfigurationError(f"mobility node must be >= 0, got {self.node}")
        if self.speed_m_s <= 0:
            raise ConfigurationError(
                f"mobility speed must be > 0 m/s, got {self.speed_m_s}"
            )
        if self.update_interval_s <= 0:
            raise ConfigurationError(
                f"mobility update interval must be > 0 s, got {self.update_interval_s}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "speed_m_s": self.speed_m_s,
            "update_interval_s": self.update_interval_s,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MobilitySpec":
        _check_keys(data, cls, "mobility")
        return cls(
            node=_integer(data["node"], "mobility node"),
            speed_m_s=_number(data["speed_m_s"], "mobility speed_m_s"),
            update_interval_s=_number(
                data.get("update_interval_s", 0.1), "mobility update_interval_s"
            ),
            kind=str(data.get("kind", "walk-away")),
        )


def _normalise_positions(
    positions: Iterable[Any],
) -> tuple[tuple[float, float], ...]:
    out: list[tuple[float, float]] = []
    for position in positions:
        if isinstance(position, (int, float)) and not isinstance(position, bool):
            out.append((float(position), 0.0))
        elif isinstance(position, (tuple, list)) and len(position) == 2:
            out.append((float(position[0]), float(position[1])))
        else:
            raise ConfigurationError(
                f"positions_m entries must be x or (x, y), got {position!r}"
            )
    return tuple(out)


@dataclass(frozen=True)
class TopologySpec:
    """Where the stations sit and how the channel between them behaves."""

    positions_m: tuple[tuple[float, float], ...]
    fast_sigma_db: float = DEFAULT_FAST_SIGMA_DB
    static_sigma_db: float = 0.0
    weather: WeatherSpec | None = None
    #: One of :data:`PROPAGATION_PRESETS`, or ``None`` for the calibrated
    #: log-distance default.
    propagation: str | None = None
    mobility: tuple[MobilitySpec, ...] = ()
    #: Reception-event generation path: ``"dense"`` | ``"spatial"``, or
    #: ``None`` to defer to the ``REPRO_MEDIUM`` environment variable
    #: (default ``auto``).  Purely a performance knob — both paths emit
    #: bit-identical events.
    medium: str | None = None

    def __post_init__(self) -> None:
        _freeze_types(self, ("fast_sigma_db", "static_sigma_db"))
        object.__setattr__(self, "positions_m", _normalise_positions(self.positions_m))
        object.__setattr__(self, "mobility", tuple(self.mobility))
        if not self.positions_m:
            raise ConfigurationError("topology needs at least one station position")
        if self.fast_sigma_db < 0 or self.static_sigma_db < 0:
            raise ConfigurationError("shadowing sigmas must be >= 0 dB")
        if self.propagation is not None and self.propagation not in PROPAGATION_PRESETS:
            raise ConfigurationError(
                f"unknown propagation preset {self.propagation!r}; "
                f"accepted: {list(PROPAGATION_PRESETS)} (or null for calibrated)"
            )
        if self.medium is not None and self.medium not in MEDIUMS:
            raise ConfigurationError(
                f"unknown medium mode {self.medium!r}; "
                f"accepted: {list(MEDIUMS)} (or null to follow REPRO_MEDIUM)"
            )
        for mobility in self.mobility:
            if mobility.node >= len(self.positions_m):
                raise ConfigurationError(
                    f"mobility targets node index {mobility.node}, but the "
                    f"topology has {len(self.positions_m)} stations"
                )

    @classmethod
    def line(cls, *xs: float, **kwargs: Any) -> "TopologySpec":
        """Stations on a line at the given x coordinates (paper style)."""
        return cls(positions_m=tuple((float(x), 0.0) for x in xs), **kwargs)

    @classmethod
    def chain(cls, n: int, spacing_m: float, **kwargs: Any) -> "TopologySpec":
        """``n`` stations in a line, ``spacing_m`` apart (multihop chain)."""
        if n < 2:
            raise ConfigurationError(f"a chain needs >= 2 stations, got {n}")
        if spacing_m <= 0:
            raise ConfigurationError(f"chain spacing must be > 0 m, got {spacing_m}")
        return cls(
            positions_m=tuple((i * float(spacing_m), 0.0) for i in range(n)),
            **kwargs,
        )

    @classmethod
    def grid(
        cls, rows: int, cols: int, spacing_m: float, **kwargs: Any
    ) -> "TopologySpec":
        """A ``rows`` x ``cols`` lattice, row-major station order."""
        if rows < 1 or cols < 1:
            raise ConfigurationError(
                f"grid needs rows >= 1 and cols >= 1, got {rows}x{cols}"
            )
        if spacing_m <= 0:
            raise ConfigurationError(f"grid spacing must be > 0 m, got {spacing_m}")
        spacing = float(spacing_m)
        return cls(
            positions_m=tuple(
                (col * spacing, row * spacing)
                for row in range(rows)
                for col in range(cols)
            ),
            **kwargs,
        )

    @classmethod
    def random(
        cls, n: int, spacing_m: float, seed: int, **kwargs: Any
    ) -> "TopologySpec":
        """``n`` stations uniform over a square with mean density
        matching one station per ``spacing_m``-sided cell.

        The square's side is ``spacing_m * sqrt(n)``, so the *density*
        (and therefore the mean neighbour count at any radius) stays
        fixed as ``n`` grows — exactly what the per-node-throughput-vs-
        density experiments need.  Same ``seed``, same layout, always.
        """
        if n < 1:
            raise ConfigurationError(f"random topology needs >= 1 station, got {n}")
        if spacing_m <= 0:
            raise ConfigurationError(
                f"random topology spacing must be > 0 m, got {spacing_m}"
            )
        side = float(spacing_m) * math.sqrt(n)
        # Layout generation is spec-level, not simulation-level: the
        # seed is pinned in the signature, so the draw is as auditable
        # as a literal position list (and cache-key stable).
        rng = random.Random(seed)
        return cls(
            positions_m=tuple(
                (rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)
            ),
            **kwargs,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "positions_m": [list(xy) for xy in self.positions_m],
            "fast_sigma_db": self.fast_sigma_db,
            "static_sigma_db": self.static_sigma_db,
            "weather": self.weather.to_dict() if self.weather is not None else None,
            "propagation": self.propagation,
            "mobility": [m.to_dict() for m in self.mobility],
            "medium": self.medium,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        _check_keys(data, cls, "topology")
        weather = data.get("weather")
        return cls(
            positions_m=_normalise_positions(data["positions_m"]),
            fast_sigma_db=_number(
                data.get("fast_sigma_db", DEFAULT_FAST_SIGMA_DB),
                "topology fast_sigma_db",
            ),
            static_sigma_db=_number(
                data.get("static_sigma_db", 0.0), "topology static_sigma_db"
            ),
            weather=WeatherSpec.from_dict(weather) if weather is not None else None,
            propagation=data.get("propagation"),
            mobility=tuple(
                MobilitySpec.from_dict(m) for m in data.get("mobility", ())
            ),
            medium=data.get("medium"),
        )


@dataclass(frozen=True)
class MacParamsSpec:
    """MAC contention-parameter overrides (the response-surface knobs).

    Every field defaults to ``None`` = "use the Table 1 constant from
    :class:`repro.core.params.MacParameters`".  A spec with explicit
    values builds a custom :class:`~repro.core.params.MacParameters`
    for the whole network — the same object both the DCF stations and
    the analytic model (:mod:`repro.analysis.analytic`) consume, so a
    swept point and its closed-form prediction can never disagree about
    the constants.

    ``difs_us`` left ``None`` follows the standard's identity
    ``DIFS = SIFS + 2 x slot`` whenever slot or SIFS is overridden (the
    802.11b defaults satisfy it: 10 + 2 x 20 = 50 µs).

    ``queue_frames`` overrides the per-station MAC queue depth; it
    takes precedence over the older ``StackSpec.mac_queue_frames``
    field so sweeps can address every MAC knob under one
    ``stack.mac.*`` prefix.
    """

    cw_min_slots: int | None = None
    cw_max_slots: int | None = None
    short_retry_limit: int | None = None
    long_retry_limit: int | None = None
    slot_time_us: float | None = None
    sifs_us: float | None = None
    difs_us: float | None = None
    queue_frames: int | None = None

    def __post_init__(self) -> None:
        _freeze_types(self, ("slot_time_us", "sifs_us", "difs_us"))
        for name in ("cw_min_slots", "cw_max_slots", "queue_frames"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ConfigurationError(
                    f"mac {name} must be an integer or null, got {value!r}"
                )
            if value is not None and value < 1:
                raise ConfigurationError(f"mac {name} must be >= 1, got {value}")
        for name in ("short_retry_limit", "long_retry_limit"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ConfigurationError(
                    f"mac {name} must be an integer or null, got {value!r}"
                )
            if value is not None and value < 0:
                raise ConfigurationError(f"mac {name} must be >= 0, got {value}")
        for name in ("slot_time_us", "sifs_us", "difs_us"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"mac {name} must be > 0 µs, got {value}")
        # Merge with the Table 1 defaults now so an inconsistent pair
        # (CWmin > CWmax, SIFS > DIFS) fails at spec construction, not
        # at build time deep inside a sweep.
        self.to_mac_parameters()

    @property
    def overrides_timing(self) -> bool:
        """True when any :class:`MacParameters` field is overridden."""
        return any(
            getattr(self, name) is not None
            for name in (
                "cw_min_slots", "cw_max_slots", "short_retry_limit",
                "long_retry_limit", "slot_time_us", "sifs_us", "difs_us",
            )
        )

    def to_mac_parameters(
        self, base: MacParameters | None = None
    ) -> MacParameters:
        """The effective :class:`MacParameters` (``base`` + overrides)."""
        if base is None:
            base = MacParameters()
        slot = base.slot_time_us if self.slot_time_us is None else self.slot_time_us
        sifs = base.sifs_us if self.sifs_us is None else self.sifs_us
        if self.difs_us is not None:
            difs = self.difs_us
        elif self.slot_time_us is None and self.sifs_us is None:
            difs = base.difs_us
        else:
            difs = sifs + 2.0 * slot
        return dataclasses.replace(
            base,
            slot_time_us=slot,
            sifs_us=sifs,
            difs_us=difs,
            cw_min_slots=(
                base.cw_min_slots if self.cw_min_slots is None else self.cw_min_slots
            ),
            cw_max_slots=(
                base.cw_max_slots if self.cw_max_slots is None else self.cw_max_slots
            ),
            short_retry_limit=(
                base.short_retry_limit
                if self.short_retry_limit is None
                else self.short_retry_limit
            ),
            long_retry_limit=(
                base.long_retry_limit
                if self.long_retry_limit is None
                else self.long_retry_limit
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "cw_min_slots": self.cw_min_slots,
            "cw_max_slots": self.cw_max_slots,
            "short_retry_limit": self.short_retry_limit,
            "long_retry_limit": self.long_retry_limit,
            "slot_time_us": self.slot_time_us,
            "sifs_us": self.sifs_us,
            "difs_us": self.difs_us,
            "queue_frames": self.queue_frames,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MacParamsSpec":
        _check_keys(data, cls, "mac")
        ints = {
            name: (
                None
                if data.get(name) is None
                else _integer(data[name], f"mac {name}")
            )
            for name in (
                "cw_min_slots", "cw_max_slots", "short_retry_limit",
                "long_retry_limit", "queue_frames",
            )
        }
        return cls(
            slot_time_us=_optional_number(
                data.get("slot_time_us"), "mac slot_time_us"
            ),
            sifs_us=_optional_number(data.get("sifs_us"), "mac sifs_us"),
            difs_us=_optional_number(data.get("difs_us"), "mac difs_us"),
            **ints,
        )


@dataclass(frozen=True)
class StackSpec:
    """Per-station PHY/MAC/transport configuration."""

    data_rate_mbps: float = 11.0
    rts_enabled: bool = False
    ack_policy: str = "always"
    #: One of :data:`RADIO_PRESETS`, or ``None`` for the calibrated default.
    radio: str | None = None
    short_retry_limit: int | None = None
    long_retry_limit: int | None = None
    mac_queue_frames: int = 200
    arf: bool = False
    #: MAC contention-parameter overrides (CWmin/CWmax, retry limits,
    #: slot/SIFS/DIFS, queue depth), or ``None`` for the Table 1
    #: defaults.  Mutually exclusive with the top-level
    #: ``short_retry_limit`` / ``long_retry_limit`` fields.
    mac: MacParamsSpec | None = None
    #: Retired reception-kernel choice.  There is one kernel now; the
    #: field stays so older spec files still load, and is validated so a
    #: typo still fails fast, but nothing reads it after validation.
    kernel: str | None = None
    #: Routing policy: ``"direct"`` (single-hop, the paper's test-bed) |
    #: ``"shortest-path"`` (hop-count BFS tables built from the topology
    #: at build time, strict no-route misses), or ``None`` for direct.
    routing: str | None = None

    def __post_init__(self) -> None:
        _freeze_types(self, ("data_rate_mbps",), ("rts_enabled", "arf"))
        Rate.from_mbps(self.data_rate_mbps)  # validates; raises ConfigurationError
        if self.ack_policy not in {policy.value for policy in AckPolicy}:
            raise ConfigurationError(
                f"unknown ack_policy {self.ack_policy!r}; accepted: "
                f"{sorted(policy.value for policy in AckPolicy)}"
            )
        if self.radio is not None and self.radio not in RADIO_PRESETS:
            raise ConfigurationError(
                f"unknown radio preset {self.radio!r}; "
                f"accepted: {list(RADIO_PRESETS)} (or null for calibrated)"
            )
        for name in ("short_retry_limit", "long_retry_limit"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.mac_queue_frames < 1:
            raise ConfigurationError(
                f"mac_queue_frames must be >= 1, got {self.mac_queue_frames}"
            )
        if self.kernel not in (None, "python", "numpy"):
            raise ConfigurationError(
                f"unknown reception kernel {self.kernel!r}; "
                "accepted: ['python', 'numpy'] or null (all run the one kernel)"
            )
        if self.routing is not None and self.routing not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {self.routing!r}; "
                f"accepted: {list(ROUTING_POLICIES)} (or null for direct)"
            )
        if self.mac is not None:
            for name in ("short_retry_limit", "long_retry_limit"):
                if (
                    getattr(self, name) is not None
                    and getattr(self.mac, name) is not None
                ):
                    raise ConfigurationError(
                        f"{name} is set both on the stack and on stack.mac; "
                        f"pick one (stack.mac.{name} is the sweepable form)"
                    )

    @property
    def effective_queue_frames(self) -> int:
        """MAC queue depth after the ``stack.mac`` override."""
        if self.mac is not None and self.mac.queue_frames is not None:
            return self.mac.queue_frames
        return self.mac_queue_frames

    def dot11_config(self) -> Dot11bConfig | None:
        """The protocol config this stack implies, ``None`` = defaults.

        Single source of truth for both sides of the conformance
        harness: :func:`repro.scenario.builder.build` hands this to
        every station, and :mod:`repro.analysis.analytic` computes its
        closed-form predictions from the very same object.
        """
        legacy: dict[str, int] = {}
        if self.short_retry_limit is not None:
            legacy["short_retry_limit"] = self.short_retry_limit
        if self.long_retry_limit is not None:
            legacy["long_retry_limit"] = self.long_retry_limit
        if self.mac is None or not self.mac.overrides_timing:
            if not legacy:
                return None
            return Dot11bConfig(mac=MacParameters(**legacy))
        base = MacParameters(**legacy) if legacy else MacParameters()
        return Dot11bConfig(mac=self.mac.to_mac_parameters(base))

    def to_dict(self) -> dict[str, Any]:
        return {
            "data_rate_mbps": self.data_rate_mbps,
            "rts_enabled": self.rts_enabled,
            "ack_policy": self.ack_policy,
            "radio": self.radio,
            "short_retry_limit": self.short_retry_limit,
            "long_retry_limit": self.long_retry_limit,
            "mac_queue_frames": self.mac_queue_frames,
            "arf": self.arf,
            "kernel": self.kernel,
            "routing": self.routing,
            "mac": self.mac.to_dict() if self.mac is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StackSpec":
        _check_keys(data, cls, "stack")
        short = data.get("short_retry_limit")
        long = data.get("long_retry_limit")
        return cls(
            data_rate_mbps=_number(
                data.get("data_rate_mbps", 11.0), "stack data_rate_mbps"
            ),
            rts_enabled=bool(data.get("rts_enabled", False)),
            ack_policy=str(data.get("ack_policy", "always")),
            radio=data.get("radio"),
            short_retry_limit=(
                None if short is None else _integer(short, "short_retry_limit")
            ),
            long_retry_limit=(
                None if long is None else _integer(long, "long_retry_limit")
            ),
            mac_queue_frames=_integer(
                data.get("mac_queue_frames", 200), "mac_queue_frames"
            ),
            arf=bool(data.get("arf", False)),
            kernel=data.get("kernel"),
            routing=data.get("routing"),
            mac=(
                MacParamsSpec.from_dict(data["mac"])
                if data.get("mac") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class FlowSpec:
    """One traffic flow between two station indices.

    ``kind`` selects the generator: ``cbr`` (:class:`~repro.apps.cbr.
    CbrSource` into a :class:`~repro.apps.sink.UdpSink`; ``rate_bps``
    of ``None`` means saturated), ``onoff`` (bursty UDP), or
    ``bulk-tcp`` (an ftp-like transfer).
    """

    kind: str
    src: int
    dst: int
    port: int = 5001
    payload_bytes: int = 512
    rate_bps: float | None = None
    start_s: float = 0.0
    timestamped: bool = False
    #: On-off shape (``onoff`` flows only).
    mean_on_s: float = 0.5
    mean_off_s: float = 0.5
    #: Transfer size (``bulk-tcp`` flows only); ``None`` streams forever.
    total_bytes: int | None = None

    def __post_init__(self) -> None:
        _freeze_types(
            self,
            ("rate_bps", "start_s", "mean_on_s", "mean_off_s"),
            ("timestamped",),
        )
        if self.kind not in FLOW_KINDS:
            raise ConfigurationError(
                f"unknown flow kind {self.kind!r}; accepted: {list(FLOW_KINDS)}"
            )
        if self.src < 0 or self.dst < 0:
            raise ConfigurationError("flow endpoints must be >= 0")
        if self.src == self.dst:
            raise ConfigurationError(
                f"flow needs two distinct stations, got src == dst == {self.src}"
            )
        if self.port <= 0:
            raise ConfigurationError(f"flow port must be > 0, got {self.port}")
        if self.payload_bytes <= 0:
            raise ConfigurationError(
                f"flow payload must be > 0 bytes, got {self.payload_bytes}"
            )
        if self.rate_bps is not None and self.rate_bps <= 0:
            raise ConfigurationError(
                f"flow rate must be > 0 bps (or null for saturated), "
                f"got {self.rate_bps}"
            )
        if self.start_s < 0:
            raise ConfigurationError(f"flow start must be >= 0 s, got {self.start_s}")
        if self.kind == "onoff":
            if self.rate_bps is None:
                raise ConfigurationError("onoff flows need an explicit rate_bps")
            if self.mean_on_s <= 0 or self.mean_off_s <= 0:
                raise ConfigurationError("mean ON/OFF periods must be positive")
            if self.start_s != 0:
                raise ConfigurationError(
                    "onoff flows start at t=0 (the burst phase is random); "
                    f"got start_s={self.start_s!r}"
                )
        if self.total_bytes is not None and self.total_bytes <= 0:
            raise ConfigurationError(
                f"total_bytes must be > 0 (or null), got {self.total_bytes}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "port": self.port,
            "payload_bytes": self.payload_bytes,
            "rate_bps": self.rate_bps,
            "start_s": self.start_s,
            "timestamped": self.timestamped,
            "mean_on_s": self.mean_on_s,
            "mean_off_s": self.mean_off_s,
            "total_bytes": self.total_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowSpec":
        _check_keys(data, cls, "flow")
        total = data.get("total_bytes")
        return cls(
            kind=str(data["kind"]),
            src=_integer(data["src"], "flow src"),
            dst=_integer(data["dst"], "flow dst"),
            port=_integer(data.get("port", 5001), "flow port"),
            payload_bytes=_integer(
                data.get("payload_bytes", 512), "flow payload_bytes"
            ),
            rate_bps=_optional_number(data.get("rate_bps"), "flow rate_bps"),
            start_s=_number(data.get("start_s", 0.0), "flow start_s"),
            timestamped=bool(data.get("timestamped", False)),
            mean_on_s=_number(data.get("mean_on_s", 0.5), "flow mean_on_s"),
            mean_off_s=_number(data.get("mean_off_s", 0.5), "flow mean_off_s"),
            total_bytes=None if total is None else _integer(total, "total_bytes"),
        )


@dataclass(frozen=True)
class TrafficSpec:
    """The workload: an ordered tuple of flows (order is wiring order)."""

    flows: tuple[FlowSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", tuple(self.flows))

    def to_dict(self) -> dict[str, Any]:
        return {"flows": [flow.to_dict() for flow in self.flows]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficSpec":
        _check_keys(data, cls, "traffic")
        return cls(
            flows=tuple(FlowSpec.from_dict(flow) for flow in data.get("flows", ()))
        )


@dataclass(frozen=True)
class FaultSpec:
    """Serialisable form of one :mod:`repro.faults` impairment.

    Unlike the live fault models, a spec carries only JSON primitives:
    a node-crash restart is expressed as ``restart_flows`` (indices into
    the scenario's flow list whose *source* application is recreated on
    reboot) instead of an ``on_reboot`` callback.
    """

    kind: str
    start_s: float
    duration_s: float | None = None
    # link-fade / link-blackout
    node_a: int = 0
    node_b: int = 1
    extra_loss_db: float | None = None
    bidirectional: bool = True
    # interference
    nodes: tuple[int, ...] | None = None
    noise_rise_db: float = 30.0
    # node-crash / clock-jitter
    node: int = 0
    restart_flows: tuple[int, ...] = ()
    sigma_ns: float = 2000.0

    def __post_init__(self) -> None:
        _freeze_types(
            self,
            ("start_s", "duration_s", "extra_loss_db", "noise_rise_db",
             "sigma_ns"),
            ("bidirectional",),
        )
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; accepted: {list(FAULT_KINDS)}"
            )
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "restart_flows", tuple(self.restart_flows))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "node_a": self.node_a,
            "node_b": self.node_b,
            "extra_loss_db": self.extra_loss_db,
            "bidirectional": self.bidirectional,
            "nodes": list(self.nodes) if self.nodes is not None else None,
            "noise_rise_db": self.noise_rise_db,
            "node": self.node,
            "restart_flows": list(self.restart_flows),
            "sigma_ns": self.sigma_ns,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        _check_keys(data, cls, "fault")
        nodes = data.get("nodes")
        return cls(
            kind=str(data["kind"]),
            start_s=_number(data["start_s"], "fault start_s"),
            duration_s=_optional_number(data.get("duration_s"), "fault duration_s"),
            node_a=_integer(data.get("node_a", 0), "fault node_a"),
            node_b=_integer(data.get("node_b", 1), "fault node_b"),
            extra_loss_db=_optional_number(
                data.get("extra_loss_db"), "fault extra_loss_db"
            ),
            bidirectional=bool(data.get("bidirectional", True)),
            nodes=None if nodes is None else tuple(int(n) for n in nodes),
            noise_rise_db=_number(data.get("noise_rise_db", 30.0), "noise_rise_db"),
            node=_integer(data.get("node", 0), "fault node"),
            restart_flows=tuple(int(i) for i in data.get("restart_flows", ())),
            sigma_ns=_number(data.get("sigma_ns", 2000.0), "fault sigma_ns"),
        )

    def to_fault(self, flows: Sequence[Any] | None = None) -> Any:
        """Instantiate the live :class:`repro.faults.models.Fault`.

        ``flows`` are the scenario's flow handles (needed only for
        ``node-crash`` faults with ``restart_flows``).
        """
        from repro.faults.models import (
            BLACKOUT_LOSS_DB,
            ClockJitter,
            InterferenceBurst,
            LinkFade,
            NodeCrash,
        )

        if self.kind in ("link-fade", "link-blackout"):
            extra = self.extra_loss_db
            if extra is None or self.kind == "link-blackout":
                extra = BLACKOUT_LOSS_DB
            return LinkFade(
                start_s=self.start_s,
                duration_s=self.duration_s,
                node_a=self.node_a,
                node_b=self.node_b,
                extra_loss_db=extra,
                bidirectional=self.bidirectional,
            )
        if self.kind == "interference":
            return InterferenceBurst(
                start_s=self.start_s,
                duration_s=self.duration_s,
                nodes=self.nodes,
                noise_rise_db=self.noise_rise_db,
            )
        if self.kind == "clock-jitter":
            return ClockJitter(
                start_s=self.start_s,
                duration_s=self.duration_s,
                node=self.node,
                sigma_ns=self.sigma_ns,
            )
        # node-crash
        on_reboot = None
        if self.restart_flows:
            if flows is None:
                raise FaultError(
                    "node-crash with restart_flows needs the scenario's "
                    "flow handles; build the fault via repro.scenario.build"
                )
            try:
                handles = [flows[index] for index in self.restart_flows]
            except IndexError as error:
                raise FaultError(
                    f"restart_flows {list(self.restart_flows)} out of range "
                    f"for {len(flows)} flows"
                ) from error

            def on_reboot(_node: Any) -> None:
                for handle in handles:
                    handle.restart_source()

        return NodeCrash(
            start_s=self.start_s,
            duration_s=self.duration_s,
            node=self.node,
            on_reboot=on_reboot,
        )

    def max_node_index(self) -> int:
        """Largest station index the fault touches (for early validation)."""
        if self.kind in ("link-fade", "link-blackout"):
            return max(self.node_a, self.node_b)
        if self.kind == "interference":
            return max(self.nodes) if self.nodes else 0
        return self.node


@dataclass(frozen=True)
class ObservabilitySpec:
    """What the flight recorder should do for this scenario.

    Everything defaults to off: an unobserved run pays one attribute
    read per instrumented hook point and nothing else.  ``audit`` turns
    on the packet-conservation ledger and the online invariant auditors
    (strict: violations raise :class:`~repro.errors.AuditError`);
    ``trace_digest`` streams a SHA-256 over the canonical encoding of
    the event stream; the two paths dump JSONL artefacts.
    """

    audit: bool = False
    trace_digest: bool = False
    trace_jsonl: str | None = None
    ledger_jsonl: str | None = None

    def __post_init__(self) -> None:
        _freeze_types(self, (), ("audit", "trace_digest"))
        for name in ("trace_jsonl", "ledger_jsonl"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigurationError(
                    f"observability {name} must be a path string or null, "
                    f"got {value!r}"
                )

    @property
    def enabled(self) -> bool:
        """True when any recorder feature is requested."""
        return bool(
            self.audit
            or self.trace_digest
            or self.trace_jsonl
            or self.ledger_jsonl
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "audit": self.audit,
            "trace_digest": self.trace_digest,
            "trace_jsonl": self.trace_jsonl,
            "ledger_jsonl": self.ledger_jsonl,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObservabilitySpec":
        _check_keys(data, cls, "observability")
        return cls(
            audit=bool(data.get("audit", False)),
            trace_digest=bool(data.get("trace_digest", False)),
            trace_jsonl=data.get("trace_jsonl"),
            ledger_jsonl=data.get("ledger_jsonl"),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, runnable scenario: everything but the code."""

    topology: TopologySpec
    stack: StackSpec = field(default_factory=StackSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    faults: tuple[FaultSpec, ...] = ()
    seed: int = 1
    duration_s: float = 10.0
    warmup_s: float = 0.0
    name: str = "scenario"
    observability: ObservabilitySpec = field(default_factory=ObservabilitySpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        import math

        if (
            not isinstance(self.duration_s, (int, float))
            or isinstance(self.duration_s, bool)
            or math.isnan(self.duration_s)
            or math.isinf(self.duration_s)
            or self.duration_s <= 0
        ):
            raise ConfigurationError(
                f"duration_s must be a positive finite number of seconds, "
                f"got {self.duration_s!r}"
            )
        if (
            not isinstance(self.warmup_s, (int, float))
            or isinstance(self.warmup_s, bool)
            or math.isnan(self.warmup_s)
            or self.warmup_s < 0
        ):
            raise ConfigurationError(
                f"warmup_s must be >= 0 s, got {self.warmup_s!r}"
            )
        if self.warmup_s > self.duration_s:
            raise ConfigurationError(
                f"warmup_s ({self.warmup_s:g}) must not exceed "
                f"duration_s ({self.duration_s:g})"
            )
        stations = len(self.topology.positions_m)
        for index, flow in enumerate(self.traffic.flows):
            if max(flow.src, flow.dst) >= stations:
                raise ConfigurationError(
                    f"flow {index} ({flow.src}->{flow.dst}) references a "
                    f"station index beyond the {stations}-station topology"
                )
        for fault in self.faults:
            if fault.max_node_index() >= stations:
                raise ConfigurationError(
                    f"{fault.kind} fault references station index "
                    f"{fault.max_node_index()}, but the topology has "
                    f"{stations} stations"
                )
            for flow_index in fault.restart_flows:
                if flow_index >= len(self.traffic.flows):
                    raise ConfigurationError(
                        f"{fault.kind} fault restarts flow {flow_index}, but "
                        f"the scenario has {len(self.traffic.flows)} flows"
                    )
        # After validation (which rejects bools) so `duration_s=True`
        # still fails instead of silently becoming 1.0.
        _freeze_types(self, ("duration_s", "warmup_s"))

    def to_dict(self) -> dict[str, Any]:
        """Versioned, JSON-ready representation (all fields explicit)."""
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "topology": self.topology.to_dict(),
            "stack": self.stack.to_dict(),
            "traffic": self.traffic.to_dict(),
            "faults": [fault.to_dict() for fault in self.faults],
            "seed": self.seed,
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "observability": self.observability.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported scenario spec version {version!r}; "
                f"this build reads version {SPEC_VERSION}"
            )
        _check_keys(data, cls, "scenario")
        if "topology" not in data:
            raise ConfigurationError("scenario spec needs a 'topology' section")
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            stack=StackSpec.from_dict(data.get("stack", {})),
            traffic=TrafficSpec.from_dict(data.get("traffic", {})),
            faults=tuple(FaultSpec.from_dict(f) for f in data.get("faults", ())),
            seed=_integer(data.get("seed", 1), "scenario seed"),
            duration_s=_number(data.get("duration_s", 10.0), "scenario duration_s"),
            warmup_s=_number(data.get("warmup_s", 0.0), "scenario warmup_s"),
            name=str(data.get("name", "scenario")),
            observability=ObservabilitySpec.from_dict(
                data.get("observability", {})
            ),
        )

    def canonical_json(self) -> str:
        """The canonical serialisation the sweep cache keys on."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_json(self, indent: int | None = 2) -> str:
        """Human-friendly JSON (write this to spec files)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid scenario JSON: {error}") from error
        if not isinstance(data, dict):
            raise ConfigurationError("scenario spec must be a JSON object")
        return cls.from_dict(data)


def _set_in(node: Any, segments: list[str], value: Any, full_key: str) -> None:
    """Set a dotted-path key inside a ``to_dict`` document, strictly."""
    segment = segments[0]
    if isinstance(node, list):
        try:
            index = int(segment)
        except ValueError:
            raise ConfigurationError(
                f"override {full_key!r}: {segment!r} is not a list index"
            ) from None
        if not 0 <= index < len(node):
            raise ConfigurationError(
                f"override {full_key!r}: index {index} out of range "
                f"(list has {len(node)} entries)"
            )
        if len(segments) == 1:
            node[index] = value
        else:
            _set_in(node[index], segments[1:], value, full_key)
        return
    if isinstance(node, dict):
        if segment not in node or segment == "version":
            accepted = sorted(key for key in node if key != "version")
            raise ConfigurationError(
                f"unknown override key {full_key!r} (no field {segment!r}); "
                f"accepted here: {accepted}"
            )
        if len(segments) == 1:
            node[segment] = value
        elif node[segment] is None:
            raise ConfigurationError(
                f"override {full_key!r}: {segment!r} is null; set the whole "
                f"object (e.g. --set {segment}='{{...}}') instead"
            )
        else:
            _set_in(node[segment], segments[1:], value, full_key)
        return
    raise ConfigurationError(
        f"override {full_key!r}: cannot descend into a "
        f"{type(node).__name__} at {segment!r}"
    )


def apply_overrides(
    spec: ScenarioSpec, overrides: Mapping[str, Any]
) -> ScenarioSpec:
    """A new spec with dotted-path overrides applied.

    Keys address the ``to_dict`` document (``"stack.rts_enabled"``,
    ``"traffic.flows.0.payload_bytes"``); unknown keys raise
    :class:`~repro.errors.ConfigurationError` listing what is accepted,
    and the updated document is fully re-validated.
    """
    document = spec.to_dict()
    for key, value in overrides.items():
        segments = [segment for segment in key.split(".") if segment]
        if not segments:
            raise ConfigurationError(f"empty override key {key!r}")
        _set_in(document, segments, value, key)
    return ScenarioSpec.from_dict(document)


@dataclass(frozen=True)
class SweepAxis:
    """One override axis of a sweep: a dotted key and its values."""

    key: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError(f"sweep axis {self.key!r} has no values")

    def to_dict(self) -> dict[str, Any]:
        return {"key": self.key, "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxis":
        _check_keys(data, cls, "sweep axis")
        return cls(key=str(data["key"]), values=tuple(data["values"]))


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario and the axes to sweep it over."""

    base: ScenarioSpec
    axes: tuple[SweepAxis, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))

    def expand(self) -> list[ScenarioSpec]:
        """Every scenario of the grid, first axis slowest (row-major)."""
        if not self.axes:
            return [self.base]
        grids = product(*(axis.values for axis in self.axes))
        return [
            apply_overrides(
                self.base,
                {axis.key: value for axis, value in zip(self.axes, combo)},
            )
            for combo in grids
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported sweep spec version {version!r}; "
                f"this build reads version {SPEC_VERSION}"
            )
        _check_keys(data, cls, "sweep")
        return cls(
            base=ScenarioSpec.from_dict(data["base"]),
            axes=tuple(SweepAxis.from_dict(a) for a in data.get("axes", ())),
        )
