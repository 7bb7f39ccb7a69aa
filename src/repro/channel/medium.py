"""The shared broadcast wireless medium.

The medium connects transceivers.  When one transmits, the medium samples
the channel model once per (transmitter, receiver) pair, converts the loss
into a received power, and — unless the signal is below the delivery
floor — delivers ``signal start`` and ``signal end`` events to the
receiver after the propagation delay.  Receivers decide for themselves
what a signal means (carrier sense, preamble lock, interference).

Two reception-event generation paths exist, selected by
:func:`resolve_medium` (the ``REPRO_MEDIUM`` environment variable, or a
``TopologySpec.medium`` spec pin):

* ``dense`` — the reference path: one pass over every attached device
  per frame, O(N) per transmission and O(N²) pair-cache growth.
* ``spatial`` — a :class:`GridIndex` buckets devices into cells sized by
  a conservative *cull radius* (the distance at which the strongest
  possible arrival falls below the delivery floor, solved from the tx
  power, the floor and the propagation model).  Devices provably below
  the floor are culled without touching their pair-cache entries or the
  scheduler, so per-frame work and cache growth track the *neighbour*
  count instead of N.

The spatial path is bit-identical to the dense path by construction:

* with per-frame fast shadowing active, the dense path consumes one RNG
  draw per receiver, so the spatial path walks all devices in the same
  index order drawing identically and uses the cull radius only to skip
  the heavy geometry/schedule work for provably-dead links;
* with fast shadowing off, one frame-level variable-loss sample decides
  whether culling is safe for the whole frame (the true O(neighbours)
  path) or the frame degrades to an exact full pass;
* static shadowing or installed loss hooks disable culling outright —
  both are sampled per pair, so skipping pairs would change draw order.

``auto`` (the default) uses the spatial path once the device count
reaches :data:`AUTO_SPATIAL_CUTOFF`; below that, the dense pass is
cheaper than maintaining the index.  Because both paths produce the same
events, the knob is purely a performance choice.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import insort
from typing import Any, Callable, Protocol

from repro.channel.propagation import SPEED_OF_LIGHT_M_S
from repro.channel.shadowing import ChannelModel, Position, distance_m
from repro.core.range_model import solve_range_m
from repro.errors import ConfigurationError, MediumError
from repro.sim.engine import Simulator
from repro.units import NS_PER_S

#: Environment variable selecting the reception-event generation path.
MEDIUM_ENV = "REPRO_MEDIUM"

#: Medium modes accepted by :func:`resolve_medium` (besides ``auto``).
MEDIUMS = ("dense", "spatial")

#: Device count at which ``auto`` switches to the spatial index.  Below
#: this the dense pass beats the index bookkeeping; at or above it the
#: culling win dominates.  Purely a performance threshold: both paths
#: emit identical events.
AUTO_SPATIAL_CUTOFF = 16

#: Margin added to the cull-radius link budget.  A frame is only culled
#: at a given radius when its actual variable loss keeps the bound valid,
#: so the guard does not affect correctness — it keeps common small
#: channel *gains* (weather good days, shallow fast-shadowing draws)
#: from forcing the exact full pass.  Candidate count grows with the
#: guarded radius *squared*, so the margin stays modest.
CULL_GUARD_DB = 3.0

#: Cull radii beyond this are useless (every plausible field fits inside
#: one cell) — the medium reports "no finite radius" and stays dense.
MAX_CULL_RADIUS_M = 20_000.0


def resolve_medium(preference: str | None = None) -> str:
    """Pick the medium mode: explicit preference, else environment.

    ``preference`` (e.g. from a scenario spec) wins over the
    ``REPRO_MEDIUM`` environment variable.  ``auto`` resolves to
    itself: the profitable choice depends on the attached device count,
    which the medium only knows at transmit time (see
    :data:`AUTO_SPATIAL_CUTOFF`).  An explicit unknown name is
    a configuration error, never a silent fallback.
    """
    name = preference if preference is not None else os.environ.get(MEDIUM_ENV, "auto")
    name = name.strip().lower() or "auto"
    if name != "auto" and name not in MEDIUMS:
        raise ConfigurationError(
            f"unknown medium mode {name!r}; expected one of "
            f"{', '.join(MEDIUMS)} or auto"
        )
    return name


class Signal:
    """One frame in flight on the medium."""

    __slots__ = ("signal_id", "source", "frame", "tx_power_dbm", "start_ns",
                 "end_ns", "duration_ns")
    #: Fallback id stream for directly constructed signals (tests,
    #: tools).  The medium passes ``signal_id`` explicitly from its own
    #: per-instance counter, so two live mediums in one process — e.g.
    #: a sweep worker running scenarios back to back — never perturb
    #: each other's id sequences.
    # simlint: waive[SL401] -- deliberate shared fallback: only direct
    # Signal() construction (tests, tools) draws from it; every signal a
    # Medium emits carries an explicit per-medium id, so simulations
    # never observe this counter's state.
    _ids = itertools.count(1)

    def __init__(
        self,
        source: "MediumDevice",
        frame: Any,
        tx_power_dbm: float,
        start_ns: int,
        end_ns: int,
        signal_id: int | None = None,
    ):
        self.signal_id = signal_id if signal_id is not None else next(Signal._ids)
        self.source = source
        self.frame = frame
        self.tx_power_dbm = tx_power_dbm
        self.start_ns = start_ns
        self.end_ns = end_ns
        #: Airtime of the signal, cached at construction — overlap and
        #: interference bookkeeping read it once per concurrent signal.
        self.duration_ns = end_ns - start_ns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Signal(id={self.signal_id}, src={getattr(self.source, 'name', '?')}, "
            f"{self.start_ns}-{self.end_ns}ns)"
        )


class MediumDevice(Protocol):
    """What the medium requires of an attached transceiver.

    Position changes should be reported via :meth:`Medium.notify_moved`
    (the :class:`~repro.phy.transceiver.Transceiver` position setter does
    this automatically); the spatial index self-heals unreported moves
    with a per-frame identity sweep, but eviction of stale pair-cache
    rows only happens on notification.
    """

    position_m: Position

    def on_signal_start(self, signal: Signal, rx_power_dbm: float) -> None:
        """A signal's first energy reaches this device."""

    def on_signal_end(self, signal: Signal) -> None:
        """A previously started signal fades out at this device."""


#: Extra loss (dB) injected on one directed (source, receiver) pair at a
#: given time — the fault layer's hook into the medium.
LossHook = Callable[["MediumDevice", "MediumDevice", int], float]


class GridIndex:
    """Uniform-grid spatial index over attached-device positions.

    Cells are squares of ``cell_m`` metres keyed by their integer grid
    coordinates; each bucket is a **list** of device indices kept in
    ascending order, so every query result has a reproducible order by
    construction (grid buckets must never feed the scheduler from set
    iteration).  The index stores the exact position tuple each device
    was bucketed under, so a cheap identity sweep detects moves that
    bypassed :meth:`Medium.notify_moved`.
    """

    __slots__ = ("cell_m", "_buckets", "_cells", "_positions")

    def __init__(self, cell_m: float):
        if cell_m <= 0:
            raise ConfigurationError(f"grid cell size must be > 0 m, got {cell_m}")
        self.cell_m = cell_m
        self._buckets: dict[tuple[int, int], list[int]] = {}
        self._cells: list[tuple[int, int]] = []
        self._positions: list[Position] = []

    def __len__(self) -> int:
        return len(self._cells)

    def _cell_of(self, position: Position) -> tuple[int, int]:
        cell = self.cell_m
        return (int(position[0] // cell), int(position[1] // cell))

    def add(self, index: int, position: Position) -> None:
        """Bucket a newly attached device (indices arrive in order)."""
        if index != len(self._cells):
            raise MediumError(
                f"grid index expected device index {len(self._cells)}, got {index}"
            )
        cell = self._cell_of(position)
        insort(self._buckets.setdefault(cell, []), index)
        self._cells.append(cell)
        self._positions.append(position)

    def move(self, index: int, position: Position) -> None:
        """Re-bucket one device after a position change."""
        self._positions[index] = position
        cell = self._cell_of(position)
        old = self._cells[index]
        if cell == old:
            return
        bucket = self._buckets[old]
        bucket.remove(index)
        if not bucket:
            del self._buckets[old]
        insort(self._buckets.setdefault(cell, []), index)
        self._cells[index] = cell

    def repair(self, devices: list["MediumDevice"]) -> None:
        """Re-bucket any device whose position no longer matches.

        Not part of the hot path: every supported mover notifies the
        medium (:attr:`Transceiver.position_m` is a notifying property,
        and :class:`MediumDevice` makes the contract explicit), so the
        grid stays fresh without per-frame sweeps.  This O(N) identity
        sweep exists for test harnesses and diagnostics that mutate
        positions behind the medium's back.
        """
        positions = self._positions
        for index, device in enumerate(devices):
            position = device.position_m
            if position is not positions[index]:
                self.move(index, position)

    def near(self, position: Position, radius_m: float) -> list[int]:
        """Device indices possibly within ``radius_m``, ascending.

        Every device within the radius is guaranteed present (cells
        farther than ``reach`` are separated by more than
        ``reach * cell_m >= radius_m`` on an axis); devices slightly
        beyond may be included — callers re-check exactly.
        """
        cell = self.cell_m
        reach = max(1, int(math.ceil(radius_m / cell)))
        cx, cy = self._cell_of(position)
        buckets = self._buckets
        out: list[int] = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                bucket = buckets.get((gx, gy))
                if bucket:
                    out.extend(bucket)
        out.sort()
        return out


class Medium:
    """Broadcast medium over one channel model.

    ``delivery_floor_dbm`` suppresses events for signals so weak they can
    affect neither carrier sensing nor interference, keeping the event
    count linear in *relevant* links.  ``mode`` picks the event
    generation path (see the module docstring); ``None`` defers to the
    ``REPRO_MEDIUM`` environment variable.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: ChannelModel,
        delivery_floor_dbm: float = -110.0,
        mode: str | None = None,
    ):
        self._sim = sim
        self._channel = channel
        self._delivery_floor_dbm = delivery_floor_dbm
        self._mode = resolve_medium(mode)
        self._devices: list[MediumDevice] = []
        # Device identity is a per-medium, monotonically assigned index
        # (the device's position in ``_devices``).  The dict holds a
        # strong reference to every attached device and hashes it by
        # object identity, so — unlike the ``id()`` keys this replaces —
        # a detached-and-collected device can never alias a newly
        # created one after CPython reuses its id.  The indices are also
        # stable run to run, which id() values never were, so anything
        # keyed on them (the pair cache, static shadowing draws) is
        # reproducible by construction.
        self._device_indices: dict[MediumDevice, int] = {}
        self._loss_hooks: list[LossHook] = []
        # Per-medium id stream: signal ids restart at 1 for every medium,
        # so runs of the same scenario produce bit-identical traces even
        # with several mediums alive in one process (parallel workers,
        # test suites).  Mutating ``Signal._ids`` here instead would let
        # two live mediums corrupt each other's sequences.
        self._signal_ids = itertools.count(1)
        #: (source_index, receiver_index) -> (tx_pos, rx_pos,
        #: base_loss_db, delay_ns).  Positions are immutable tuples
        #: replaced on every move, so an identity check on the stored
        #: tuples detects mobility without any explicit invalidation
        #: protocol; rows are additionally *evicted* when a move is
        #: reported via :meth:`notify_moved`, so long mobile runs never
        #: accumulate stale geometry (and the spatial path never pays
        #: for pairs that stopped being neighbours).
        self._pair_cache: dict[
            tuple[int, int], tuple[Position, Position, float, int]
        ] = {}
        #: index -> indices it shares a pair-cache row with (either
        #: direction) — the reverse map that makes eviction O(degree).
        self._pair_partners: dict[int, set[int]] = {}
        self._grid: GridIndex | None = None
        #: tx power -> (cull radius, strongest possible arrival at that
        #: radius before variable loss), or None when no useful radius
        #: exists for that power.
        self._cull_cache: dict[float, tuple[float, float] | None] = {}

    @property
    def channel(self) -> ChannelModel:
        """The channel model the medium samples."""
        return self._channel

    @property
    def mode(self) -> str:
        """The resolved medium mode: ``dense``, ``spatial`` or ``auto``."""
        return self._mode

    @property
    def devices(self) -> tuple[MediumDevice, ...]:
        """All attached devices."""
        return tuple(self._devices)

    def attach(self, device: MediumDevice) -> None:
        """Connect a transceiver to this medium.

        The device is assigned the next per-medium index; indices are
        never reused, so caches keyed on them cannot alias devices.
        """
        if device in self._device_indices:
            raise MediumError(f"device {device!r} is already attached")
        index = len(self._devices)
        self._device_indices[device] = index
        self._devices.append(device)
        if self._grid is not None:
            self._grid.add(index, device.position_m)

    def notify_moved(self, device: MediumDevice) -> None:
        """Report a position change: evict stale pairs, re-bucket.

        Safe to call for devices not (yet) attached — the transceiver's
        position setter fires during construction, before ``attach``.
        """
        index = self._device_indices.get(device)
        if index is None:
            return
        self._evict_pairs(index)
        if self._grid is not None:
            self._grid.move(index, device.position_m)

    def _evict_pairs(self, index: int) -> None:
        """Drop every pair-cache row touching ``index`` (O(degree))."""
        partners = self._pair_partners.pop(index, None)
        if not partners:
            return
        pair_cache = self._pair_cache
        all_partners = self._pair_partners
        for other in sorted(partners):
            pair_cache.pop((index, other), None)
            pair_cache.pop((other, index), None)
            reverse = all_partners.get(other)
            if reverse is not None:
                reverse.discard(index)
                if not reverse:
                    del all_partners[other]

    def add_loss_hook(self, hook: LossHook) -> None:
        """Register extra per-link loss (fault injection: fades, blackouts).

        ``hook(source, receiver, time_ns)`` returns the additional loss
        in dB for that directed pair; hooks are summed on top of the
        channel model's own loss.  While any hook is installed the
        medium stays on the dense path: hooks are sampled per pair, so
        culling pairs would change what they observe.
        """
        if hook in self._loss_hooks:
            raise MediumError("loss hook is already installed")
        self._loss_hooks.append(hook)

    def remove_loss_hook(self, hook: LossHook) -> None:
        """Unregister a loss hook.  Safe to call if never installed."""
        if hook in self._loss_hooks:
            self._loss_hooks.remove(hook)

    def propagation_delay_ns(self, from_pos: Position, to_pos: Position) -> int:
        """Signal propagation delay between two positions."""
        seconds = distance_m(from_pos, to_pos) / SPEED_OF_LIGHT_M_S
        return max(1, round(seconds * NS_PER_S))

    # ------------------------------------------------------------ culling

    def cull_radius_m(self, tx_power_dbm: float) -> float | None:
        """Conservative interference radius for one tx power, or None.

        The distance at which the *mean* received power falls
        :data:`CULL_GUARD_DB` below the delivery floor, solved from the
        propagation model by bisection.  Beyond this distance a frame
        can only be heard if the variable loss is a gain exceeding the
        guard — which the transmit path re-checks exactly, frame by
        frame, before trusting the radius.
        """
        entry = self._cull_entry(tx_power_dbm)
        return entry[0] if entry is not None else None

    def _cull_entry(self, tx_power_dbm: float) -> tuple[float, float] | None:
        try:
            return self._cull_cache[tx_power_dbm]
        except KeyError:
            pass
        radius = solve_range_m(
            self._channel.mean_loss_db,
            tx_power_dbm,
            self._delivery_floor_dbm - CULL_GUARD_DB,
            lo_m=0.1,
            hi_m=MAX_CULL_RADIUS_M,
        )
        entry: tuple[float, float] | None
        if radius >= MAX_CULL_RADIUS_M:
            entry = None
        else:
            # The bound below is what correctness rests on: any device
            # beyond ``radius`` receives at most this power before the
            # variable term, whatever distance the solver converged to.
            entry = (radius, tx_power_dbm - self._channel.mean_loss_db(radius))
        self._cull_cache[tx_power_dbm] = entry
        return entry

    def _spatial_entry(self, tx_power_dbm: float) -> tuple[float, float] | None:
        """The cull entry when the spatial path may run, else None.

        Static shadowing and loss hooks are per-pair samples: skipping
        pairs would change RNG draw order / hook observations, so either
        one pins the medium to the dense reference path.
        """
        mode = self._mode
        if mode == "dense":
            return None
        if mode == "auto" and len(self._devices) < AUTO_SPATIAL_CUTOFF:
            return None
        if self._loss_hooks or self._channel.static_sigma_db != 0.0:
            return None
        return self._cull_entry(tx_power_dbm)

    # ----------------------------------------------------------- transmit

    def transmit(
        self,
        source: MediumDevice,
        frame: Any,
        duration_ns: int,
        tx_power_dbm: float,
    ) -> Signal:
        """Put a frame on the air and schedule its arrival everywhere.

        Returns the :class:`Signal`, whose ``end_ns`` tells the caller when
        its own transmission completes.
        """
        source_index = self._device_indices.get(source)
        if source_index is None:
            raise MediumError("transmitting device is not attached to the medium")
        if duration_ns <= 0:
            raise MediumError(f"signal duration must be > 0 ns, got {duration_ns}")
        now = self._sim.now_ns
        signal = Signal(
            source,
            frame,
            tx_power_dbm,
            now,
            now + duration_ns,
            signal_id=next(self._signal_ids),
        )
        cull = self._spatial_entry(tx_power_dbm)
        if cull is not None:
            self._transmit_spatial(signal, source, source_index, cull)
        else:
            self._transmit_dense(signal, source, source_index)
        return signal

    def _transmit_dense(
        self, signal: Signal, source: MediumDevice, source_index: int
    ) -> None:
        """Reference path: one pass per attached receiver per frame.

        The geometry (path loss + static shadowing + propagation delay)
        is cached per directed pair and revalidated by position-tuple
        identity; only the per-frame terms are computed fresh.
        """
        now = signal.start_ns
        duration_ns = signal.duration_ns
        tx_power_dbm = signal.tx_power_dbm
        channel = self._channel
        hooks = self._loss_hooks
        pair_cache = self._pair_cache
        pair_partners = self._pair_partners
        floor_dbm = self._delivery_floor_dbm
        # Arrival events are fire-and-forget (the medium never cancels
        # them), so the slot API skips the per-event handle allocation.
        schedule = self._sim.schedule_slot
        source_pos = source.position_m
        for device_index, device in enumerate(self._devices):
            if device is source:
                continue
            device_pos = device.position_m
            pair_key = (source_index, device_index)
            entry = pair_cache.get(pair_key)
            if (
                entry is None
                or entry[0] is not source_pos
                or entry[1] is not device_pos
            ):
                base_db = channel.base_loss_db(
                    source_pos, device_pos, source_index, device_index
                )
                delay_ns = self.propagation_delay_ns(source_pos, device_pos)
                entry = (source_pos, device_pos, base_db, delay_ns)
                pair_cache[pair_key] = entry
                pair_partners.setdefault(source_index, set()).add(device_index)
                pair_partners.setdefault(device_index, set()).add(source_index)
            loss_db = entry[2] + channel.variable_loss_db(now)
            if hooks:
                for hook in hooks:
                    loss_db += hook(source, device, now)
            rx_power_dbm = tx_power_dbm - loss_db
            if rx_power_dbm < floor_dbm:
                continue
            delay_ns = entry[3]
            schedule(delay_ns, device.on_signal_start, signal, rx_power_dbm)
            schedule(delay_ns + duration_ns, device.on_signal_end, signal)

    def _transmit_spatial(
        self,
        signal: Signal,
        source: MediumDevice,
        source_index: int,
        cull: tuple[float, float],
    ) -> None:
        """Spatial path: cull receivers provably below the floor.

        Emits the exact event sequence of :meth:`_transmit_dense` — same
        receivers, same powers, same schedule-call order, same RNG draw
        sequence — while skipping geometry, pair-cache and scheduler
        work for devices beyond the cull radius.
        """
        devices = self._devices
        if len(devices) <= 1:
            return
        radius_m, cull_power_dbm = cull
        grid = self._grid
        if grid is None:
            # First spatial frame: build with cells at half this radius —
            # a (2.5r)^2 candidate square instead of (3r)^2 for whole-
            # radius cells.  Later radii need no rebuild — ``near``
            # scales its reach to any radius against any cell size.
            grid = GridIndex(max(radius_m / 2.0, 1.0))
            for index, device in enumerate(devices):
                grid.add(index, device.position_m)
            self._grid = grid
        now = signal.start_ns
        duration_ns = signal.duration_ns
        tx_power_dbm = signal.tx_power_dbm
        channel = self._channel
        pair_cache = self._pair_cache
        pair_partners = self._pair_partners
        floor_dbm = self._delivery_floor_dbm
        schedule = self._sim.schedule_slot
        source_pos = source.position_m

        if channel.fast_sigma_db > 0.0:
            # The dense path draws one fast-shadowing sample per
            # receiver, so the draw sequence is part of the contract:
            # walk every device in index order consuming draws
            # identically, and use the radius only to skip the heavy
            # per-pair work when the draw cannot rescue a dead link.
            near_flags = bytearray(len(devices))
            for index in grid.near(source_pos, radius_m):
                near_flags[index] = 1
            for device_index, device in enumerate(devices):
                if device is source:
                    continue
                variable_db = channel.variable_loss_db(now)
                if (
                    not near_flags[device_index]
                    and cull_power_dbm - variable_db < floor_dbm
                ):
                    continue
                device_pos = device.position_m
                pair_key = (source_index, device_index)
                entry = pair_cache.get(pair_key)
                if (
                    entry is None
                    or entry[0] is not source_pos
                    or entry[1] is not device_pos
                ):
                    base_db = channel.base_loss_db(
                        source_pos, device_pos, source_index, device_index
                    )
                    delay_ns = self.propagation_delay_ns(source_pos, device_pos)
                    entry = (source_pos, device_pos, base_db, delay_ns)
                    pair_cache[pair_key] = entry
                    pair_partners.setdefault(source_index, set()).add(device_index)
                    pair_partners.setdefault(device_index, set()).add(source_index)
                # Same expression tree as the dense path — bit-identical
                # floats require identical rounding order.
                loss_db = entry[2] + variable_db
                rx_power_dbm = tx_power_dbm - loss_db
                if rx_power_dbm < floor_dbm:
                    continue
                delay_ns = entry[3]
                schedule(delay_ns, device.on_signal_start, signal, rx_power_dbm)
                schedule(delay_ns + duration_ns, device.on_signal_end, signal)
            return

        # No fast shadowing: the variable term is frame-wide (weather
        # only; the dense path's first variable_loss_db call per frame
        # performs any weather update, repeats return held state), so one
        # sample decides culling for the whole frame.  This is the true
        # O(neighbours) path.
        variable_db = channel.variable_loss_db(now)
        if cull_power_dbm - variable_db < floor_dbm:
            candidates = grid.near(source_pos, radius_m)
        else:
            # The variable term is a gain larger than the guard: the
            # radius cannot be trusted this frame — exact full pass.
            candidates = range(len(devices))
        for device_index in candidates:
            device = devices[device_index]
            if device is source:
                continue
            device_pos = device.position_m
            pair_key = (source_index, device_index)
            entry = pair_cache.get(pair_key)
            if (
                entry is None
                or entry[0] is not source_pos
                or entry[1] is not device_pos
            ):
                base_db = channel.base_loss_db(
                    source_pos, device_pos, source_index, device_index
                )
                delay_ns = self.propagation_delay_ns(source_pos, device_pos)
                entry = (source_pos, device_pos, base_db, delay_ns)
                pair_cache[pair_key] = entry
                pair_partners.setdefault(source_index, set()).add(device_index)
                pair_partners.setdefault(device_index, set()).add(source_index)
            loss_db = entry[2] + variable_db
            rx_power_dbm = tx_power_dbm - loss_db
            if rx_power_dbm < floor_dbm:
                continue
            delay_ns = entry[3]
            schedule(delay_ns, device.on_signal_start, signal, rx_power_dbm)
            schedule(delay_ns + duration_ns, device.on_signal_end, signal)
