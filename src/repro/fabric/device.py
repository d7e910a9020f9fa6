"""The physical FPGA die: persistent analog state across tenants.

:class:`FpgaDevice` is the central object of the vulnerability.  Its
per-segment BTI state lives in the *device*, keyed by physical segment
identity, and survives design loads, design wipes and tenant changes.
``wipe()`` does exactly what the cloud provider's scrubbing does: it
destroys all logical state (the loaded design and its values) -- and
nothing else.  The analog imprint remains, which is the paper's entire
point.

Time advances through :meth:`advance_hours`: every segment bound to a
net of the loaded design experiences that net's activity (static hold,
toggling, or floating), every other known segment anneals, and the die's
effective age accumulates while powered.

Lazy aging: a device racked into a cloud region is *bound* to the
region's append-only timeline of clock intervals
(:class:`~repro.cloud.provider.RegionTimeline`) and carries only its
position in it.  :meth:`sync` replays the pending intervals -- exactly
the ``advance_hours`` calls an eager walker would have made, in the
same order -- and every observation or mutation of device state
(loading, wiping, delay reads, voltage changes) syncs first, so lazy
aging is bit-identical to the eager walker (the ``EagerProvider``
oracle in ``tests/oracles/aging.py``).  A device with no materialised
analog state skips the replay in O(1): its ``sim_hours`` fast-forwards
along the timeline's identically-accumulated clock.

Segments materialise one request at a time
(:meth:`FpgaDevice.materialise_batch`).  A request may span several
devices that share a store, as when a prober reads the same route bank
on a whole rented batch of boards
(:meth:`FpgaDevice.read_route_deltas`); idle devices catch up together
(:meth:`FpgaDevice.catch_up_idle`).

Segments register into a
:class:`~repro.physics.pool_array.SegmentBtiArray`; routed nets are
grouped by activity class (static-1, static-0, toggling-by-duty, idle),
so one interval is a handful of masked array updates, and
``segment_state`` returns thin views into the arrays.  The test oracle
``tests/oracles/aging.py`` (``reference_aging()``) keeps the per-object
walk this replaced -- one :class:`~repro.physics.bti.SegmentBti` per
segment -- and the equivalence suite pins the two bit-identical (same
RNG draws at materialisation, same numpy transcendentals in the
kinetics).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import FabricError
from repro.fabric.bitstream import Bitstream
from repro.fabric.geometry import FabricGrid
from repro.fabric.netlist import NetActivity
from repro.fabric.parts import PartDescriptor
from repro.fabric.routing import Route, SegmentId
from repro.fabric.segments import SEGMENT_LIBRARY
from repro.fabric.thermal import ThermalModel
from repro.observability.metrics import registry
from repro.physics.aging import NEW_PART, WearProfile
from repro.physics.constants import REFERENCE_VOLTAGE_V
from repro.physics.delay import TransitionDelays
from repro.physics.pool_array import (
    FleetAgingArray,
    SegmentBtiArray,
    SegmentBtiSlot,
)
from repro.physics.variation import ProcessVariation
from repro.rng import SeedLike, make_rng

#: Fractional delay increase per kelvin of junction temperature.  Applies
#: (almost) equally to rising and falling transitions, so it nearly
#: cancels in the falling-minus-rising observable; the residual is a
#: realistic cloud noise source.
DELAY_TEMP_COEFF_PER_K = 2.0e-4

#: Junction temperature reference for the delay temperature coefficient.
_DELAY_TEMP_REF_K = 338.15

_device_ids = itertools.count(1)

#: Nominal (delay, burn amplitude) of each wire class, in ps, keyed by
#: the class's name: a str hash is cached, an ``Enum`` hash is a Python
#: call per segment.
_NOMINAL = {
    kind._name_: (spec.delay_ps, spec.burn_amplitude_ps)
    for kind, spec in SEGMENT_LIBRARY.items()
}


class SegmentRequest:
    """A segment sequence prepared once for materialisation.

    ``distinct`` holds the requested segments in first-occurrence order
    (repeats count once), ``positions`` each requested segment's index
    in ``distinct``.  A caller that repeats one request -- a prober
    reading the same route bank on every board -- prepares it once and
    pays the flattening, de-duplication and nominal lookup once.
    """

    __slots__ = ("distinct", "positions", "_nominal")

    def __init__(self, segment_ids: Iterable[SegmentId]) -> None:
        order: dict[SegmentId, int] = {}
        self.positions = np.fromiter(
            (order.setdefault(s, len(order)) for s in segment_ids),
            dtype=np.intp,
        )
        self.distinct = list(order)
        self._nominal: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def nominal(self) -> np.ndarray:
        """Nominal (delay, burn amplitude) of each distinct segment,
        shape ``(len(distinct), 2)``."""
        if self._nominal is None:
            self._nominal = np.array(
                [_NOMINAL[s.kind._name_] for s in self.distinct], dtype=float
            ).reshape(-1, 2)
        return self._nominal


class RouteRequest:
    """Routes prepared for repeated delta reads: their segments,
    concatenated in route order, as one :class:`SegmentRequest`."""

    __slots__ = ("routes", "segments", "ends")

    def __init__(self, routes: Sequence[Route]) -> None:
        self.routes = tuple(routes)
        self.segments = SegmentRequest(
            itertools.chain.from_iterable(self.routes)
        )
        self.ends = list(itertools.accumulate(len(r) for r in self.routes))


@dataclass(frozen=True)
class DeviceInfo:
    """Provider-side identity and wear summary of one die."""

    device_id: int
    part_name: str
    effective_age_hours: float


@dataclass(frozen=True)
class _ActivityGroups:
    """Segment indices of one loaded design, grouped by activity class.

    Rebuilt (and cached) per (loaded design, materialised-segment
    count); the per-interval scalars (duration, junction temperature,
    age, voltage) are *not* part of the grouping, so the cache survives
    across intervals of a burn schedule.
    """

    static_one: np.ndarray
    static_zero: np.ndarray
    toggling: np.ndarray
    toggling_duty_high: np.ndarray
    #: Floating-net segments plus every materialised undriven segment.
    idle: np.ndarray


class FpgaDevice:
    """One physical FPGA die with persistent per-segment analog state."""

    def __init__(
        self,
        part: PartDescriptor,
        wear: WearProfile = NEW_PART,
        seed: SeedLike = None,
        bti_store: Optional[SegmentBtiArray] = None,
    ) -> None:
        self.part = part
        self.wear = wear
        self.device_id = next(_device_ids)
        rng = make_rng(seed)
        self._variation = ProcessVariation(seed=rng)
        self._imprint_rng = make_rng(rng.integers(0, 2**63))
        self.effective_age_hours = wear.sample_age_hours(
            make_rng(rng.integers(0, 2**63))
        )
        self.sim_hours = 0.0
        self.core_voltage_v = REFERENCE_VOLTAGE_V
        self.grid: FabricGrid = part.make_grid()
        # SoA state plus the SegmentId -> slot index map and the cached
        # per-slot views.  ``bti_store`` lets a whole fleet share one
        # backing array (slot blocks per device), which is what enables
        # cross-device bulk catch-up.
        self._bti_array = bti_store if bti_store is not None else SegmentBtiArray()
        self._array_index: dict[SegmentId, int] = {}
        self._array_slots: dict[SegmentId, SegmentBtiSlot] = {}
        self._groups: Optional[_ActivityGroups] = None
        self._groups_loaded: Optional[Bitstream] = None
        self._groups_count: int = -1
        self._loaded: Optional[Bitstream] = None
        self._ambient_k: float = 308.15  # 35 C until an environment says otherwise
        # Lazy aging: the bound region timeline and this device's
        # position in it (both None/0 for standalone devices).
        self._timeline = None
        self._timeline_pos = 0

    # ------------------------------------------------------------------
    # Analog state store
    # ------------------------------------------------------------------

    def segment_state(self, segment_id: SegmentId) -> SegmentBtiSlot:
        """The persistent analog state of one physical segment.

        Created lazily on first touch, with die-specific process
        variation and (for worn devices) residual imprints from prior,
        unobserved tenants.  The returned object is a thin view into
        the device's arrays that exposes the full
        :class:`~repro.physics.bti.SegmentBti` surface.
        """
        self.sync()
        slot = self._array_slots.get(segment_id)
        if slot is None:
            slot = self._bti_array.view(self._segment_index(segment_id))
            self._array_slots[segment_id] = slot
        return slot

    def _draw(
        self, nominal: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Traits and residual imprints of new segments, as arrays.

        ``nominal`` holds each segment's nominal (delay, burn amplitude)
        row (:attr:`SegmentRequest.nominal`).  Returns ``(rising,
        falling, amplitude, high, low)``, one element per segment in
        request order.  The variation stream and the
        imprint stream are separate generators, so drawing each one's
        block for the whole request takes exactly the variates that
        touching the segments one at a time would, and leaves both
        generators in the same state; this is what keeps the aging
        oracle bit-identical from a shared seed.
        """
        rising, falling, amplitude = self._variation.sample_segments(
            nominal[:, 0], nominal[:, 1]
        )
        high, low = self.wear.sample_residual_imprints(
            amplitude, self._imprint_rng
        )
        return rising, falling, amplitude, high, low

    def _segment_index(self, segment_id: SegmentId) -> int:
        """Array slot of a segment, materialising on first touch."""
        index = self._array_index.get(segment_id)
        if index is None:
            index = self._materialise_many((segment_id,))[0]
        return index

    def _materialise_many(self, segment_ids: Iterable[SegmentId]) -> list[int]:
        """Array slots of a request's segments, in request order: the
        one-device case of :meth:`materialise_batch`."""
        requested = list(segment_ids)
        indices = list(map(self._array_index.get, requested))
        if None not in indices:
            return indices
        slots = self.materialise_batch([self], SegmentRequest(requested))
        return slots[0].tolist()

    @staticmethod
    def materialise_batch(
        devices: Sequence["FpgaDevice"], request: SegmentRequest
    ) -> list[np.ndarray]:
        """Array slots of one request on each device, in request order.

        The devices must share a store.  Each device draws the
        request's segments it has not yet materialised from its own
        streams, as one block in request order; the batch then registers
        every device's block as one slice, in device order, and installs
        all residual imprints with one preload.  Slots are handed out in
        the order materialising the devices one after another would use,
        and registration and preloading only write new slots, so every
        slot, trait and charge equals that one-device-at-a-time walk
        (and the one-segment-at-a-time oracle,
        ``tests/oracles/fabric.py``).
        """
        if not devices:
            return []
        store = devices[0]._bti_array
        if any(device._bti_array is not store for device in devices):
            raise FabricError(
                "a batched request needs devices that share a store"
            )
        distinct = request.distinct
        start = next_slot = len(store)
        draws = []
        slots = []
        for device in devices:
            known = device._array_index
            if known:
                found = list(map(known.get, distinct))
                new = [j for j, slot in enumerate(found) if slot is None]
            else:
                found, new = None, range(len(distinct))
            if new:
                everything = len(new) == len(distinct)
                draws.append(device._draw(
                    request.nominal if everything else request.nominal[new]
                ))
                fresh = range(next_slot, next_slot + len(new))
                # Recorded at once, so a device listed twice finds its
                # segments known, as it would reading one request at a
                # time.
                known.update(zip(
                    distinct if everything else [distinct[j] for j in new],
                    fresh,
                ))
                next_slot = fresh.stop
                if everything:
                    table = np.arange(fresh.start, fresh.stop, dtype=np.intp)
                else:
                    for j, slot in zip(new, fresh):
                        found[j] = slot
                    table = np.array(found, dtype=np.intp)
            else:
                table = np.array(found, dtype=np.intp)
            slots.append(table[request.positions])
        if draws:
            rising, falling, amplitude, high, low = (
                np.concatenate(part) for part in zip(*draws)
            )
            first = store.register_many(rising, falling, amplitude)
            assert first == start
            imprinted = np.flatnonzero((high != 0.0) | (low != 0.0))
            if imprinted.size:
                store.preload_imprint(
                    imprinted + first, high_charge_ps=high[imprinted],
                    low_charge_ps=low[imprinted],
                )
        return slots

    @property
    def materialised_segments(self) -> int:
        """Number of segments whose analog state has been realised."""
        return len(self._array_index)

    # ------------------------------------------------------------------
    # Design lifecycle
    # ------------------------------------------------------------------

    @property
    def loaded_design(self) -> Optional[Bitstream]:
        """The currently programmed bitstream, if any."""
        return self._loaded

    def load(self, bitstream: Bitstream) -> None:
        """Program a design onto the device.

        Touching every routed segment here materialises its analog state,
        so the first load on a worn device also realises the residual
        imprints of its unobserved history.
        """
        self.sync()
        if self._loaded is not None:
            raise FabricError(
                f"device {self.device_id} already has "
                f"{self._loaded.name!r} loaded; wipe first"
            )
        self._materialise_many(itertools.chain.from_iterable(
            net.route for net in bitstream.netlist.routed_nets()
        ))
        self._loaded = bitstream

    def wipe(self) -> None:
        """The provider's scrub: clear all logical state.

        Analog (BTI) state is physically incapable of being cleared by a
        configuration wipe, so the segment store is deliberately left
        untouched.  (Under lazy aging the device first integrates the
        pending intervals *with* the design still loaded.)
        """
        self.sync()
        self._loaded = None

    # ------------------------------------------------------------------
    # Lazy aging (region timelines)
    # ------------------------------------------------------------------

    def bind_timeline(self, timeline, position: int = 0) -> None:
        """Attach this device to a region's interval timeline.

        From now on the device ages lazily: the region records clock
        intervals, and :meth:`sync` (called by every state observation
        or mutation) replays the pending ones.
        """
        self._timeline = timeline
        self._timeline_pos = position

    @property
    def pending_intervals(self) -> int:
        """Recorded intervals this device has not yet integrated."""
        if self._timeline is None:
            return 0
        return len(self._timeline) - self._timeline_pos

    @property
    def aging_store(self) -> SegmentBtiArray:
        """The backing SoA store (shared across a fleet, or private)."""
        return self._bti_array

    def sync(self) -> int:
        """Catch up to the bound timeline; returns intervals replayed.

        A device with no materialised analog state skips the replay:
        nothing but ``sim_hours`` (and the last-seen ambient) can
        change, and the timeline's ``clock_after`` values were
        accumulated with the identical ``+=`` sequence, so the
        fast-forward is bit-identical to the interval-by-interval walk.
        """
        timeline = self._timeline
        if timeline is None:
            return 0
        pending = len(timeline) - self._timeline_pos
        if pending <= 0:
            return 0
        position = self._timeline_pos
        # Mark synced first: the replay below touches segment state,
        # which re-enters sync() and must see nothing pending.
        self._timeline_pos = len(timeline)
        if (
            self._loaded is None
            and self.materialised_segments == 0
            and self.sim_hours == timeline.clock_before(position)
        ):
            self.sim_hours = timeline.clock_after[-1]
            self._ambient_k = timeline.ambients[-1]
            registry.counter(
                "device_advance_intervals_total",
                "device time-advance intervals",
            ).inc(pending)
            return pending
        for i in range(position, len(timeline)):
            self._advance_hours_raw(
                timeline.durations[i], timeline.ambients[i]
            )
        return pending

    def _take_pending_intervals(self) -> list[tuple[int, float, float]]:
        """Hand the pending timeline intervals to a caller that will
        integrate them (:meth:`catch_up_idle`): ``(position,
        duration_hours, ambient_k)`` triples, oldest first.  The device
        counts as synced afterwards."""
        timeline = self._timeline
        position = self._timeline_pos
        self._timeline_pos = len(timeline)
        return [
            (i, timeline.durations[i], timeline.ambients[i])
            for i in range(position, len(timeline))
        ]

    def _finish_idle(self, intervals: Sequence[tuple]) -> None:
        """Bookkeeping after :meth:`catch_up_idle` annealed the slots:
        the per-interval scalars (``sim_hours`` accumulation, the last
        ambient, counters), as :meth:`advance_hours` keeps them."""
        if not intervals:
            return
        segments = self.materialised_segments
        segment_hours = registry.counter(
            "device_segment_hours_total",
            "simulated segment-hours of BTI integration",
        )
        for _, duration_hours, _ in intervals:
            self.sim_hours += duration_hours
            segment_hours.inc(duration_hours * segments)
        self._ambient_k = intervals[-1][2]
        registry.counter(
            "device_advance_intervals_total", "device time-advance intervals"
        ).inc(len(intervals))

    @staticmethod
    def catch_up_idle(
        schedules: Sequence[tuple["FpgaDevice", Sequence[tuple]]]
    ) -> None:
        """Anneal idle devices through their own intervals, together.

        ``schedules`` pairs each device (no design loaded) with its
        intervals, ``(start, duration_hours, ambient_k)`` triples,
        oldest first; ``start`` orders intervals in time (a timeline
        position or an hour).  Per shared store, each distinct interval
        is one masked update over every device that holds it
        (:meth:`FleetAgingArray.catch_up_idle`); each device then
        replays the per-interval bookkeeping.  Equal to
        ``advance_hours`` over each device's intervals in turn: an
        unpowered die's junction sits at ambient, and the kernels are
        elementwise.
        """
        stores: dict[int, tuple[SegmentBtiArray, list]] = {}
        for device, intervals in schedules:
            if device._loaded is not None:
                raise FabricError(
                    f"device {device.device_id} has a design loaded; "
                    "only idle devices catch up together"
                )
            if device._array_index:
                store = device._bti_array
                stores.setdefault(id(store), (store, []))[1].append(
                    (device._activity_groups().idle, intervals)
                )
        for store, groups in stores.values():
            FleetAgingArray(store).catch_up_idle(groups)
        for device, intervals in schedules:
            device._finish_idle(intervals)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def advance_hours(self, duration_hours: float, ambient_k: float) -> None:
        """Advance simulated time with the current design (if any) active.

        All routed nets of the loaded design stress/anneal their segments
        according to their activity; all other materialised segments
        anneal.  The die ages while a design is powered.  A device bound
        to a region timeline catches up on the recorded intervals first.
        """
        self.sync()
        self._advance_hours_raw(duration_hours, ambient_k)

    def _advance_hours_raw(
        self, duration_hours: float, ambient_k: float
    ) -> None:
        """One interval of aging, without consulting the timeline (the
        replay primitive :meth:`sync` drives)."""
        if duration_hours < 0.0:
            raise FabricError(f"duration must be >= 0, got {duration_hours}")
        if duration_hours == 0.0:
            return
        self._ambient_k = ambient_k
        self._advance_array(duration_hours, self.junction_k())
        if self._loaded is not None:
            self.effective_age_hours += duration_hours
        self.sim_hours += duration_hours
        registry.counter(
            "device_advance_intervals_total", "device time-advance intervals"
        ).inc()
        registry.counter(
            "device_segment_hours_total",
            "simulated segment-hours of BTI integration",
        ).inc(duration_hours * self.materialised_segments)

    def _advance_array(self, duration_hours: float, junction_k: float) -> None:
        """One interval's aging: a handful of masked array updates."""
        groups = self._activity_groups()
        age = self.effective_age_hours
        voltage = self.core_voltage_v
        bti = self._bti_array
        if groups.static_one.size:
            bti.hold(
                groups.static_one, 1, duration_hours, junction_k,
                device_age_hours=age, voltage_v=voltage,
            )
        if groups.static_zero.size:
            bti.hold(
                groups.static_zero, 0, duration_hours, junction_k,
                device_age_hours=age, voltage_v=voltage,
            )
        if groups.toggling.size:
            bti.toggle(
                groups.toggling, duration_hours, junction_k,
                device_age_hours=age, duty_high=groups.toggling_duty_high,
                voltage_v=voltage,
            )
        if groups.idle.size:
            bti.idle(groups.idle, duration_hours, junction_k)

    def _activity_groups(self) -> _ActivityGroups:
        """Activity-class index groups for the current design, cached.

        The cache key is (loaded design, materialised-segment count):
        loading, wiping, or materialising a new segment invalidates it;
        advancing time does not.
        """
        if (
            self._groups is not None
            and self._groups_loaded is self._loaded
            and self._groups_count == len(self._array_index)
        ):
            return self._groups
        static_one: list[int] = []
        static_zero: list[int] = []
        toggling: list[int] = []
        duty_high: list[float] = []
        floating: list[int] = []
        driven: set[int] = set()
        if self._loaded is not None:
            nets = self._loaded.netlist.routed_nets()
            flat = self._materialise_many(itertools.chain.from_iterable(
                net.route for net in nets
            ))
            end = 0
            for net in nets:
                start, end = end, end + len(net.route)
                indices = flat[start:end]
                if net.activity is NetActivity.STATIC:
                    target = (
                        static_one if int(net.static_value) == 1 else static_zero
                    )
                    target.extend(indices)
                elif net.activity is NetActivity.TOGGLING:
                    toggling.extend(indices)
                    duty_high.extend([net.duty_high] * len(indices))
                else:
                    floating.extend(indices)
                driven.update(indices)
        # Own slots only: under a shared fleet store this device's
        # indices are an arbitrary block, not range(len(...)).  For a
        # private store the two spellings are identical (insertion
        # order is 0..n-1).
        idle = floating + [
            i for i in self._array_index.values() if i not in driven
        ]
        self._groups = _ActivityGroups(
            static_one=np.asarray(static_one, dtype=np.intp),
            static_zero=np.asarray(static_zero, dtype=np.intp),
            toggling=np.asarray(toggling, dtype=np.intp),
            toggling_duty_high=np.asarray(duty_high, dtype=float),
            idle=np.asarray(idle, dtype=np.intp),
        )
        # Keyed after the build: materialising the design's own segments
        # above grows the index map, and the key must reflect that.
        self._groups_loaded = self._loaded
        self._groups_count = len(self._array_index)
        return self._groups

    # ------------------------------------------------------------------
    # Delay queries (used only by on-fabric sensors)
    # ------------------------------------------------------------------

    def set_core_voltage(self, voltage_v: float) -> None:
        """Operate the die at a non-nominal core supply.

        Undervolting is the Section 8.2/8.3 provider/manufacturer
        mitigation: BTI accelerates exponentially in gate voltage, so a
        50 mV reduction roughly halves the burn-in rate (at some
        performance cost, which is why providers hesitate).
        """
        if voltage_v <= 0.0:
            raise FabricError(f"voltage must be positive, got {voltage_v}")
        # Pending intervals ran at the *old* supply; integrate them
        # before the change takes effect.
        self.sync()
        self.core_voltage_v = voltage_v

    def set_ambient(self, ambient_k: float) -> None:
        """Record the current ambient (board installed in oven/rack)."""
        if ambient_k <= 0.0:
            raise FabricError(f"ambient must be > 0 K, got {ambient_k}")
        self.sync()
        self._ambient_k = ambient_k

    def junction_k(self) -> float:
        """Current junction temperature from ambient and loaded power.

        Computed live (not cached from the last time step): loading or
        wiping a design changes power draw, and the delay temperature
        coefficient must see the conditions that hold *now* -- this is
        what keeps theta_init portable between calibration and
        measurement passes (both run under the low-power Measure
        design).
        """
        power = self._loaded.power.total_watts if self._loaded else 0.0
        return ThermalModel().junction_k(self._ambient_k, power)

    def _route_indices(self, route: Route) -> np.ndarray:
        """Array slots of a route's segments (materialising)."""
        return np.asarray(self._materialise_many(route), dtype=np.intp)

    def transition_delays(self, route: Route) -> TransitionDelays:
        """True rising/falling propagation delay through a route, now.

        Includes BTI degradation and the junction-temperature delay
        coefficient.  Only on-fabric sensor models may call this; tenant
        code observes delays exclusively through the TDC's quantised,
        noisy output.
        """
        self.sync()
        indices = self._route_indices(route)
        # Sequential left-to-right sum: bit-identical to the aging
        # oracle's TransitionDelays accumulation.
        rising = sum(self._bti_array.rising_delay_ps(indices).tolist())
        falling = sum(self._bti_array.falling_delay_ps(indices).tolist())
        scale = 1.0 + DELAY_TEMP_COEFF_PER_K * (self.junction_k() - _DELAY_TEMP_REF_K)
        return TransitionDelays(
            rising_ps=rising * scale, falling_ps=falling * scale
        )

    def route_delta_ps(self, route: Route) -> float:
        """True BTI delta-ps of a route (oracle; for tests/analysis only)."""
        return self.route_deltas_ps((route,))[0]

    def route_deltas_ps(
        self, routes: Union[RouteRequest, Sequence[Route]]
    ) -> list[float]:
        """True BTI delta-ps of each route, in order (oracle; for
        tests/analysis only): the one-device case of
        :meth:`read_route_deltas`."""
        return self.read_route_deltas([self], routes)[0]

    @staticmethod
    def read_route_deltas(
        devices: Sequence["FpgaDevice"],
        routes: Union[RouteRequest, Sequence[Route]],
    ) -> list[list[float]]:
        """True BTI delta-ps of each route on each device (oracle; for
        tests, analysis and the fleet prober).

        The devices must share a store.  Each device catches up on its
        timeline, then the whole batch is one :meth:`materialise_batch`
        request and one ``delta_ps`` gather; each route's delta is the
        sequential left-to-right sum of its segments' deltas,
        bit-identical to the aging oracle's segment-by-segment
        accumulation.
        """
        if not isinstance(routes, RouteRequest):
            routes = RouteRequest(routes)
        if not devices:
            return []
        for device in devices:
            device.sync()
        slots = FpgaDevice.materialise_batch(devices, routes.segments)
        deltas = devices[0]._bti_array.delta_ps(np.concatenate(slots)).tolist()
        width = len(routes.segments)
        readings = []
        for base in range(0, width * len(devices), width):
            sums = []
            start = base
            for end in routes.ends:
                sums.append(float(sum(deltas[start:base + end])))
                start = base + end
            readings.append(sums)
        return readings

    def info(self) -> DeviceInfo:
        """Provider-side identity record."""
        self.sync()
        return DeviceInfo(
            device_id=self.device_id,
            part_name=self.part.name,
            effective_age_hours=self.effective_age_hours,
        )

    def __repr__(self) -> str:
        loaded = self._loaded.name if self._loaded else None
        return (
            f"FpgaDevice(id={self.device_id}, part={self.part.name!r}, "
            f"age={self.effective_age_hours:.0f}h, loaded={loaded!r})"
        )
