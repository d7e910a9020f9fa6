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
from typing import Iterable, Optional, Sequence

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
from repro.physics.pool_array import SegmentBtiArray, SegmentBtiSlot
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

#: Nominal (delay, burn amplitude) of each wire class, in ps.
_NOMINAL = {
    kind: (spec.delay_ps, spec.burn_amplitude_ps)
    for kind, spec in SEGMENT_LIBRARY.items()
}


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
        self, segment_ids: list[SegmentId]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Traits and residual imprints of new segments, as arrays.

        Returns ``(rising, falling, amplitude, high, low)``, one element
        per segment in request order.  The variation stream and the
        imprint stream are separate generators, so drawing each one's
        block for the whole request takes exactly the variates that
        touching the segments one at a time would, and leaves both
        generators in the same state; this is what keeps the aging
        oracle bit-identical from a shared seed.
        """
        nominal = np.array(
            [_NOMINAL[segment_id.kind] for segment_id in segment_ids],
            dtype=float,
        ).reshape(-1, 2)
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
        """Array slots of a request's segments, in request order.

        The segments not yet known (repeats within the request count
        once) are drawn as one block, registered as one slice of slots
        in request order, and their residual imprints installed with a
        single vectorised preload -- bit-identical to touching them one
        at a time (``tests/oracles/fabric.py``).  Preloading only writes
        the new slots' charges, so deferring it past the registration
        leaves every slot the same.
        """
        known = self._array_index
        requested = list(segment_ids)
        indices = list(map(known.get, requested))
        if None not in indices:
            return indices
        new = list(dict.fromkeys(
            segment_id
            for segment_id, index in zip(requested, indices)
            if index is None
        ))
        rising, falling, amplitude, high, low = self._draw(new)
        store = self._bti_array
        first = store.register_many(rising, falling, amplitude)
        known.update(zip(new, range(first, first + len(new))))
        imprinted = np.flatnonzero((high != 0.0) | (low != 0.0))
        if imprinted.size:
            store.preload_imprint(
                imprinted + first, high_charge_ps=high[imprinted],
                low_charge_ps=low[imprinted],
            )
        return [
            known[segment_id] if index is None else index
            for segment_id, index in zip(requested, indices)
        ]

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
    def timeline_position(self) -> int:
        """This device's position in its bound timeline."""
        return self._timeline_pos

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

    def _lazy_idle_indices(self) -> np.ndarray:
        """Array-store slots an idle catch-up must anneal (all of this
        device's materialised segments; requires no loaded design)."""
        assert self._loaded is None
        return self._activity_groups().idle

    def _finish_lazy_idle(self) -> None:
        """Bookkeeping after a cross-device bulk idle catch-up.

        The fleet-level catch-up already applied the array updates for
        every pending interval; this replays only the per-interval
        scalar bookkeeping (``sim_hours`` accumulation, last ambient,
        counters), bit-identical to :meth:`sync`'s slow path.
        """
        timeline = self._timeline
        assert timeline is not None and self._loaded is None
        position = self._timeline_pos
        pending = len(timeline) - position
        if pending <= 0:
            return
        self._timeline_pos = len(timeline)
        for i in range(position, len(timeline)):
            self.sim_hours += timeline.durations[i]
        self._ambient_k = timeline.ambients[-1]
        registry.counter(
            "device_advance_intervals_total", "device time-advance intervals"
        ).inc(pending)
        registry.counter(
            "device_segment_hours_total",
            "simulated segment-hours of BTI integration",
        ).inc(sum(timeline.durations[position:]) * self.materialised_segments)

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

    def route_deltas_ps(self, routes: Sequence[Route]) -> list[float]:
        """True BTI delta-ps of each route, in order (oracle; for
        tests/analysis only).

        The routes' segments, concatenated in route order, are one
        materialisation request: the block draw takes each stream's
        variates in request order, so this draws and registers exactly
        what reading the routes one by one would.
        """
        self.sync()
        flat = self._materialise_many(itertools.chain.from_iterable(routes))
        deltas = self._bti_array.delta_ps(flat).tolist()
        sums = []
        end = 0
        for route in routes:
            start, end = end, end + len(route)
            # Sequential left-to-right sum per route: bit-identical to
            # the aging oracle's segment-by-segment accumulation.
            sums.append(float(sum(deltas[start:end])))
        return sums

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
