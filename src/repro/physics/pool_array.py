"""Structure-of-arrays BTI aging engine for whole-device time advance.

:class:`TrapPoolArray` holds the state of *every* pool of one mechanism
on a device in contiguous float64 arrays (``charge_ps``,
``equivalent_stress_hours``, recovery bookkeeping, amplitudes) and
applies the :class:`~repro.physics.kinetics.TrapPool` integration rules
as vectorised kernels over index sets.  :class:`SegmentBtiArray` pairs a
high- and a low-mechanism array into the per-segment store the
:class:`~repro.fabric.device.FpgaDevice` registers routing segments
into, so one simulated interval becomes a handful of masked array
updates instead of O(segments) Python calls.

Bit-identity with the scalar reference
--------------------------------------

The kernels reproduce ``TrapPool``'s formulas element-for-element:

* exactly-rounded IEEE operations (add, subtract, multiply, divide,
  maximum) are identical between numpy and Python by definition;
* the transcendentals (``exp``, ``pow``) are implementation-defined, so
  both paths call the *same* numpy float64 ufuncs -- numpy's SIMD
  kernels agree exactly between length-1 and vectorised invocations
  (``kinetics._pow`` / ``kinetics._exp`` on the scalar side);
* the per-interval Arrhenius, voltage-acceleration and age-suppression
  factors are scalars shared by every element of an interval; they are
  computed once per interval with the very functions the scalar path
  calls (and memoised, since junction temperature and core voltage
  rarely change between intervals).

``tests/physics/test_pool_array.py`` pins the equivalence across
randomised stress/release/re-stress/preload schedule sweeps.  This is
the only aging path a device runs; the per-object walk over
:class:`~repro.physics.bti.SegmentBti` it replaced is the test oracle
``tests/oracles/aging.py`` (``reference_aging()``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

import numpy as np

from repro.errors import PhysicsError
from repro.observability.metrics import registry
from repro.physics.arrhenius import recovery_acceleration, stress_acceleration
from repro.physics.bti import SegmentSnapshot, SegmentTraits
from repro.physics.constants import (
    HIGH_POOL,
    LOW_POOL,
    REFERENCE_STRESS_HOURS,
    REFERENCE_VOLTAGE_V,
    MechanismParams,
    age_suppression,
    voltage_acceleration,
)
from repro.physics.delay import TransitionDelays
from repro.physics.kinetics import REFILL_PENALTY

@lru_cache(maxsize=256)
def _stress_factor(
    params: MechanismParams, temperature_k: float, voltage_v: float
) -> float:
    """Per-interval stress acceleration: Arrhenius times voltage.

    Constant across every segment of an interval, so computed once with
    the same scalar functions the reference path calls.
    """
    return stress_acceleration(params, temperature_k) * voltage_acceleration(
        voltage_v
    )


@lru_cache(maxsize=256)
def _recovery_factor(params: MechanismParams, temperature_k: float) -> float:
    """Per-interval recovery acceleration (Arrhenius, cached)."""
    return recovery_acceleration(params, temperature_k)


@lru_cache(maxsize=1024)
def _suppression_factor(device_age_hours: float) -> float:
    """Per-interval age suppression of incremental charge (cached)."""
    return age_suppression(device_age_hours)


IndexArray = Union[np.ndarray, list, tuple]


class TrapPoolArray:
    """All pools of one mechanism, as a structure of arrays.

    Each slot is one :class:`~repro.physics.kinetics.TrapPool`
    (amplitude plus persistent stress/recovery state); the kernels apply
    the scalar integration rules to whole index sets at once.
    """

    def __init__(self, params: MechanismParams, capacity: int = 256) -> None:
        if capacity < 1:
            raise PhysicsError(f"capacity must be >= 1, got {capacity}")
        self.params = params
        self._count = 0
        self._alloc(capacity)
        # The power-law denominator is a per-mechanism scalar; computed
        # once, with Python's pow exactly like TrapPool._rate_amplitude.
        self._rate_denominator = REFERENCE_STRESS_HOURS**params.stress_exponent

    def _alloc(self, capacity: int) -> None:
        self.amplitude_ps = np.zeros(capacity)
        self.charge_ps = np.zeros(capacity)
        self.equivalent_stress_hours = np.zeros(capacity)
        self.recovery_elapsed_hours = np.zeros(capacity)
        self.recovery_wall_hours = np.zeros(capacity)
        self.charge_at_release_ps = np.zeros(capacity)
        self.recovering = np.zeros(capacity, dtype=bool)

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Allocated slots (grows by doubling)."""
        return self.amplitude_ps.shape[0]

    def _grow(self, minimum: int) -> None:
        capacity = self.capacity
        while capacity < minimum:
            capacity *= 2
        for name in (
            "amplitude_ps",
            "charge_ps",
            "equivalent_stress_hours",
            "recovery_elapsed_hours",
            "recovery_wall_hours",
            "charge_at_release_ps",
            "recovering",
        ):
            old = getattr(self, name)
            fresh = np.zeros(capacity, dtype=old.dtype)
            fresh[: self._count] = old[: self._count]
            setattr(self, name, fresh)

    def add_pool(self, amplitude_ps: float) -> int:
        """Register one pool; returns its index."""
        return self.add_pools([amplitude_ps])

    def add_pools(self, amplitude_ps: IndexArray) -> int:
        """Register one pool per amplitude; returns the first index.

        The new pools take consecutive slots, written as one slice.
        """
        amplitudes = np.asarray(amplitude_ps, dtype=float)
        negative = amplitudes < 0.0
        if negative.any():
            raise PhysicsError(
                f"amplitude_ps must be >= 0, got {amplitudes[negative][0]}"
            )
        start = self._count
        stop = start + amplitudes.size
        if stop > self.capacity:
            self._grow(stop)
        self.amplitude_ps[start:stop] = amplitudes
        self._count = stop
        return start

    # ------------------------------------------------------------------
    # Vectorised kernels (element-for-element TrapPool semantics)
    # ------------------------------------------------------------------

    @staticmethod
    def _check_interval(duration_hours: float, temperature_k: float) -> None:
        if duration_hours < 0.0:
            raise PhysicsError(f"duration must be >= 0, got {duration_hours}")
        if temperature_k <= 0.0:
            raise PhysicsError(f"temperature must be > 0 K, got {temperature_k}")

    def stress(
        self,
        indices: IndexArray,
        duration_hours: float,
        temperature_k: float,
        device_age_hours: float = 0.0,
        duty: Union[float, np.ndarray] = 1.0,
        voltage_v: Optional[float] = None,
    ) -> None:
        """Apply stress to every indexed pool (``TrapPool.stress``).

        ``duty`` is a scalar or a per-index array; elements with zero
        duty are skipped entirely (no re-entry, no time advance),
        matching the scalar early return.
        """
        self._check_interval(duration_hours, temperature_k)
        idx = np.asarray(indices, dtype=np.intp)
        duty_arr = np.broadcast_to(
            np.asarray(duty, dtype=float), idx.shape
        )
        if np.any(duty_arr < 0.0) or np.any(duty_arr > 1.0):
            raise PhysicsError("duty must be in [0, 1]")
        if duration_hours == 0.0 or idx.size == 0:
            return
        active = duty_arr > 0.0
        if not active.all():
            idx = idx[active]
            duty_arr = duty_arr[active]
            if idx.size == 0:
                return
        reentering = idx[self.recovering[idx]]
        if reentering.size:
            self._reenter_stress_curve(reentering)
        n = self.params.stress_exponent
        if voltage_v is None:
            voltage_v = REFERENCE_VOLTAGE_V
        acceleration = _stress_factor(self.params, temperature_k, voltage_v)
        suppression = _suppression_factor(device_age_hours)
        rate = self.amplitude_ps[idx] / self._rate_denominator
        effective_hours = duration_hours * duty_arr * acceleration
        t_old = self.equivalent_stress_hours[idx]
        t_new = t_old + effective_hours
        increment = rate * (np.power(t_new, n) - np.power(t_old, n))
        self.charge_ps[idx] += suppression * increment
        self.equivalent_stress_hours[idx] = t_new

    def release(
        self, indices: IndexArray, duration_hours: float, temperature_k: float
    ) -> None:
        """Remove stress from every indexed pool (``TrapPool.release``)."""
        self._check_interval(duration_hours, temperature_k)
        idx = np.asarray(indices, dtype=np.intp)
        if duration_hours == 0.0 or idx.size == 0:
            return
        idx = idx[self.charge_ps[idx] != 0.0]
        if idx.size == 0:
            return
        newly = idx[~self.recovering[idx]]
        if newly.size:
            self.recovering[newly] = True
            self.recovery_elapsed_hours[newly] = 0.0
            self.recovery_wall_hours[newly] = 0.0
            self.charge_at_release_ps[newly] = self.charge_ps[newly]
        acceleration = _recovery_factor(self.params, temperature_k)
        self.recovery_elapsed_hours[idx] += duration_hours * acceleration
        self.recovery_wall_hours[idx] += duration_hours
        ratio = self.recovery_elapsed_hours[idx] / self.params.recovery_tau_hours
        fraction = np.exp(-np.power(ratio, self.params.recovery_beta))
        self.charge_ps[idx] = self.charge_at_release_ps[idx] * fraction

    def _reenter_stress_curve(self, idx: np.ndarray) -> None:
        """Resume stress after a recovery gap (``_reenter_stress_curve``)."""
        n = self.params.stress_exponent
        t_frozen = self.equivalent_stress_hours[idx]
        lost = REFILL_PENALTY * self.recovery_wall_hours[idx]
        t_new = np.maximum(t_frozen - lost, 0.0)
        charge = self.charge_ps[idx].copy()
        refill = (t_frozen > 0.0) & (t_new > 0.0)
        if refill.any():
            refilled = self.charge_at_release_ps[idx][refill] * np.power(
                t_new[refill] / t_frozen[refill], n
            )
            # Never refill below the surviving (decayed) charge.
            charge[refill] = np.maximum(refilled, charge[refill])
        refunded = t_new == 0.0
        if refunded.any():
            # The whole accumulation was refunded; keep the decayed
            # remainder and restart the curve from the time it implies.
            rate = self.amplitude_ps[idx][refunded] / self._rate_denominator
            remainder = charge[refunded]
            restart = (rate > 0.0) & (remainder > 0.0)
            implied = t_new[refunded]
            implied[restart] = np.power(
                remainder[restart] / rate[restart], 1.0 / n
            )
            t_new[refunded] = implied
        self.charge_ps[idx] = charge
        self.equivalent_stress_hours[idx] = t_new
        self.recovering[idx] = False
        self.recovery_elapsed_hours[idx] = 0.0
        self.recovery_wall_hours[idx] = 0.0
        self.charge_at_release_ps[idx] = 0.0

    def preload(
        self, indices: IndexArray, charge_ps: Union[float, np.ndarray]
    ) -> None:
        """Install residual charge in every indexed pool (``preload``)."""
        idx = np.asarray(indices, dtype=np.intp)
        charges = np.broadcast_to(np.asarray(charge_ps, dtype=float), idx.shape)
        if np.any(charges < 0.0):
            raise PhysicsError("preloaded charge must be >= 0")
        if idx.size == 0:
            return
        self.charge_ps[idx] = charges
        self.recovering[idx] = False
        self.recovery_elapsed_hours[idx] = 0.0
        self.charge_at_release_ps[idx] = 0.0
        # Recovery *wall* hours are deliberately left untouched before
        # re-entry, exactly like the scalar preload.
        self._reenter_stress_curve(idx)

    def view(self, index: int) -> "TrapPoolSlot":
        """A scalar-shaped view of one pool (``TrapPool`` surface)."""
        if not 0 <= index < self._count:
            raise PhysicsError(f"no pool at index {index}")
        return TrapPoolSlot(self, index)


class TrapPoolSlot:
    """One slot of a :class:`TrapPoolArray`, duck-typing ``TrapPool``.

    The mutating operations route through the vectorised kernels on a
    single-element index set, so a slot behaves bit-identically to a
    scalar :class:`~repro.physics.kinetics.TrapPool` with the same
    history.
    """

    __slots__ = ("_array", "_index")

    def __init__(self, array: TrapPoolArray, index: int) -> None:
        self._array = array
        self._index = index

    @property
    def params(self) -> MechanismParams:
        return self._array.params

    @property
    def amplitude_ps(self) -> float:
        return float(self._array.amplitude_ps[self._index])

    @property
    def charge_ps(self) -> float:
        """Current charge of the pool, in picoseconds of delay shift."""
        return float(self._array.charge_ps[self._index])

    @property
    def equivalent_stress_hours(self) -> float:
        """Equivalent cumulative stress time at reference conditions."""
        return float(self._array.equivalent_stress_hours[self._index])

    def stress(
        self,
        duration_hours: float,
        temperature_k: float,
        device_age_hours: float = 0.0,
        duty: float = 1.0,
        voltage_v: Optional[float] = None,
    ) -> None:
        self._array.stress(
            [self._index], duration_hours, temperature_k,
            device_age_hours=device_age_hours, duty=duty, voltage_v=voltage_v,
        )

    def release(self, duration_hours: float, temperature_k: float) -> None:
        self._array.release([self._index], duration_hours, temperature_k)

    def preload(self, charge_ps: float) -> None:
        self._array.preload([self._index], charge_ps)


class SegmentBtiArray:
    """SoA store of every registered segment's analog state.

    Two :class:`TrapPoolArray` instances (the opposing high/low
    mechanisms) plus the per-segment static traits, with segment-level
    vectorised schedule operations.  Segment *i* occupies slot *i* of
    both pool arrays.
    """

    #: Reduced net AC build-up relative to DC stress (matches the
    #: ``SegmentBti.toggle`` default).
    AC_FACTOR = 0.5

    def __init__(self) -> None:
        self.high = TrapPoolArray(HIGH_POOL)
        self.low = TrapPoolArray(LOW_POOL)
        self._count = 0
        self._rising_delay_ps = np.zeros(0)
        self._falling_delay_ps = np.zeros(0)
        self._burn_amplitude_ps = np.zeros(0)

    def __len__(self) -> int:
        return self._count

    def register(self, traits: SegmentTraits) -> int:
        """Add one segment; returns its index in the arrays."""
        return self.register_many(
            [traits.rising_delay_ps], [traits.falling_delay_ps],
            [traits.burn_amplitude_ps],
        )

    def register_many(
        self,
        rising_delay_ps: IndexArray,
        falling_delay_ps: IndexArray,
        burn_amplitude_ps: IndexArray,
    ) -> int:
        """Add one segment per element; returns the first new index.

        Element *j* is the segment with traits ``(rising_delay_ps[j],
        falling_delay_ps[j], burn_amplitude_ps[j])``; it takes slot
        ``first + j``.  Each array grows at most once and the new slots
        are written as slices.  The traits are validated as
        :class:`~repro.physics.bti.SegmentTraits` validates them.
        """
        rising = np.asarray(rising_delay_ps, dtype=float)
        falling = np.asarray(falling_delay_ps, dtype=float)
        amplitude = np.asarray(burn_amplitude_ps, dtype=float)
        if (rising <= 0.0).any() or (falling <= 0.0).any():
            raise PhysicsError("segment delays must be positive")
        if (amplitude < 0.0).any():
            raise PhysicsError("burn amplitude must be >= 0")
        start = self.high.add_pools(amplitude * HIGH_POOL.amplitude_scale)
        low_start = self.low.add_pools(amplitude * LOW_POOL.amplitude_scale)
        assert start == low_start == self._count
        stop = start + amplitude.size
        if stop > self._rising_delay_ps.shape[0]:
            grown = max(16, 2 * self._rising_delay_ps.shape[0], stop)
            for name in (
                "_rising_delay_ps", "_falling_delay_ps", "_burn_amplitude_ps",
            ):
                old = getattr(self, name)
                fresh = np.zeros(grown)
                fresh[: old.shape[0]] = old
                setattr(self, name, fresh)
        self._rising_delay_ps[start:stop] = rising
        self._falling_delay_ps[start:stop] = falling
        self._burn_amplitude_ps[start:stop] = amplitude
        self._count = stop
        return start

    def traits(self, index: int) -> SegmentTraits:
        """Static traits of one registered segment."""
        if not 0 <= index < self._count:
            raise PhysicsError(f"no segment at index {index}")
        return SegmentTraits(
            rising_delay_ps=float(self._rising_delay_ps[index]),
            falling_delay_ps=float(self._falling_delay_ps[index]),
            burn_amplitude_ps=float(self._burn_amplitude_ps[index]),
        )

    # ------------------------------------------------------------------
    # Vectorised schedule operations (SegmentBti semantics per element)
    # ------------------------------------------------------------------

    @staticmethod
    def _count_updates(indices: IndexArray) -> None:
        # One increment per vectorised call, sized in segments: O(1)
        # cost per interval regardless of how many segments it touches.
        registry.counter(
            "aging_segment_updates_total",
            "segment state updates applied by the array aging kernel",
        ).inc(int(np.asarray(indices).size))

    def hold(
        self,
        indices: IndexArray,
        value: int,
        duration_hours: float,
        temperature_k: float,
        device_age_hours: float = 0.0,
        voltage_v: Optional[float] = None,
    ) -> None:
        """Hold one constant logic value on every indexed segment."""
        if value not in (0, 1):
            raise PhysicsError(f"logic value must be 0 or 1, got {value!r}")
        self._count_updates(indices)
        stressed, recovering = (
            (self.high, self.low) if value == 1 else (self.low, self.high)
        )
        stressed.stress(
            indices, duration_hours, temperature_k,
            device_age_hours=device_age_hours, voltage_v=voltage_v,
        )
        recovering.release(indices, duration_hours, temperature_k)

    def toggle(
        self,
        indices: IndexArray,
        duration_hours: float,
        temperature_k: float,
        device_age_hours: float = 0.0,
        duty_high: Union[float, np.ndarray] = 0.5,
        ac_factor: float = AC_FACTOR,
        voltage_v: Optional[float] = None,
    ) -> None:
        """Drive every indexed segment with switching activity.

        ``duty_high`` may be a per-index array (nets of one device
        toggle with different duty cycles).
        """
        duty = np.asarray(duty_high, dtype=float)
        if np.any(duty < 0.0) or np.any(duty > 1.0):
            raise PhysicsError("duty_high must be in [0, 1]")
        if not 0.0 <= ac_factor <= 1.0:
            raise PhysicsError(f"ac_factor must be in [0, 1], got {ac_factor}")
        self._count_updates(indices)
        self.high.stress(
            indices, duration_hours, temperature_k,
            device_age_hours=device_age_hours,
            duty=duty * ac_factor, voltage_v=voltage_v,
        )
        self.low.stress(
            indices, duration_hours, temperature_k,
            device_age_hours=device_age_hours,
            duty=(1.0 - duty) * ac_factor, voltage_v=voltage_v,
        )

    def idle(
        self, indices: IndexArray, duration_hours: float, temperature_k: float
    ) -> None:
        """Leave every indexed segment undriven: both pools recover."""
        self._count_updates(indices)
        self.high.release(indices, duration_hours, temperature_k)
        self.low.release(indices, duration_hours, temperature_k)

    def preload_imprint(
        self,
        indices: IndexArray,
        high_charge_ps: Union[float, np.ndarray] = 0.0,
        low_charge_ps: Union[float, np.ndarray] = 0.0,
    ) -> None:
        """Install residual charge from unobserved prior usage."""
        self.high.preload(indices, high_charge_ps)
        self.low.preload(indices, low_charge_ps)

    # ------------------------------------------------------------------
    # Delay queries (vectorised gathers)
    # ------------------------------------------------------------------

    def delta_ps(self, indices: IndexArray) -> np.ndarray:
        """Per-segment BTI contribution to (falling - rising) delay."""
        idx = np.asarray(indices, dtype=np.intp)
        return self.high.charge_ps[idx] - self.low.charge_ps[idx]

    def rising_delay_ps(self, indices: IndexArray) -> np.ndarray:
        """Per-segment absolute rising delay including degradation."""
        idx = np.asarray(indices, dtype=np.intp)
        return self._rising_delay_ps[idx] + self.low.charge_ps[idx]

    def falling_delay_ps(self, indices: IndexArray) -> np.ndarray:
        """Per-segment absolute falling delay including degradation."""
        idx = np.asarray(indices, dtype=np.intp)
        return self._falling_delay_ps[idx] + self.high.charge_ps[idx]

    def view(self, index: int) -> "SegmentBtiSlot":
        """A scalar-shaped view of one segment (``SegmentBti`` surface)."""
        if not 0 <= index < self._count:
            raise PhysicsError(f"no segment at index {index}")
        return SegmentBtiSlot(self, index)


class FleetAgingArray:
    """Cross-*device* bulk aging over one shared :class:`SegmentBtiArray`.

    When a fleet of devices registers its segments into a single
    backing store (``FpgaDevice(bti_store=...)``), each device owns a
    disjoint block of slots.  Catching idle devices up then collapses
    to one masked array update per distinct interval, covering every
    device whose history holds that interval -- instead of devices x
    intervals separate kernel calls.

    The kernels are elementwise over the index set and the per-interval
    acceleration factors are scalars, so the union-of-indices update is
    bit-identical to advancing each device separately (pinned by the
    lazy-aging equivalence suite and the fleet catch-up property).
    """

    def __init__(self, store: SegmentBtiArray) -> None:
        self.store = store

    def catch_up_idle(self, schedules: list) -> None:
        """Anneal each device's slots through its own intervals.

        ``schedules`` pairs one device's slots (a disjoint block of the
        shared store) with that device's intervals, ``(start,
        duration_hours, temperature_k)`` triples, oldest first;
        ``start`` orders intervals in time.  Each distinct interval is
        applied once, in time order, to the slots of every device that
        holds it, so each slot sees exactly its own device's intervals
        in order.  Devices must be unpowered (idle) across the whole
        span -- a device with a loaded design has per-design junction
        temperatures and must advance on its own.
        """
        merged: dict[tuple, list] = {}
        for indices, intervals in schedules:
            idx = np.asarray(indices, dtype=np.intp)
            if idx.size:
                for interval in intervals:
                    merged.setdefault(tuple(interval), []).append(idx)
        for interval in sorted(merged):
            _, duration_hours, temperature_k = interval
            groups = merged[interval]
            self.store.idle(
                np.concatenate(groups) if len(groups) > 1 else groups[0],
                duration_hours, temperature_k,
            )


class SegmentBtiSlot:
    """One segment of a :class:`SegmentBtiArray`, duck-typing ``SegmentBti``.

    ``FpgaDevice.segment_state`` hands these out; they are thin views --
    all state lives in the arrays.
    """

    __slots__ = ("_array", "_index")

    def __init__(self, array: SegmentBtiArray, index: int) -> None:
        self._array = array
        self._index = index

    @property
    def index(self) -> int:
        """Slot of this segment in the device's arrays."""
        return self._index

    @property
    def traits(self) -> SegmentTraits:
        return self._array.traits(self._index)

    @property
    def high_pool(self) -> TrapPoolSlot:
        return self._array.high.view(self._index)

    @property
    def low_pool(self) -> TrapPoolSlot:
        return self._array.low.view(self._index)

    def hold(
        self,
        value: int,
        duration_hours: float,
        temperature_k: float,
        device_age_hours: float = 0.0,
        voltage_v: Optional[float] = None,
    ) -> None:
        self._array.hold(
            [self._index], value, duration_hours, temperature_k,
            device_age_hours=device_age_hours, voltage_v=voltage_v,
        )

    def toggle(
        self,
        duration_hours: float,
        temperature_k: float,
        device_age_hours: float = 0.0,
        duty_high: float = 0.5,
        ac_factor: float = SegmentBtiArray.AC_FACTOR,
        voltage_v: Optional[float] = None,
    ) -> None:
        self._array.toggle(
            [self._index], duration_hours, temperature_k,
            device_age_hours=device_age_hours, duty_high=duty_high,
            ac_factor=ac_factor, voltage_v=voltage_v,
        )

    def idle(self, duration_hours: float, temperature_k: float) -> None:
        self._array.idle([self._index], duration_hours, temperature_k)

    @property
    def delta_ps(self) -> float:
        """Current BTI contribution to (falling - rising) delay."""
        return float(self._array.delta_ps([self._index])[0])

    def transition_delays(self) -> TransitionDelays:
        """Current absolute rising/falling delays including degradation."""
        return TransitionDelays(
            rising_ps=float(self._array.rising_delay_ps([self._index])[0]),
            falling_ps=float(self._array.falling_delay_ps([self._index])[0]),
        )

    def preload_imprint(
        self, high_charge_ps: float = 0.0, low_charge_ps: float = 0.0
    ) -> None:
        """Install residual charge from unobserved prior usage."""
        self._array.preload_imprint(
            [self._index], high_charge_ps=high_charge_ps,
            low_charge_ps=low_charge_ps,
        )

    def snapshot(self) -> SegmentSnapshot:
        """Immutable copy of the current analog state (for analysis)."""
        return SegmentSnapshot(
            high_charge_ps=self.high_pool.charge_ps,
            low_charge_ps=self.low_pool.charge_ps,
            delta_ps=self.delta_ps,
        )
