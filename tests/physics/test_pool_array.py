"""Equivalence suite for the structure-of-arrays aging engine.

The acceptance pin of the vectorised kernel: :class:`TrapPoolArray` and
:class:`SegmentBtiArray` must be *bit-identical* to the scalar
:class:`TrapPool` / :class:`SegmentBti` reference across randomised
stress/release/re-stress/preload schedule sweeps.  Every comparison in
this file is exact equality, not approx.
"""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.physics.bti import SegmentBti, SegmentTraits
from repro.physics.constants import (
    HIGH_POOL,
    LOW_POOL,
    REFERENCE_TEMPERATURE_K,
)
from repro.physics.kinetics import TrapPool
from repro.fabric.device import FpgaDevice
from repro.fabric.geometry import Coordinate
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.fabric.routing import SegmentId
from repro.fabric.segments import SegmentKind
from repro.physics.pool_array import (
    SegmentBtiArray,
    SegmentBtiSlot,
    TrapPoolArray,
)
from tests.oracles.aging import reference_aging

REF_K = REFERENCE_TEMPERATURE_K

_SEGMENT = SegmentId(SegmentKind.SINGLE, Coordinate(3, 4), 0)


def _state_type():
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
    return type(device.segment_state(_SEGMENT))


class TestKernelKnobs:
    """The one switch left is the test-side one: ``reference_aging()``
    swaps devices onto the per-segment oracle and must swap them back,
    or every later comparison would run oracle against oracle."""

    def test_known_kernels(self):
        assert _state_type() is SegmentBtiSlot
        with reference_aging():
            assert _state_type() is SegmentBti

    def test_context_manager_restores(self):
        before = dict(vars(FpgaDevice))
        with reference_aging():
            assert dict(vars(FpgaDevice)) != before
        assert dict(vars(FpgaDevice)) == before
        assert _state_type() is SegmentBtiSlot

    def test_context_manager_restores_on_error(self):
        before = dict(vars(FpgaDevice))
        with pytest.raises(RuntimeError):
            with reference_aging():
                raise RuntimeError("boom")
        assert dict(vars(FpgaDevice)) == before
        assert _state_type() is SegmentBtiSlot


class TestTrapPoolArrayBasics:
    def test_add_pool_returns_dense_indices(self):
        pools = TrapPoolArray(HIGH_POOL, capacity=2)
        assert [pools.add_pool(1.0) for _ in range(5)] == [0, 1, 2, 3, 4]
        assert len(pools) == 5

    def test_growth_preserves_state(self):
        pools = TrapPoolArray(HIGH_POOL, capacity=1)
        pools.add_pool(1.0)
        pools.stress([0], 10.0, REF_K)
        before = pools.charge_ps[0]
        for _ in range(40):  # force several doublings
            pools.add_pool(1.0)
        assert pools.charge_ps[0] == before

    def test_negative_amplitude_rejected(self):
        with pytest.raises(PhysicsError):
            TrapPoolArray(HIGH_POOL).add_pool(-1.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(PhysicsError):
            TrapPoolArray(HIGH_POOL, capacity=0)

    def test_invalid_interval_rejected(self):
        pools = TrapPoolArray(HIGH_POOL)
        pools.add_pool(1.0)
        with pytest.raises(PhysicsError):
            pools.stress([0], -1.0, REF_K)
        with pytest.raises(PhysicsError):
            pools.release([0], 1.0, 0.0)
        with pytest.raises(PhysicsError):
            pools.stress([0], 1.0, REF_K, duty=1.5)
        with pytest.raises(PhysicsError):
            pools.preload([0], -0.1)

    def test_view_bounds_checked(self):
        pools = TrapPoolArray(HIGH_POOL)
        pools.add_pool(1.0)
        with pytest.raises(PhysicsError):
            pools.view(1)

    def test_empty_index_set_is_noop(self):
        pools = TrapPoolArray(HIGH_POOL)
        pools.add_pool(1.0)
        pools.stress([], 10.0, REF_K)
        pools.release([], 10.0, REF_K)
        assert pools.charge_ps[0] == 0.0


def _random_schedule(rng, steps=60):
    """A randomised stress/release/preload schedule (shared per test)."""
    ops = []
    for _ in range(steps):
        op = rng.choice(["stress", "release", "preload"], p=[0.5, 0.4, 0.1])
        if op == "stress":
            ops.append((
                "stress",
                float(rng.uniform(0.1, 30.0)),
                float(rng.uniform(REF_K - 30.0, REF_K + 60.0)),
                float(rng.uniform(0.0, 4000.0)),   # device age
                float(rng.choice([0.0, 0.25, 0.5, 1.0])),  # duty
                float(rng.uniform(0.80, 0.90)),    # voltage
            ))
        elif op == "release":
            ops.append((
                "release",
                float(rng.uniform(0.1, 50.0)),
                float(rng.uniform(REF_K - 30.0, REF_K + 60.0)),
            ))
        else:
            ops.append(("preload", float(rng.uniform(0.0, 1.0))))
    return ops


class TestTrapPoolArrayEquivalence:
    @pytest.mark.parametrize("params", [HIGH_POOL, LOW_POOL],
                             ids=["high", "low"])
    def test_bit_identical_over_random_schedules(self, params):
        """The acceptance pin: exact float equality with TrapPool over
        randomised stress/release/re-stress/preload sweeps."""
        rng = np.random.default_rng(42)
        n_pools = 17
        amplitudes = rng.uniform(0.0, 2.0, size=n_pools)
        amplitudes[3] = 0.0  # a zero-amplitude pool rides along
        scalars = [TrapPool(params=params, amplitude_ps=float(a))
                   for a in amplitudes]
        pools = TrapPoolArray(params, capacity=4)
        for a in amplitudes:
            pools.add_pool(float(a))
        all_idx = np.arange(n_pools)
        for step, op in enumerate(_random_schedule(rng)):
            # Alternate full-device and random-subset index sets.
            if step % 3 == 2:
                idx = rng.choice(all_idx, size=rng.integers(1, n_pools),
                                 replace=False)
            else:
                idx = all_idx
            if op[0] == "stress":
                _, hours, temp, age, duty, volt = op
                pools.stress(idx, hours, temp, device_age_hours=age,
                             duty=duty, voltage_v=volt)
                for i in idx:
                    scalars[i].stress(hours, temp, device_age_hours=age,
                                      duty=duty, voltage_v=volt)
            elif op[0] == "release":
                _, hours, temp = op
                pools.release(idx, hours, temp)
                for i in idx:
                    scalars[i].release(hours, temp)
            else:
                _, charge = op
                pools.preload(idx, charge)
                for i in idx:
                    scalars[i].preload(charge)
            for i in range(n_pools):
                assert pools.charge_ps[i] == scalars[i].charge_ps, (
                    f"step {step}: pool {i} diverged"
                )
                assert (pools.equivalent_stress_hours[i]
                        == scalars[i].equivalent_stress_hours)

    def test_per_element_duty_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        duties = rng.uniform(0.0, 1.0, size=8)
        scalars = [TrapPool(params=HIGH_POOL, amplitude_ps=1.0)
                   for _ in duties]
        pools = TrapPoolArray(HIGH_POOL)
        for _ in duties:
            pools.add_pool(1.0)
        pools.stress(np.arange(8), 24.0, REF_K, duty=duties)
        for i, duty in enumerate(duties):
            scalars[i].stress(24.0, REF_K, duty=float(duty))
            assert pools.charge_ps[i] == scalars[i].charge_ps

    def test_slot_view_matches_scalar_pool(self):
        pool = TrapPool(params=HIGH_POOL, amplitude_ps=1.5)
        pools = TrapPoolArray(HIGH_POOL)
        slot = pools.view(pools.add_pool(1.5))
        for obj in (pool, slot):
            obj.stress(12.0, REF_K, device_age_hours=100.0, duty=0.75)
            obj.release(6.0, REF_K)
            obj.stress(3.0, REF_K)
        assert slot.charge_ps == pool.charge_ps
        assert slot.equivalent_stress_hours == pool.equivalent_stress_hours
        assert slot.amplitude_ps == pool.amplitude_ps
        assert slot.params is pool.params


def _make_traits(rng):
    return SegmentTraits(
        rising_delay_ps=float(rng.uniform(50.0, 200.0)),
        falling_delay_ps=float(rng.uniform(50.0, 200.0)),
        burn_amplitude_ps=float(rng.uniform(0.0, 1.0)),
    )


class TestSegmentBtiArrayEquivalence:
    def test_bit_identical_over_random_segment_schedules(self):
        rng = np.random.default_rng(9)
        n_seg = 11
        traits = [_make_traits(rng) for _ in range(n_seg)]
        scalars = [SegmentBti(t) for t in traits]
        array = SegmentBtiArray()
        for t in traits:
            array.register(t)
        all_idx = np.arange(n_seg)
        for step in range(40):
            op = rng.choice(["hold1", "hold0", "toggle", "idle", "preload"])
            hours = float(rng.uniform(0.5, 24.0))
            temp = float(rng.uniform(REF_K - 20.0, REF_K + 40.0))
            age = float(rng.uniform(0.0, 2000.0))
            idx = (all_idx if step % 2 == 0 else
                   rng.choice(all_idx, size=rng.integers(1, n_seg),
                              replace=False))
            if op in ("hold1", "hold0"):
                value = 1 if op == "hold1" else 0
                array.hold(idx, value, hours, temp, device_age_hours=age)
                for i in idx:
                    scalars[i].hold(value, hours, temp, device_age_hours=age)
            elif op == "toggle":
                duty = rng.uniform(0.0, 1.0, size=idx.shape)
                array.toggle(idx, hours, temp, device_age_hours=age,
                             duty_high=duty)
                for i, d in zip(idx, duty):
                    scalars[i].toggle(hours, temp, device_age_hours=age,
                                      duty_high=float(d))
            elif op == "idle":
                array.idle(idx, hours, temp)
                for i in idx:
                    scalars[i].idle(hours, temp)
            else:
                high = float(rng.uniform(0.0, 0.5))
                low = float(rng.uniform(0.0, 0.5))
                array.preload_imprint(idx, high_charge_ps=high,
                                      low_charge_ps=low)
                for i in idx:
                    scalars[i].preload_imprint(high_charge_ps=high,
                                               low_charge_ps=low)
            deltas = array.delta_ps(all_idx)
            rising = array.rising_delay_ps(all_idx)
            falling = array.falling_delay_ps(all_idx)
            for i in range(n_seg):
                reference = scalars[i].transition_delays()
                assert deltas[i] == scalars[i].delta_ps, f"step {step}"
                assert rising[i] == reference.rising_ps
                assert falling[i] == reference.falling_ps

    def test_slot_duck_types_segment_bti(self):
        rng = np.random.default_rng(3)
        traits = _make_traits(rng)
        scalar = SegmentBti(traits)
        array = SegmentBtiArray()
        slot = array.view(array.register(traits))
        for obj in (scalar, slot):
            obj.preload_imprint(high_charge_ps=0.2, low_charge_ps=0.1)
            obj.hold(1, 12.0, REF_K, device_age_hours=500.0)
            obj.toggle(6.0, REF_K, duty_high=0.3)
            obj.idle(2.0, REF_K)
        assert slot.delta_ps == scalar.delta_ps
        assert slot.transition_delays() == scalar.transition_delays()
        assert slot.snapshot() == scalar.snapshot()
        assert slot.traits is scalar.traits or slot.traits == scalar.traits
        assert slot.high_pool.charge_ps == scalar.high_pool.charge_ps
        assert slot.low_pool.charge_ps == scalar.low_pool.charge_ps

    def test_invalid_hold_value_rejected(self):
        array = SegmentBtiArray()
        array.register(SegmentTraits(100.0, 100.0, 1.0))
        with pytest.raises(PhysicsError):
            array.hold([0], 2, 1.0, REF_K)

    def test_view_bounds_checked(self):
        array = SegmentBtiArray()
        with pytest.raises(PhysicsError):
            array.view(0)


class TestRegisterMany:
    """Slice registration equals one ``register`` per segment."""

    def test_matches_one_at_a_time(self):
        rng = np.random.default_rng(12)
        traits = [_make_traits(rng) for _ in range(300)]
        single = SegmentBtiArray()
        for t in traits[:5]:
            single.register(t)
        for t in traits[5:]:
            single.register(t)
        bulk = SegmentBtiArray()
        columns = [
            [getattr(t, name) for t in traits]
            for name in ("rising_delay_ps", "falling_delay_ps",
                         "burn_amplitude_ps")
        ]
        assert bulk.register_many(*(c[:5] for c in columns)) == 0
        assert bulk.register_many(*(c[5:] for c in columns)) == 5
        assert len(bulk) == len(single) == 300
        slots = np.arange(300)
        for pool in ("high", "low"):
            assert (getattr(bulk, pool).amplitude_ps[:300]
                    == getattr(single, pool).amplitude_ps[:300]).all()
        assert (bulk.rising_delay_ps(slots)
                == single.rising_delay_ps(slots)).all()
        assert (bulk.falling_delay_ps(slots)
                == single.falling_delay_ps(slots)).all()
        assert [bulk.traits(i) for i in range(300)] == traits

    def test_grows_each_array_at_most_once(self):
        array = SegmentBtiArray()
        array.register(SegmentTraits(100.0, 100.0, 1.0))
        before = (array.high.amplitude_ps, array._rising_delay_ps)
        first = array.register_many([50.0] * 1000, [60.0] * 1000,
                                    [0.5] * 1000)
        assert first == 1 and len(array) == 1001
        assert array.high.capacity >= 1001 > before[0].shape[0]
        assert array._rising_delay_ps.shape[0] >= 1001
        assert array.traits(1000) == SegmentTraits(50.0, 60.0, 0.5)

    @pytest.mark.parametrize("rising, falling, amplitude", [
        ([100.0, 0.0], [100.0, 100.0], [1.0, 1.0]),
        ([100.0, 100.0], [100.0, -1.0], [1.0, 1.0]),
        ([100.0, 100.0], [100.0, 100.0], [1.0, -0.5]),
    ])
    def test_invalid_traits_rejected_whole(self, rising, falling, amplitude):
        array = SegmentBtiArray()
        with pytest.raises(PhysicsError):
            array.register_many(rising, falling, amplitude)
        assert len(array) == len(array.high) == len(array.low) == 0

    def test_traits_bounds_checked(self):
        array = SegmentBtiArray()
        array.register(SegmentTraits(100.0, 100.0, 1.0))
        with pytest.raises(PhysicsError):
            array.traits(1)
        with pytest.raises(PhysicsError):
            array.traits(-1)
