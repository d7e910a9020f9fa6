"""Tests for the FpgaDevice: the persistence of analog state is the
vulnerability, so these are the most security-relevant invariants in the
code base."""

import itertools

import numpy as np
import pytest

from repro.errors import FabricError
from repro.designs import build_route_bank, build_target_design
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS, ZYNQ_ULTRASCALE_PLUS
from repro.fabric.routing import Route
from repro.physics.aging import CLOUD_PART, NEW_PART
from repro.physics.pool_array import SegmentBtiArray, aging_kernel
from repro.units import celsius_to_kelvin

AMBIENT = celsius_to_kelvin(60.0)


def conditioned_device(burn_values=(1, 0), hours=24):
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=7)
    routes = build_route_bank(device.grid, [2000.0] * len(burn_values))
    design = build_target_design(
        device.part, routes, list(burn_values), heater_dsps=0
    )
    device.load(design.bitstream)
    device.advance_hours(float(hours), AMBIENT)
    return device, routes


class TestWipeSemantics:
    def test_wipe_clears_logical_state(self):
        device, _ = conditioned_device()
        assert device.loaded_design is not None
        device.wipe()
        assert device.loaded_design is None

    def test_wipe_preserves_analog_state(self):
        """The central claim of the paper, enforced structurally."""
        device, routes = conditioned_device()
        before = [device.route_delta_ps(r) for r in routes]
        device.wipe()
        after = [device.route_delta_ps(r) for r in routes]
        assert after == before
        assert abs(after[0]) > 0.1  # a real imprint survived

    def test_reload_after_wipe_sees_same_transistors(self):
        device, routes = conditioned_device()
        imprint = device.route_delta_ps(routes[0])
        device.wipe()
        other = build_target_design(
            device.part, routes, [0, 0], heater_dsps=0, name="second-tenant"
        )
        device.load(other.bitstream)
        assert device.route_delta_ps(routes[0]) == pytest.approx(imprint)


class TestLoadLifecycle:
    def test_double_load_rejected(self):
        device, routes = conditioned_device()
        design = build_target_design(
            device.part, routes, [1, 1], heater_dsps=0, name="x"
        )
        with pytest.raises(FabricError):
            device.load(design.bitstream)

    def test_advance_without_design_anneals(self):
        device, routes = conditioned_device(burn_values=(1, 1), hours=50)
        device.wipe()
        before = device.route_delta_ps(routes[0])
        device.advance_hours(100.0, AMBIENT)
        after = device.route_delta_ps(routes[0])
        assert 0.0 <= after < before

    def test_negative_advance_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        with pytest.raises(FabricError):
            device.advance_hours(-1.0, AMBIENT)

    def test_age_accumulates_only_while_powered(self):
        device, _ = conditioned_device(hours=10)
        powered_age = device.effective_age_hours
        device.wipe()
        device.advance_hours(10.0, AMBIENT)
        assert device.effective_age_hours == powered_age

    def test_sim_hours_always_advance(self):
        device, _ = conditioned_device(hours=10)
        device.wipe()
        device.advance_hours(5.0, AMBIENT)
        assert device.sim_hours == pytest.approx(15.0)


class TestBurnDirection:
    def test_burn_values_imprint_with_correct_signs(self):
        device, routes = conditioned_device(burn_values=(1, 0), hours=48)
        assert device.route_delta_ps(routes[0]) > 0.0
        assert device.route_delta_ps(routes[1]) < 0.0

    def test_longer_routes_imprint_more(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=9)
        routes = build_route_bank(device.grid, [1000.0, 10000.0])
        design = build_target_design(device.part, routes, [1, 1], heater_dsps=0)
        device.load(design.bitstream)
        device.advance_hours(48.0, AMBIENT)
        short, long_ = (device.route_delta_ps(r) for r in routes)
        assert long_ > 4.0 * short


class TestWear:
    def test_cloud_devices_have_residual_imprints(self):
        device = FpgaDevice(VIRTEX_ULTRASCALE_PLUS, wear=CLOUD_PART, seed=11)
        routes = build_route_bank(device.grid, [5000.0])
        delta = device.route_delta_ps(routes[0])
        # Residuals are nonzero but small relative to a fresh burn.
        assert delta != 0.0
        assert abs(delta) < 3.0

    def test_new_devices_are_clean(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=12)
        routes = build_route_bank(device.grid, [5000.0])
        assert device.route_delta_ps(routes[0]) == 0.0

    def test_device_ids_unique(self):
        a = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        b = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        assert a.device_id != b.device_id

    def test_info_reports_identity(self):
        device = FpgaDevice(VIRTEX_ULTRASCALE_PLUS, wear=CLOUD_PART, seed=13)
        info = device.info()
        assert info.part_name == "xcvu9p"
        assert info.effective_age_hours > 0.0


class TestAgingKernelEquivalence:
    """The array kernel must be bit-identical to the scalar reference
    at the device level: same seed, same schedule, same delays."""

    @staticmethod
    def _run_history(kernel, wear):
        with aging_kernel(kernel):
            device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=21)
        routes = build_route_bank(device.grid, [2000.0, 3000.0, 1500.0])
        design = build_target_design(
            device.part, routes, [1, 0, 1], heater_dsps=2
        )
        device.load(design.bitstream)
        device.advance_hours(24.0, AMBIENT)
        device.advance_hours(12.0, AMBIENT + 10.0)
        device.wipe()
        device.advance_hours(8.0, AMBIENT)
        second = build_target_design(
            device.part, routes, [0, 1, 0], heater_dsps=0, name="tenant-2"
        )
        device.load(second.bitstream)
        device.advance_hours(16.0, AMBIENT)
        return device, routes

    @pytest.mark.parametrize("wear", [NEW_PART, CLOUD_PART],
                             ids=["new", "cloud"])
    def test_kernels_bit_identical_across_tenant_history(self, wear):
        scalar_dev, scalar_routes = self._run_history("scalar", wear)
        array_dev, array_routes = self._run_history("array", wear)
        for sr, ar in zip(scalar_routes, array_routes):
            assert array_dev.route_delta_ps(ar) == scalar_dev.route_delta_ps(sr)
            assert (array_dev.transition_delays(ar)
                    == scalar_dev.transition_delays(sr))

    def test_kernel_resolved_at_construction(self):
        with aging_kernel("scalar"):
            device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        # Leaving the context does not retroactively change the device.
        assert device.aging_kernel == "scalar"
        assert "scalar" in repr(device)

    def test_explicit_kernel_overrides_default(self):
        with aging_kernel("scalar"):
            device = FpgaDevice(
                ZYNQ_ULTRASCALE_PLUS, seed=1, aging_kernel="array"
            )
        assert device.aging_kernel == "array"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(FabricError):
            FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1, aging_kernel="turbo")

    def test_segment_views_are_stable(self):
        """segment_state under the array kernel returns the same cached
        view object for the same physical segment."""
        device, routes = conditioned_device()
        assert device.aging_kernel == "array"
        segment_id = next(iter(routes[0]))
        assert device.segment_state(segment_id) is device.segment_state(
            segment_id
        )

    def test_group_cache_invalidated_by_reload(self):
        """A second tenant's design must not reuse the first design's
        activity grouping."""
        device, routes = conditioned_device(burn_values=(1, 1), hours=24)
        first = device.route_delta_ps(routes[0])
        device.wipe()
        opposite = build_target_design(
            device.part, routes, [0, 0], heater_dsps=0, name="opposite"
        )
        device.load(opposite.bitstream)
        device.advance_hours(24.0, AMBIENT)
        # Holding the opposite value anneals the high pool and stresses
        # the low pool: the imprint must move downward.
        assert device.route_delta_ps(routes[0]) < first


def _one_at_a_time(device, segment_ids):
    """Oracle: draw, register and preload each new segment on its own."""
    store = device.aging_store
    for segment_id in segment_ids:
        if segment_id in device._array_index:
            continue
        traits, high, low = device._materialise(segment_id)
        index = store.register(traits)
        if high or low:
            store.preload_imprint(
                [index], high_charge_ps=high, low_charge_ps=low
            )
        device._array_index[segment_id] = index


def _design_segments(design):
    return itertools.chain.from_iterable(
        net.route for net in design.bitstream.netlist.routed_nets()
    )


_POOL_FIELDS = (
    "amplitude_ps", "charge_ps", "equivalent_stress_hours",
    "recovery_elapsed_hours", "recovery_wall_hours",
    "charge_at_release_ps", "recovering",
)


def _assert_same_store(batched, oracle):
    count = len(batched)
    assert len(oracle) == count
    for pool in ("high", "low"):
        for name in _POOL_FIELDS:
            got = getattr(getattr(batched, pool), name)[:count]
            want = getattr(getattr(oracle, pool), name)[:count]
            assert (got == want).all(), f"{pool}.{name}"
    slots = np.arange(count)
    assert (batched.rising_delay_ps(slots)
            == oracle.rising_delay_ps(slots)).all()
    assert (batched.falling_delay_ps(slots)
            == oracle.falling_delay_ps(slots)).all()


def _assert_same_device(batched, oracle):
    assert batched.materialised_segments == oracle.materialised_segments
    assert batched._array_index == oracle._array_index
    _assert_same_store(batched.aging_store, oracle.aging_store)


_WEARS = pytest.mark.parametrize(
    "wear", [NEW_PART, CLOUD_PART], ids=["new", "cloud"]
)


class TestBatchedMaterialisation:
    """A request (route read or design load) materialises its new
    segments in one batch; every slot must equal the one-segment-at-a-
    time oracle bit for bit."""

    @staticmethod
    def _routes(device):
        routes = build_route_bank(device.grid, [2000.0, 3000.0, 1500.0])
        # Repeats within one request, plus segments of a second route.
        repeated = Route(
            "repeated",
            routes[0].segments[:4] + routes[0].segments[:2]
            + routes[2].segments[:3] + routes[0].segments[3:5],
        )
        return routes, repeated

    @_WEARS
    def test_route_with_repeated_segment(self, wear):
        batched = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=31)
        oracle = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=31)
        _, repeated = self._routes(batched)
        delta = batched.route_delta_ps(repeated)
        _one_at_a_time(oracle, repeated)
        assert oracle.route_delta_ps(repeated) == delta
        assert batched.materialised_segments == len(set(repeated))
        _assert_same_device(batched, oracle)

    @_WEARS
    def test_route_read_after_load(self, wear):
        batched = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=32)
        oracle = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=32)
        routes, repeated = self._routes(batched)
        design = build_target_design(
            batched.part, routes[:2], [1, 0], heater_dsps=2
        )
        batched.load(design.bitstream)
        delays = batched.transition_delays(repeated)
        _one_at_a_time(oracle, _design_segments(design))
        oracle.load(design.bitstream)
        _one_at_a_time(oracle, repeated)
        assert oracle.transition_delays(repeated) == delays
        _assert_same_device(batched, oracle)
        for device in (batched, oracle):
            device.advance_hours(24.0, AMBIENT)
        for route in routes + [repeated]:
            assert batched.route_delta_ps(route) == oracle.route_delta_ps(
                route
            )
        _assert_same_device(batched, oracle)

    @_WEARS
    def test_shared_store_interleaved_reads(self, wear):
        def fleet():
            store = SegmentBtiArray()
            return [
                FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=seed,
                           bti_store=store)
                for seed in (41, 42)
            ]

        batched, oracle = fleet(), fleet()
        routes, repeated = self._routes(batched[0])
        for route in (routes[0], repeated, routes[1]):
            for b, o in zip(batched, oracle):
                delta = b.route_delta_ps(route)
                _one_at_a_time(o, route)
                assert o.route_delta_ps(route) == delta
        for b, o in zip(batched, oracle):
            _assert_same_device(b, o)

    @pytest.mark.parametrize(
        "wear, preloads", [(NEW_PART, 0), (CLOUD_PART, 1)],
        ids=["new", "cloud"],
    )
    def test_one_preload_per_request(self, wear, preloads, monkeypatch):
        calls = []
        original = SegmentBtiArray.preload_imprint

        def counting(store, indices, *args, **kwargs):
            calls.append(len(indices))
            return original(store, indices, *args, **kwargs)

        monkeypatch.setattr(SegmentBtiArray, "preload_imprint", counting)
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=33)
        routes, repeated = self._routes(device)
        design = build_target_design(
            device.part, routes[:2], [1, 0], heater_dsps=0
        )
        device.load(design.bitstream)
        assert len(calls) == preloads
        device.route_delta_ps(repeated)
        assert len(calls) == 2 * preloads
        device.route_delta_ps(repeated)  # nothing new to materialise
        assert len(calls) == 2 * preloads

    @_WEARS
    def test_scalar_kernel_matches(self, wear):
        def history(kernel):
            device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=34,
                                aging_kernel=kernel)
            routes, repeated = self._routes(device)
            design = build_target_design(
                device.part, routes[:2], [0, 1], heater_dsps=0
            )
            device.load(design.bitstream)
            first = device.route_delta_ps(repeated)
            device.advance_hours(12.0, AMBIENT)
            reads = [device.route_delta_ps(r) for r in routes + [repeated]]
            return device, first, reads, device.transition_delays(repeated)

        scalar, *scalar_reads = history("scalar")
        array, *array_reads = history("array")
        assert array_reads == scalar_reads
        assert array.materialised_segments == scalar.materialised_segments


class TestThermalCoupling:
    def test_junction_reflects_loaded_power(self):
        device, _ = conditioned_device()
        loaded = device.junction_k()
        device.wipe()
        assert device.junction_k() < loaded

    def test_delays_shift_with_temperature(self):
        device, routes = conditioned_device(hours=1)
        cool = device.transition_delays(routes[0]).rising_ps
        device.set_ambient(AMBIENT + 30.0)
        warm = device.transition_delays(routes[0]).rising_ps
        assert warm > cool

    def test_invalid_ambient_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        with pytest.raises(FabricError):
            device.set_ambient(0.0)
