"""Tests for the cloud provider, tenancy lifecycle and allocation."""

import pytest

from repro.errors import (
    CapacityError,
    CloudError,
    DesignRuleViolation,
    TenancyError,
)
from repro.cloud.allocation import AllocationOrder, AllocationPolicy
from repro.cloud.fleet import build_fleet, cloud_wear_profile
from repro.cloud.provider import CloudProvider
from repro.designs import build_route_bank, build_target_design
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS
from repro.physics.aging import NEW_PART


def make_provider(fleet_size=2, policy=None, wear=NEW_PART, seed=1):
    provider = CloudProvider(seed=seed)
    fleet = build_fleet(VIRTEX_ULTRASCALE_PLUS, fleet_size, wear=wear, seed=seed)
    provider.create_region("us-east-1", fleet, policy=policy)
    return provider


def small_design(value=1, name="design"):
    grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
    routes = build_route_bank(grid, [1000.0])
    return build_target_design(
        VIRTEX_ULTRASCALE_PLUS, routes, [value], heater_dsps=0, name=name
    ), routes


class TestTenancy:
    def test_rent_and_release_cycle(self):
        provider = make_provider()
        instance = provider.rent("us-east-1", "alice")
        assert instance.active
        provider.release(instance)
        assert not instance.active

    def test_capacity_exhaustion(self):
        provider = make_provider(fleet_size=2)
        provider.rent("us-east-1", "a")
        provider.rent("us-east-1", "b")
        with pytest.raises(CapacityError):
            provider.rent("us-east-1", "c")

    def test_released_instance_rejects_operations(self):
        provider = make_provider()
        instance = provider.rent("us-east-1", "alice")
        provider.release(instance)
        with pytest.raises(TenancyError):
            instance.run_hours(1.0)

    def test_double_release_rejected(self):
        provider = make_provider()
        instance = provider.rent("us-east-1", "alice")
        provider.release(instance)
        with pytest.raises(TenancyError):
            provider.release(instance)

    def test_unknown_region_rejected(self):
        provider = make_provider()
        with pytest.raises(CloudError):
            provider.rent("mars-north-1", "alice")

    def test_duplicate_region_rejected(self):
        provider = make_provider()
        with pytest.raises(CloudError):
            provider.create_region("us-east-1", [])


class TestWipeOnRelease:
    def test_release_wipes_logical_state(self):
        provider = make_provider()
        design, _ = small_design()
        instance = provider.rent("us-east-1", "victim")
        instance.load_image(design.bitstream)
        device = instance.device
        provider.release(instance)
        assert device.loaded_design is None

    def test_release_preserves_analog_state(self):
        """Threat Model 2's foundation, at platform level."""
        provider = make_provider()
        design, routes = small_design()
        instance = provider.rent("us-east-1", "victim")
        instance.load_image(design.bitstream)
        instance.run_hours(48.0)
        device = instance.device
        imprint = device.route_delta_ps(routes[0])
        provider.release(instance)
        assert device.route_delta_ps(routes[0]) == pytest.approx(imprint)
        assert imprint > 0.1


class TestAllocation:
    def test_lifo_returns_most_recent_board(self):
        provider = make_provider(fleet_size=3)
        first = provider.rent("us-east-1", "a")
        first_device = first.device.device_id
        provider.advance(1.0)
        provider.release(first)
        again = provider.rent("us-east-1", "b")
        assert again.device.device_id == first_device

    def test_holdback_quarantines_returned_boards(self):
        policy = AllocationPolicy(holdback_hours=24.0)
        provider = make_provider(fleet_size=1, policy=policy)
        instance = provider.rent("us-east-1", "a")
        provider.advance(1.0)
        provider.release(instance)
        with pytest.raises(CapacityError):
            provider.rent("us-east-1", "b")
        provider.advance(25.0)
        provider.rent("us-east-1", "b")

    def test_random_order_is_reproducible(self):
        a = make_provider(fleet_size=4,
                          policy=AllocationPolicy(order=AllocationOrder.RANDOM),
                          seed=5)
        b = make_provider(fleet_size=4,
                          policy=AllocationPolicy(order=AllocationOrder.RANDOM),
                          seed=5)
        ids_a = [a.rent("us-east-1", "x").device.device_id for _ in range(4)]
        ids_b = [b.rent("us-east-1", "x").device.device_id for _ in range(4)]
        # Same relative order (absolute ids differ across fleets).
        rank_a = [sorted(ids_a).index(i) for i in ids_a]
        rank_b = [sorted(ids_b).index(i) for i in ids_b]
        assert rank_a == rank_b


class TestDrcAtLoad:
    def test_ring_oscillator_rejected_by_platform(self):
        from repro.fabric.bitstream import Bitstream
        from repro.fabric.geometry import Coordinate
        from repro.fabric.netlist import CellType
        from repro.fabric.placement import FixedPlacer
        from repro.sensor.ro import build_ro_netlist

        provider = make_provider()
        instance = provider.rent("us-east-1", "attacker")
        grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
        route = build_route_bank(grid, [1000.0])[0]
        netlist = build_ro_netlist("probe", route)
        placer = FixedPlacer(grid)
        placer.place_at("loop_inv", CellType.INVERTER, Coordinate(0, 16))
        placer.place_at("counter_ff", CellType.FLIP_FLOP, Coordinate(0, 16))
        ro_image = Bitstream.compile(netlist, placer.placement)
        with pytest.raises(DesignRuleViolation):
            instance.load_image(ro_image)

    def test_clean_design_loads(self):
        provider = make_provider()
        design, _ = small_design()
        instance = provider.rent("us-east-1", "tenant")
        instance.load_image(design.bitstream)
        assert instance.device.loaded_design is not None


class TestTime:
    def test_advance_moves_all_devices(self):
        provider = make_provider(fleet_size=3)
        provider.advance(5.0)
        provider.sync_all()
        region = provider.region("us-east-1")
        assert all(d.sim_hours == 5.0 for d in region.devices())
        assert provider.clock_hours == 5.0

    def test_lazy_devices_catch_up_on_touch(self):
        provider = make_provider(fleet_size=2)
        provider.advance(7.0)
        region = provider.region("us-east-1")
        device = region.devices()[0]
        assert device.pending_intervals == 1
        info = device.info()  # any observation syncs first
        assert device.pending_intervals == 0
        assert device.sim_hours == 7.0
        assert info.device_id == device.device_id

    def test_negative_advance_rejected(self):
        provider = make_provider()
        with pytest.raises(CloudError):
            provider.advance(-1.0)


class TestFleet:
    def test_cloud_wear_profile_scaling(self):
        profile = cloud_wear_profile(1000.0)
        assert profile.age_mean_hours == 1000.0
        default = cloud_wear_profile(4000.0)
        from repro.physics.aging import CLOUD_PART

        assert default is CLOUD_PART

    def test_fleet_size_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_fleet(VIRTEX_ULTRASCALE_PLUS, 0)
