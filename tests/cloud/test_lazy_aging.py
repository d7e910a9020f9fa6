"""Lazy aging must be bit-identical to the eager walker.

The provider records clock intervals on a region timeline and devices
replay them on first touch; these tests pin that the replay produces
*exactly* the state the synchronous walker (the ``EagerProvider``
oracle) produces -- same
``sim_hours``, same effective age, same per-route remanence, same
transition delays -- across randomized rent/load/run/release/wipe
schedules driven through the event loop.
"""

import numpy as np
import pytest

from repro.cloud.events import EventKind, EventLoop
from repro.cloud.fleet import build_fleet
from repro.cloud.provider import CloudProvider, RegionTimeline
from repro.designs import build_route_bank, build_target_design
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS
from repro.physics.aging import CLOUD_PART
from repro.physics.pool_array import SegmentBtiArray
from tests.oracles.aging import EagerProvider


def _make_provider(seed, lazy, fleet_size=4):
    provider = (CloudProvider if lazy else EagerProvider)(seed=seed)
    fleet = build_fleet(
        VIRTEX_ULTRASCALE_PLUS, fleet_size, wear=CLOUD_PART, seed=seed
    )
    provider.create_region("r", fleet)
    return provider


def _device_state(provider, routes):
    """Every observable analog quantity, per device, after a sync."""
    provider.sync_all()
    state = []
    for device in sorted(
        provider.region("r").devices(), key=lambda d: d.device_id
    ):
        delays = device.transition_delays(routes[0])
        state.append({
            "sim_hours": device.sim_hours,
            "age": device.effective_age_hours,
            "deltas": [device.route_delta_ps(r) for r in routes],
            "rising": delays.rising_ps,
            "falling": delays.falling_ps,
        })
    return state


def _run_schedule(provider, routes, design, seed):
    """A randomized tenancy schedule, replayed via the event loop."""
    rng = np.random.default_rng(seed)
    loop = EventLoop(provider)
    held = []

    def do_rent(lp, event):
        try:
            instance = provider.rent("r", event.data["tenant"])
        except Exception:
            return
        held.append(instance)
        if event.data["load"]:
            instance.load_image(design.bitstream)

    def do_release(lp, event):
        if held:
            provider.release(held.pop(0))

    t = 0.0
    for i in range(24):
        t += float(rng.uniform(0.5, 30.0))
        if rng.random() < 0.55:
            loop.schedule(t, EventKind.RENT, do_rent,
                          tenant=f"t{i}", load=bool(rng.random() < 0.7))
        else:
            loop.schedule(t, EventKind.RELEASE, do_release)
    loop.run(until_hours=t + float(rng.uniform(1.0, 50.0)))


class TestEagerLazyEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_randomized_schedule_bit_identical(self, seed):
        grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [10000.0, 5000.0])
        design = build_target_design(
            VIRTEX_ULTRASCALE_PLUS, routes, [1, 0], heater_dsps=0
        )
        states = {}
        for lazy in (False, True):
            provider = _make_provider(seed, lazy)
            _run_schedule(provider, routes, design, seed)
            states[lazy] = _device_state(provider, routes)
        for eager_dev, lazy_dev in zip(states[False], states[True]):
            # Bit-identical, not approximately equal.
            assert eager_dev["sim_hours"] == lazy_dev["sim_hours"]
            assert eager_dev["age"] == lazy_dev["age"]
            assert eager_dev["deltas"] == lazy_dev["deltas"]
            assert eager_dev["rising"] == lazy_dev["rising"]
            assert eager_dev["falling"] == lazy_dev["falling"]

    def test_zero_state_fast_forward(self):
        provider = _make_provider(3, lazy=True, fleet_size=2)
        for _ in range(50):
            provider.advance(7.3)
        device = provider.region("r").devices()[0]
        assert device.pending_intervals == 50
        device.sync()
        # The fast path accumulates the same += sequence the eager
        # walker applies, so equality is exact.
        eager = _make_provider(3, lazy=False, fleet_size=2)
        for _ in range(50):
            eager.advance(7.3)
        assert device.sim_hours == eager.region("r").devices()[0].sim_hours

    def test_sync_is_idempotent(self):
        provider = _make_provider(5, lazy=True)
        provider.advance(12.0)
        device = provider.region("r").devices()[0]
        assert device.sync() > 0
        assert device.sync() == 0
        assert device.sim_hours == 12.0


class TestRegionTimeline:
    def test_clock_accumulates_like_the_walker(self):
        timeline = RegionTimeline(start_clock=0.0)
        sim = 0.0
        for d in (0.1, 0.2, 0.7, 123.456, 1e-3):
            timeline.append(d, 300.0)
            sim += d
        assert timeline.clock_after[-1] == sim
        assert timeline.clock_before(0) == 0.0
        assert timeline.clock_before(2) == timeline.clock_after[1]
        assert len(timeline) == 5


class TestBulkGroupSync:
    def test_grouped_catch_up_matches_individual_sync(self):
        """Idle devices sharing one store advance as a group; the
        result must equal syncing each device alone."""
        grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [10000.0])
        design = build_target_design(
            VIRTEX_ULTRASCALE_PLUS, routes, [1], heater_dsps=0
        )

        def build(seed):
            provider = CloudProvider(seed=seed)
            store = SegmentBtiArray()
            fleet = build_fleet(
                VIRTEX_ULTRASCALE_PLUS, 3, wear=CLOUD_PART, seed=seed,
                bti_store=store,
            )
            provider.create_region("r", fleet)
            # Materialise analog state on every board, then idle.
            held = [provider.rent("r", "warm") for _ in range(3)]
            for inst in held:
                inst.load_image(design.bitstream)
            provider.advance(5.0)
            for inst in held:
                provider.release(inst)
            provider.advance(40.0)
            provider.advance(17.0)
            return provider

        grouped = build(9)
        for device in grouped.region("r").devices():
            assert device.pending_intervals == 2
        grouped.sync_all()  # one FleetAgingArray catch-up for all three

        individual = build(9)
        for device in individual.region("r").devices():
            device.sync()  # per-device replay

        for a, b in zip(
            sorted(grouped.region("r").devices(), key=lambda d: d.device_id),
            sorted(individual.region("r").devices(),
                   key=lambda d: d.device_id),
        ):
            assert a.sim_hours == b.sim_hours
            assert a.route_delta_ps(routes[0]) == b.route_delta_ps(routes[0])
