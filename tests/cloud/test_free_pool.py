"""The sorted free pool must match the legacy linear scan exactly.

``Region`` keeps its free list ordered by ``released_at_hours`` with a
bisected eligibility window and O(1) end pops.  These micro-tests pin
it against a naive reimplementation of the old semantics (linear scan,
first-of-the-maximal ties for LIFO, insertion-order RANDOM indexing)
under randomized rent/release/advance schedules.
"""

import numpy as np
import pytest

from repro.errors import CapacityError, TenancyError
from repro.cloud.allocation import AllocationOrder, AllocationPolicy
from repro.cloud.fleet import build_fleet
from repro.cloud.provider import CloudProvider
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS


class NaivePool:
    """The pre-optimisation free pool: a list and linear scans."""

    def __init__(self, device_ids, holdback):
        self.free = [(d, float("-inf")) for d in device_ids]
        self.holdback = holdback

    def eligible(self, now):
        cutoff = now - self.holdback
        return [
            i for i, (_, at) in enumerate(self.free) if at <= cutoff
        ]

    def allocate(self, now, order, rng):
        idx = self.eligible(now)
        if not idx:
            return None
        if order is AllocationOrder.LIFO:
            j = max(idx, key=lambda i: self.free[i][1])
            # ``max`` keeps the *first* of equal keys, matching the old
            # linear scan's tie behaviour.
        elif order is AllocationOrder.FIFO:
            j = min(idx, key=lambda i: self.free[i][1])
        else:
            j = idx[int(rng.integers(0, len(idx)))]
        device, _ = self.free.pop(j)
        return device

    def release(self, device, now):
        self.free.append((device, now))

    def retire(self, device):
        for i, (d, _) in enumerate(self.free):
            if d == device:
                self.free.pop(i)
                return
        raise AssertionError(f"device {device} not free in naive pool")


@pytest.mark.parametrize("order", list(AllocationOrder))
@pytest.mark.parametrize("holdback", [0.0, 6.0])
@pytest.mark.parametrize("seed", [1, 17])
def test_pool_matches_naive_scan(order, holdback, seed):
    policy = AllocationPolicy(order=order, holdback_hours=holdback)
    provider = CloudProvider(seed=seed)
    fleet = build_fleet(VIRTEX_ULTRASCALE_PLUS, 8, seed=seed)
    provider.create_region("r", fleet, policy=policy)
    region = provider.region("r")
    naive = NaivePool([d.device_id for d in fleet], holdback)
    # The region consumes allocation randomness from the provider's
    # root stream; mirror it by replaying an identical generator.
    mirror_rng = np.random.default_rng(seed)
    region_rng = np.random.default_rng(seed)

    schedule_rng = np.random.default_rng(seed + 1000)
    held = []
    for _ in range(200):
        move = schedule_rng.random()
        if move < 0.45:
            now = provider.clock_hours
            expected = naive.allocate(now, order, mirror_rng)
            try:
                device = region.allocate(now, region_rng)
            except CapacityError:
                device = None
            if expected is None:
                assert device is None
            else:
                assert device is not None
                assert device.device_id == expected
                held.append(device)
        elif move < 0.75 and held:
            device = held.pop(0)
            region._return_device(device, provider.clock_hours)
            naive.release(device.device_id, provider.clock_hours)
        else:
            provider.advance(float(schedule_rng.uniform(0.1, 4.0)))
        assert region.available_count(provider.clock_hours) == len(
            naive.eligible(provider.clock_hours)
        )


def test_lifo_tie_takes_first_inserted():
    """Boards released at the same instant: LIFO hands out the one
    returned first (the old ``max`` scan's tie rule)."""
    provider = CloudProvider(seed=3)
    fleet = build_fleet(VIRTEX_ULTRASCALE_PLUS, 3, seed=3)
    provider.create_region("r", fleet)
    region = provider.region("r")
    a = provider.rent("r", "t1")
    b = provider.rent("r", "t2")
    provider.advance(1.0)
    provider.release(a)
    provider.release(b)  # same clock tick
    nxt = provider.rent("r", "t3")
    assert nxt.device is a.device


def test_holdback_boundary_is_inclusive():
    """A board becomes eligible at exactly release + holdback."""
    policy = AllocationPolicy(holdback_hours=5.0)
    provider = CloudProvider(seed=4)
    provider.create_region(
        "r", build_fleet(VIRTEX_ULTRASCALE_PLUS, 1, seed=4), policy=policy
    )
    region = provider.region("r")
    instance = provider.rent("r", "t")
    provider.advance(2.0)
    provider.release(instance)
    assert region.available_count(provider.clock_hours) == 0
    provider.advance(5.0)  # exactly the holdback
    assert region.available_count(provider.clock_hours) == 1
    assert provider.rent("r", "t2").device is instance.device


@pytest.mark.parametrize("order", list(AllocationOrder))
@pytest.mark.parametrize("holdback", [0.0, 6.0])
@pytest.mark.parametrize("seed", [2, 23])
def test_retirement_interleaved_matches_naive_scan(order, holdback, seed):
    """Hard-failure retirement mixed into rent/release churn: hand-out
    order (including LIFO/FIFO/RANDOM tie semantics and holdback
    eligibility) must match the naive pool with the same device
    removed."""
    policy = AllocationPolicy(order=order, holdback_hours=holdback)
    provider = CloudProvider(seed=seed)
    fleet = build_fleet(VIRTEX_ULTRASCALE_PLUS, 12, seed=seed)
    provider.create_region("r", fleet, policy=policy)
    region = provider.region("r")
    by_id = {d.device_id: d for d in fleet}
    naive = NaivePool([d.device_id for d in fleet], holdback)
    mirror_rng = np.random.default_rng(seed)
    region_rng = np.random.default_rng(seed)

    schedule_rng = np.random.default_rng(seed + 2000)
    held = []
    retired = 0
    for _ in range(300):
        move = schedule_rng.random()
        if move < 0.40:
            now = provider.clock_hours
            expected = naive.allocate(now, order, mirror_rng)
            try:
                device = region.allocate(now, region_rng)
            except CapacityError:
                device = None
            if expected is None:
                assert device is None
            else:
                assert device is not None
                assert device.device_id == expected
                held.append(device)
        elif move < 0.70 and held:
            device = held.pop(0)
            region._return_device(device, provider.clock_hours)
            naive.release(device.device_id, provider.clock_hours)
        elif move < 0.85 and naive.free and retired < 8:
            # Retire a random *free* board (held-back ones included --
            # a hard failure does not wait out the holdback).
            k = int(schedule_rng.integers(0, len(naive.free)))
            victim_id = naive.free[k][0]
            region.retire_device(by_id[victim_id])
            naive.retire(victim_id)
            retired += 1
        else:
            provider.advance(float(schedule_rng.uniform(0.1, 4.0)))
        assert region.available_count(provider.clock_hours) == len(
            naive.eligible(provider.clock_hours)
        )
        # Held boards were taken via ``allocate`` directly, so
        # ``devices()`` sees exactly the naive free list.
        assert len(region.devices()) == len(naive.free)


def test_mass_retirement_compacts_to_survivors():
    """Retiring most of the fleet leaves exactly the survivors, in a
    pool a fresh region over those boards would also produce."""
    provider = CloudProvider(seed=6)
    fleet = build_fleet(VIRTEX_ULTRASCALE_PLUS, 10, seed=6)
    provider.create_region("r", fleet)
    region = provider.region("r")
    for device in fleet[:8]:
        region.retire_device(device)
    survivors = {d.device_id for d in fleet[8:]}
    assert {d.device_id for d in region.devices()} == survivors
    assert region.available_count(provider.clock_hours) == 2
    first = provider.rent("r", "t")
    assert first.device.device_id in survivors


def test_retire_rented_device_raises():
    provider = CloudProvider(seed=7)
    fleet = build_fleet(VIRTEX_ULTRASCALE_PLUS, 2, seed=7)
    provider.create_region("r", fleet)
    region = provider.region("r")
    instance = provider.rent("r", "t")
    with pytest.raises(TenancyError, match="not in the free pool"):
        region.retire_device(instance.device)
    # Released again, the same board retires cleanly.
    provider.release(instance)
    region.retire_device(instance.device)
    assert len(region.devices()) == 1


def test_retirement_survives_front_pop_compaction():
    """Retiring out of a pool whose lazy front has wrapped many times
    (the FIFO compaction path) must not resurrect popped entries."""
    policy = AllocationPolicy(order=AllocationOrder.FIFO)
    provider = CloudProvider(seed=8)
    fleet = build_fleet(VIRTEX_ULTRASCALE_PLUS, 6, seed=8)
    provider.create_region("r", fleet, policy=policy)
    region = provider.region("r")
    for _ in range(120):
        instance = provider.rent("r", "t")
        provider.advance(0.5)
        provider.release(instance)
    region.retire_device(fleet[0])
    region.retire_device(fleet[3])
    remaining = {d.device_id for d in fleet} - {
        fleet[0].device_id, fleet[3].device_id
    }
    assert {d.device_id for d in region.devices()} == remaining
    assert region.available_count(provider.clock_hours) == 4


def test_front_pop_compaction_keeps_pool_consistent():
    """FIFO's lazy front pops periodically compact; the live window
    must survive many wrap-arounds."""
    policy = AllocationPolicy(order=AllocationOrder.FIFO)
    provider = CloudProvider(seed=5)
    fleet = build_fleet(VIRTEX_ULTRASCALE_PLUS, 6, seed=5)
    provider.create_region("r", fleet, policy=policy)
    region = provider.region("r")
    for _ in range(150):
        instance = provider.rent("r", "t")
        provider.advance(0.5)
        provider.release(instance)
    assert region.available_count(provider.clock_hours) == 6
    assert len(region.devices()) == 6
    assert len({d.device_id for d in region.devices()}) == 6
