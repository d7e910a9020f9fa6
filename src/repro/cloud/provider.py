"""The cloud provider: regions, the shared clock, and tenancy lifecycle.

The provider owns simulated time.  :meth:`CloudProvider.advance` moves
the global clock; renting hands out a free device per the region's
allocation policy; releasing **wipes the device's logical state** and
returns it to the pool -- with an optional hold-back delay, the Section
8.2 launch-rate-control mitigation.

Lazy aging
----------

The provider does not walk every device on every clock tick.  Each
region keeps an append-only :class:`RegionTimeline` of the
intervals the clock advanced through (duration + the ambient sampled at
the interval start), and every device carries only its *position* in
that timeline.  A device catches up -- replaying exactly the
``advance_hours`` calls the eager walker would have made, in the same
order, with the same ambient values -- the first time something observes
or mutates it (loading a design, wiping at release, reading a delay).
Devices with no analog state yet skip the replay entirely in O(1).
The synchronous walker this replaced is the test oracle
``tests/oracles/aging.py`` (``EagerProvider``); the equivalence suite
pins the two bit-identical.

Allocation is O(log n): the free pool is kept ordered by
``released_at_hours`` (releases arrive in clock order, so appends keep
it sorted), hold-back eligibility is a bisect, and LIFO/FIFO hand-out
pops an end of the live window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Optional

import numpy as np

from repro.errors import CapacityError, CloudError, TenancyError
from repro.cloud.allocation import AllocationOrder, AllocationPolicy
from repro.cloud.instance import F1Instance
from repro.fabric.device import FpgaDevice
from repro.fabric.thermal import DataCenterAmbient
from repro.rng import SeedLike, make_rng


class RegionTimeline:
    """Append-only record of one region's clock intervals.

    ``clock_after[i]`` is the provider clock after interval ``i``,
    accumulated with the same floating-point ``+=`` sequence the eager
    walker applies to ``device.sim_hours`` -- which is what lets a
    device with no analog state fast-forward to ``clock_after[-1]``
    bit-identically without replaying the intervals one by one.
    """

    __slots__ = ("start_clock", "durations", "ambients", "clock_after")

    def __init__(self, start_clock: float) -> None:
        self.start_clock = start_clock
        self.durations: list[float] = []
        self.ambients: list[float] = []
        self.clock_after: list[float] = []

    def append(self, duration_hours: float, ambient_k: float) -> None:
        """Record one interval (ambient sampled at its start)."""
        before = (
            self.clock_after[-1] if self.clock_after else self.start_clock
        )
        self.durations.append(duration_hours)
        self.ambients.append(ambient_k)
        self.clock_after.append(before + duration_hours)

    def __len__(self) -> int:
        return len(self.durations)

    def clock_before(self, position: int) -> float:
        """The clock value at a timeline position (before interval i)."""
        if position == 0:
            return self.start_clock
        return self.clock_after[position - 1]


class _PooledDevice:
    """A free device plus when it was returned (for hold-back)."""

    __slots__ = ("device", "released_at_hours")

    def __init__(self, device: FpgaDevice, released_at_hours: float) -> None:
        self.device = device
        self.released_at_hours = released_at_hours


class Region:
    """One region: a device fleet, an ambient profile, a policy.

    The free pool is stored sorted by ``released_at_hours`` ascending
    (releases carry the monotone provider clock, so appends preserve the
    order), with a parallel key list for bisection and a head offset so
    FIFO hand-out is an O(1) pop of the front.  Ties keep insertion
    order, so LIFO's "first of the most recent" and RANDOM's indexed
    draw pick exactly the device the old linear scan picked.
    """

    def __init__(
        self,
        name: str,
        provider: "CloudProvider",
        ambient: DataCenterAmbient,
        policy: AllocationPolicy,
    ) -> None:
        self.name = name
        self.provider = provider
        self.ambient = ambient
        self.policy = policy
        self.timeline = RegionTimeline(start_clock=provider.clock_hours)
        self._free: list[Optional[_PooledDevice]] = []
        self._keys: list[float] = []  # released_at, parallel to _free
        self._head: int = 0  # start of the live window (lazy front pops)
        self._rented: dict[int, F1Instance] = {}

    # -- free pool ---------------------------------------------------------

    def add_device(self, device: FpgaDevice) -> None:
        """Place a device into the free pool (never-released boards
        sort before every returned board)."""
        key = float("-inf")
        j = bisect_right(self._keys, key, lo=self._head)
        self._free.insert(j, _PooledDevice(device, released_at_hours=key))
        self._keys.insert(j, key)
        device.bind_timeline(self.timeline, len(self.timeline))

    def _return_device(self, device: FpgaDevice, released_at: float) -> None:
        """Append a returned board (clock order keeps the pool sorted)."""
        self._free.append(_PooledDevice(device, released_at))
        self._keys.append(released_at)

    def _eligible_window(self, now_hours: float) -> int:
        """End index (exclusive) of the eligible slice of the pool."""
        cutoff = now_hours - self.policy.holdback_hours
        return bisect_right(self._keys, cutoff, lo=self._head)

    def available_count(self, now_hours: float) -> int:
        """Devices eligible for allocation right now (one bisect)."""
        return self._eligible_window(now_hours) - self._head

    def _pop(self, index: int) -> _PooledDevice:
        pooled = self._free[index]
        assert pooled is not None
        if index == len(self._free) - 1:
            self._free.pop()
            self._keys.pop()
        elif index == self._head:
            self._free[index] = None
            self._head += 1
            if self._head > 32 and self._head * 2 >= len(self._free):
                del self._free[: self._head]
                del self._keys[: self._head]
                self._head = 0
        else:
            del self._free[index]
            del self._keys[index]
        return pooled

    def allocate(
        self, now_hours: float, rng: np.random.Generator
    ) -> FpgaDevice:
        """Hand out a free, non-quarantined device per the policy."""
        self.policy.admission_check(self.name)
        hi = self._eligible_window(now_hours)
        if hi <= self._head:
            raise CapacityError(
                f"region {self.name!r}: request limit exceeded, no F1 "
                f"instances available"
            )
        if self.policy.order is AllocationOrder.LIFO:
            # First of the most-recently-released group (ties keep
            # insertion order, matching the old ``max`` scan).
            j = bisect_left(self._keys, self._keys[hi - 1],
                            lo=self._head, hi=hi)
        elif self.policy.order is AllocationOrder.FIFO:
            j = self._head
        else:
            j = self._head + int(rng.integers(0, hi - self._head))
        return self._pop(j).device

    def retire_device(self, device: FpgaDevice) -> None:
        """Permanently remove a *free* device from the region.

        Hard failure / fleet retirement: the board leaves the pool for
        good (it is not quarantined -- nothing ever brings it back).
        Rented devices cannot be retired; release them first.  The
        sorted-pool invariants (``_keys`` parallel to ``_free``, live
        window starting at ``_head``) are preserved so subsequent
        LIFO/FIFO/RANDOM hand-outs see exactly the pool a fresh region
        with the surviving boards would hold.
        """
        for index in range(self._head, len(self._free)):
            pooled = self._free[index]
            if pooled is not None and pooled.device is device:
                self._pop(index)
                return
        raise TenancyError(
            f"region {self.name!r}: cannot retire device "
            f"{device.device_id!r}: not in the free pool"
        )

    def devices(self) -> list[FpgaDevice]:
        """All devices in the region, free or rented."""
        free = [p.device for p in self._free[self._head:] if p is not None]
        return free + [inst.device for inst in self._rented.values()]

    # -- lazy aging --------------------------------------------------------

    def sync_devices(self, devices: Optional[Iterable[FpgaDevice]] = None) -> None:
        """Catch every (or the given) device up to the region clock.

        Idle devices with analog state catch up together
        (:meth:`FpgaDevice.catch_up_idle`): per shared
        :class:`~repro.physics.pool_array.SegmentBtiArray`, one masked
        array update per pending interval covers every device that has
        it pending.  Devices with a design loaded replay on their own.
        """
        targets = list(devices) if devices is not None else self.devices()
        idle = []
        for device in targets:
            if device.pending_intervals == 0:
                continue
            if (
                device.loaded_design is None
                and device.materialised_segments > 0
            ):
                idle.append(device)
            else:
                device.sync()
        FpgaDevice.catch_up_idle([
            (device, device._take_pending_intervals()) for device in idle
        ])


class CloudProvider:
    """The platform operator."""

    def __init__(self, seed: SeedLike = None) -> None:
        self.clock_hours = 0.0
        self._rng: np.random.Generator = make_rng(seed)
        self._regions: dict[str, Region] = {}

    # -- topology ----------------------------------------------------------

    def create_region(
        self,
        name: str,
        devices: list[FpgaDevice],
        policy: Optional[AllocationPolicy] = None,
        ambient: Optional[DataCenterAmbient] = None,
    ) -> Region:
        """Stand up a region over a fleet of devices."""
        if name in self._regions:
            raise CloudError(f"region {name!r} already exists")
        region = Region(
            name=name,
            provider=self,
            ambient=ambient
            or DataCenterAmbient(seed=self._rng.integers(0, 2**63)),
            policy=policy or AllocationPolicy(),
        )
        for device in devices:
            # Racked devices see the data-centre ambient immediately.
            device.set_ambient(region.ambient.at(self.clock_hours))
            region.add_device(device)
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        """Look up a region by name."""
        if name not in self._regions:
            raise CloudError(f"no region named {name!r}")
        return self._regions[name]

    def regions(self) -> list[Region]:
        """All regions, in creation order."""
        return list(self._regions.values())

    # -- tenancy -----------------------------------------------------------

    def rent(self, region_name: str, tenant: str) -> F1Instance:
        """Allocate an instance to a tenant, per the region's policy."""
        region = self.region(region_name)
        device = region.allocate(self.clock_hours, self._rng)
        instance = F1Instance(device=device, region=region, tenant=tenant)
        region._rented[instance.instance_id] = instance
        return instance

    def release(self, instance: F1Instance) -> None:
        """End a tenancy: scrub the device and return it to the pool.

        The scrub clears every bit of logical state.  It cannot touch
        the analog domain -- that is the vulnerability.  (The wipe first
        catches the device up to *now*, so the tenancy's stress is
        integrated before the design disappears.)
        """
        region = self.region(instance.region_name)
        if instance.instance_id not in region._rented:
            raise TenancyError(
                f"instance {instance.instance_id} is not rented in "
                f"{region.name!r}"
            )
        instance.device.wipe()
        del region._rented[instance.instance_id]
        region._return_device(instance.device, self.clock_hours)
        instance.active = False

    # -- time --------------------------------------------------------------

    def advance(self, hours: float) -> None:
        """Advance the global clock.

        Every device in every region experiences the interval: rented
        devices run their loaded designs (powered, stressing), free
        devices idle (annealing).  The interval is only *recorded*
        here; devices integrate it on first touch.
        """
        if hours < 0.0:
            raise CloudError(f"cannot advance time by {hours} hours")
        if hours == 0.0:
            return
        for region in self._regions.values():
            ambient_k = region.ambient.at(self.clock_hours)
            region.timeline.append(hours, ambient_k)
        self.clock_hours += hours

    def sync_all(self) -> None:
        """Catch every device in every region up to the current clock."""
        for region in self._regions.values():
            region.sync_devices()
