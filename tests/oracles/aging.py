"""Reference aging paths: the oracles for the array engine and lazy aging.

Production ages a device one way: its segments live in a
:class:`~repro.physics.pool_array.SegmentBtiArray`, an interval is a
handful of masked array updates, and a cloud region records clock
intervals on a timeline that devices replay on first touch.  This
module keeps the plain versions those replaced, so tests can compare
against them with ``==``:

* **per-segment walk** -- one :class:`~repro.physics.bti.SegmentBti`
  object per materialised segment, stressed, toggled or annealed one
  net at a time, with route delays summed segment by segment, devices
  read and caught up one after another.
  :func:`reference_aging` swaps it into :class:`FpgaDevice` for
  whole-experiment runs.
* **eager walker** -- :class:`EagerProvider` advances every device of
  every region on every clock tick, so nothing is ever pending.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.cloud.provider import CloudProvider, Region
from repro.errors import CloudError
from repro.fabric.device import (
    DELAY_TEMP_COEFF_PER_K,
    FpgaDevice,
    SegmentRequest,
    _DELAY_TEMP_REF_K,
)
from repro.fabric.netlist import NetActivity
from repro.fabric.routing import Route, SegmentId
from repro.physics.bti import SegmentBti, SegmentTraits
from repro.physics.delay import TransitionDelays


def _materialise(device: FpgaDevice, segment_ids) -> None:
    """Draw each new segment's traits and imprints into a SegmentBti.

    The draws are the production ones (:meth:`FpgaDevice._draw`), one
    segment at a time; the fabric oracle pins that per-segment draws
    equal the batched ones.
    """
    for segment_id in segment_ids:
        if segment_id in device._segments:
            continue
        rising, falling, amplitude, high, low = device._draw(
            SegmentRequest([segment_id]).nominal
        )
        state = SegmentBti(SegmentTraits(
            rising_delay_ps=float(rising[0]),
            falling_delay_ps=float(falling[0]),
            burn_amplitude_ps=float(amplitude[0]),
        ))
        if high[0] or low[0]:
            state.preload_imprint(
                high_charge_ps=float(high[0]), low_charge_ps=float(low[0])
            )
        device._segments[segment_id] = state


def segment_state(device: FpgaDevice, segment_id: SegmentId) -> SegmentBti:
    """One segment's SegmentBti, created on first touch."""
    device.sync()
    _materialise(device, (segment_id,))
    return device._segments[segment_id]


def advance(device: FpgaDevice, duration_hours: float,
            junction_k: float) -> None:
    """One interval: every routed net drives its segments, every other
    segment anneals."""
    driven: set[SegmentId] = set()
    age = device.effective_age_hours
    voltage = device.core_voltage_v
    if device.loaded_design is not None:
        for net in device.loaded_design.netlist.routed_nets():
            for segment_id in net.route:
                state = segment_state(device, segment_id)
                if net.activity is NetActivity.STATIC:
                    state.hold(
                        int(net.static_value), duration_hours, junction_k,
                        device_age_hours=age, voltage_v=voltage,
                    )
                elif net.activity is NetActivity.TOGGLING:
                    state.toggle(
                        duration_hours, junction_k, device_age_hours=age,
                        duty_high=net.duty_high, voltage_v=voltage,
                    )
                else:
                    state.idle(duration_hours, junction_k)
            driven.update(net.route)
    for segment_id, state in device._segments.items():
        if segment_id not in driven:
            state.idle(duration_hours, junction_k)


def transition_delays(device: FpgaDevice, route: Route) -> TransitionDelays:
    """Route delay summed segment by segment, temperature-scaled."""
    device.sync()
    total = TransitionDelays.zero()
    for segment_id in route:
        total = total + segment_state(device, segment_id).transition_delays()
    scale = 1.0 + DELAY_TEMP_COEFF_PER_K * (
        device.junction_k() - _DELAY_TEMP_REF_K
    )
    return TransitionDelays(
        rising_ps=total.rising_ps * scale,
        falling_ps=total.falling_ps * scale,
    )


def route_deltas_ps(device: FpgaDevice, routes) -> list[float]:
    """Each route's BTI delta, summed segment by segment."""
    device.sync()
    return [
        float(sum(segment_state(device, seg).delta_ps for seg in route))
        for route in getattr(routes, "routes", routes)
    ]


def read_route_deltas(devices, routes) -> list[list[float]]:
    """Each device's route deltas, one device after another."""
    return [route_deltas_ps(device, routes) for device in devices]


def catch_up_idle(schedules) -> None:
    """Each idle device replays its own intervals, one at a time."""
    for device, intervals in schedules:
        for _, duration_hours, ambient_k in intervals:
            device._advance_hours_raw(duration_hours, ambient_k)


def sync_devices(region: Region, devices=None) -> None:
    """Catch devices up one at a time (no cross-device bulk update)."""
    targets = list(devices) if devices is not None else region.devices()
    for device in targets:
        device.sync()


@contextmanager
def reference_aging() -> Iterator[None]:
    """Run devices built inside the block on the per-segment walk.

    Each such device keeps its state in SegmentBti objects instead of
    the array store, and regions sync their devices one by one.  Use
    the devices inside the block only.  Outputs equal the array
    engine's bit for bit; only the wall time differs.
    """
    original_init = FpgaDevice.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._segments = {}

    patches = [
        (FpgaDevice, "__init__", init),
        (FpgaDevice, "segment_state", segment_state),
        (FpgaDevice, "_materialise_many", _materialise),
        (FpgaDevice, "materialised_segments",
         property(lambda self: len(self._segments))),
        (FpgaDevice, "_advance_array", advance),
        (FpgaDevice, "transition_delays", transition_delays),
        (FpgaDevice, "route_deltas_ps", route_deltas_ps),
        (FpgaDevice, "read_route_deltas", staticmethod(read_route_deltas)),
        (FpgaDevice, "catch_up_idle", staticmethod(catch_up_idle)),
        (Region, "sync_devices", sync_devices),
    ]
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


class EagerProvider(CloudProvider):
    """The synchronous walker: every device ages on every clock tick.

    Region timelines stay empty, so a device never has anything
    pending and every observation reads state the walker already
    integrated.
    """

    def advance(self, hours: float) -> None:
        if hours < 0.0:
            raise CloudError(f"cannot advance time by {hours} hours")
        if hours == 0.0:
            return
        for region in self.regions():
            ambient_k = region.ambient.at(self.clock_hours)
            for device in region.devices():
                device.advance_hours(hours, ambient_k)
        self.clock_hours += hours
