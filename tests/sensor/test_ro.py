"""Tests for the ring-oscillator baseline sensor (Section 7)."""

import pytest

from repro.designs import build_route_bank, build_target_design
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.sensor.ro import RingOscillatorSensor, build_ro_netlist
from repro.units import celsius_to_kelvin

AMBIENT = celsius_to_kelvin(60.0)


@pytest.fixture
def ro_setup():
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=41)
    # Pin the ambient so before/after comparisons isolate BTI from the
    # delay temperature coefficient.
    device.set_ambient(AMBIENT)
    route = build_route_bank(device.grid, [5000.0])[0]
    return device, route


class TestRoSensor:
    def test_frequency_reflects_period(self, ro_setup):
        device, route = ro_setup
        sensor = RingOscillatorSensor(device, route, seed=1)
        period_ns = sensor.period_ps() / 1000.0
        frequency = sensor.frequency_mhz(repeats=64)
        assert frequency == pytest.approx(1000.0 / period_ns, rel=0.05)

    def test_polarity_blindness(self, ro_setup):
        """The paper's criticism: the RO integrates rising and falling
        delays, so opposite-sign BTI shifts largely cancel -- while the
        TDC's dual-polarity output sees them clearly."""
        device, route = ro_setup
        sensor = RingOscillatorSensor(device, route, seed=2)
        period_before = sensor.period_ps()
        design = build_target_design(device.part, [route], [1], heater_dsps=0)
        device.load(design.bitstream)
        device.advance_hours(100.0, AMBIENT)
        device.wipe()
        period_after = sensor.period_ps()
        delta_period = period_after - period_before
        delta_polarity = abs(device.route_delta_ps(route))
        # The single-polarity shift dwarfs the period change it causes
        # relative to what a dual-polarity sensor separates out.
        assert delta_period == pytest.approx(delta_polarity, rel=0.2)
        # (The RO sees degradation but cannot attribute it to a value:
        # burn-0 produces the same period increase.)
        device2 = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=42)
        device2.set_ambient(AMBIENT)
        route2 = build_route_bank(device2.grid, [5000.0])[0]
        sensor2 = RingOscillatorSensor(device2, route2, seed=2)
        before2 = sensor2.period_ps()
        design2 = build_target_design(device2.part, [route2], [0], heater_dsps=0)
        device2.load(design2.bitstream)
        device2.advance_hours(100.0, AMBIENT)
        device2.wipe()
        burn0_shift = sensor2.period_ps() - before2
        assert burn0_shift > 0.0  # same sign as burn-1: indistinguishable

    def test_netlist_contains_combinational_loop(self, ro_setup):
        from repro.fabric.drc import combinational_loops

        _, route = ro_setup
        netlist = build_ro_netlist("probe", route)
        loops = combinational_loops(netlist.combinational_graph())
        assert loops == (("loop_inv",),)

    def test_invalid_gate_time_rejected(self, ro_setup):
        device, route = ro_setup
        from repro.errors import SensorError

        with pytest.raises(SensorError):
            RingOscillatorSensor(device, route, counter_gate_ns=0.0)
        with pytest.raises(SensorError):
            RingOscillatorSensor(device, route).frequency_mhz(repeats=0)
