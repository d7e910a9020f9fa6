"""Tests for the Target/Measure designs and route banks."""

import pytest

from repro.errors import ConfigurationError, RoutingError, SensorError
from repro.analysis.timeseries import length_class
from repro.designs import (
    build_measure_design,
    build_route_bank,
    build_target_design,
)
from repro.designs.routes import PAPER_ROUTE_LENGTHS_PS
from repro.designs.target import keep_out_columns
from repro.fabric.device import FpgaDevice
from repro.fabric.netlist import NetActivity
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS, ZYNQ_ULTRASCALE_PLUS
from repro.fabric.routing import validate_disjoint
from repro.sensor.noise import LAB_NOISE


class TestRouteBank:
    def test_paper_bank_has_64_routes(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid)
        assert len(routes) == 64
        lengths = sorted(
            {length_class(r.nominal_delay_ps) for r in routes}
        )
        assert lengths == [1000.0, 2000.0, 5000.0, 10000.0]

    def test_bank_preserves_caller_order(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [1000.0, 10000.0, 2000.0])
        classes = [length_class(r.nominal_delay_ps) for r in routes]
        assert classes == [1000.0, 10000.0, 2000.0]

    def test_bank_is_disjoint_on_both_parts(self):
        for part in (ZYNQ_ULTRASCALE_PLUS, VIRTEX_ULTRASCALE_PLUS):
            routes = build_route_bank(part.make_grid())
            validate_disjoint(routes)

    def test_custom_names(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [1000.0, 2000.0], names=["a", "b"])
        assert [r.name for r in routes] == ["a", "b"]

    def test_mismatched_names_rejected(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        with pytest.raises(RoutingError):
            build_route_bank(grid, [1000.0], names=["a", "b"])

    def test_empty_bank_rejected(self):
        with pytest.raises(RoutingError):
            build_route_bank(ZYNQ_ULTRASCALE_PLUS.make_grid(), [])


class TestTargetDesign:
    def _build(self, values=(1, 0)):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [1000.0, 2000.0])
        return build_target_design(
            ZYNQ_ULTRASCALE_PLUS, routes, list(values), heater_dsps=8
        ), routes

    def test_routes_carry_static_values(self):
        design, routes = self._build((1, 0))
        netlist = design.bitstream.netlist
        for route, value in zip(routes, (1, 0)):
            net = netlist.nets[route.name]
            assert net.activity is NetActivity.STATIC
            assert net.static_value == value
            assert net.route is route

    def test_value_oracle(self):
        design, routes = self._build((1, 0))
        assert design.value_of(routes[0].name) == 1
        with pytest.raises(ConfigurationError):
            design.value_of("ghost")

    def test_heaters_avoid_route_columns(self):
        design, routes = self._build()
        avoid = keep_out_columns(routes)
        for name, site in design.bitstream.placement.sites.items():
            if name.startswith("fma") and name.endswith("_dsp"):
                assert site.coord.x not in avoid

    def test_mismatched_values_rejected(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [1000.0])
        with pytest.raises(ConfigurationError):
            build_target_design(ZYNQ_ULTRASCALE_PLUS, routes, [1, 0])

    def test_non_bit_values_rejected(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [1000.0])
        with pytest.raises(ConfigurationError):
            build_target_design(ZYNQ_ULTRASCALE_PLUS, routes, [2])

    def test_paper_heater_fits_vu9p(self):
        grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid)
        design = build_target_design(
            VIRTEX_ULTRASCALE_PLUS, routes, [0] * 64, heater_dsps=3896
        )
        assert 55.0 < design.bitstream.power.total_watts < 70.0


class TestMeasureDesign:
    def test_shares_physical_routes_with_target(self):
        """'Identical routing constraints': same segments, same silicon."""
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [1000.0, 5000.0])
        target = build_target_design(
            ZYNQ_ULTRASCALE_PLUS, routes, [1, 0], heater_dsps=0
        )
        measure = build_measure_design(ZYNQ_ULTRASCALE_PLUS, routes)
        for route in routes:
            target_net = target.bitstream.netlist.nets[route.name]
            measure_net = measure.bitstream.netlist.nets[route.name]
            assert target_net.route.segments == measure_net.route.segments

    def test_measure_nets_do_not_stress(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid, [1000.0])
        measure = build_measure_design(ZYNQ_ULTRASCALE_PLUS, routes)
        net = measure.bitstream.netlist.nets[routes[0].name]
        assert net.activity is NetActivity.FLOATING

    def test_attach_requires_loaded_design(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=51)
        routes = build_route_bank(device.grid, [1000.0])
        measure = build_measure_design(device.part, routes)
        with pytest.raises(SensorError):
            measure.attach(device)

    def test_attach_after_load_builds_sessions(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=52)
        routes = build_route_bank(device.grid, [1000.0, 2000.0])
        measure = build_measure_design(device.part, routes)
        device.load(measure.bitstream)
        session = measure.attach(device, noise=LAB_NOISE, seed=1)
        assert session.route_names == (routes[0].name, routes[1].name)

    def test_measure_before_calibration_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=53)
        routes = build_route_bank(device.grid, [1000.0])
        measure = build_measure_design(device.part, routes)
        device.load(measure.bitstream)
        session = measure.attach(device, noise=LAB_NOISE, seed=1)
        with pytest.raises(SensorError):
            session.measure_all()

    def test_use_theta_init_requires_all_routes(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=54)
        routes = build_route_bank(device.grid, [1000.0, 2000.0])
        measure = build_measure_design(device.part, routes)
        device.load(measure.bitstream)
        session = measure.attach(device, noise=LAB_NOISE, seed=1)
        with pytest.raises(ConfigurationError):
            session.use_theta_init({routes[0].name: 1000.0})

    def test_measurement_duration_under_a_minute(self):
        """Section 5.2: 'Measurement is fast, taking less than a minute'."""
        grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
        routes = build_route_bank(grid)
        measure = build_measure_design(VIRTEX_ULTRASCALE_PLUS, routes)
        device = FpgaDevice(VIRTEX_ULTRASCALE_PLUS, seed=55)
        device.load(measure.bitstream)
        session = measure.attach(device, seed=1)
        assert session.measurement_duration_hours() * 3600.0 < 60.0
