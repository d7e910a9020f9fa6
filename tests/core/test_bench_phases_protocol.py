"""Tests for the lab bench, experimental phases and the protocol loop.

``TestReferenceSensorParity`` runs the phases and the protocol on both
sensor paths -- production, and the oracles of
:mod:`tests.oracles.sensor` -- and requires equal results.
"""

import pytest

from repro.errors import AttackError
from repro.core.bench import LabBench
from repro.core.phases import CalibrationPhase, ConditionPhase, MeasurementPhase
from repro.core.protocol import ConditionMeasureProtocol
from repro.designs import (
    build_measure_design,
    build_route_bank,
    build_target_design,
)
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.fabric.thermal import OvenAmbient
from repro.sensor.noise import CLOUD_NOISE, LAB_NOISE
from tests.oracles.sensor import reference_sensor


def make_bench_setup():
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=61)
    bench = LabBench(device, oven=OvenAmbient(60.0))
    routes = build_route_bank(device.grid, [2000.0, 2000.0])
    target = build_target_design(device.part, routes, [1, 0], heater_dsps=0)
    measure = build_measure_design(device.part, routes)
    return bench, routes, target, measure


@pytest.fixture
def bench_setup():
    return make_bench_setup()


class TestLabBench:
    def test_ambient_set_at_construction(self, bench_setup):
        bench, _, _, _ = bench_setup
        assert bench.device.junction_k() > 330.0  # oven temperature seen

    def test_load_and_clear(self, bench_setup):
        bench, _, target, _ = bench_setup
        bench.load_image(target.bitstream)
        assert bench.device.loaded_design is not None
        bench.clear()
        assert bench.device.loaded_design is None

    def test_run_hours_advances_device(self, bench_setup):
        bench, _, target, _ = bench_setup
        bench.load_image(target.bitstream)
        bench.run_hours(3.0)
        assert bench.device.sim_hours == pytest.approx(3.0)

    def test_reload_swaps_design(self, bench_setup):
        bench, _, target, measure = bench_setup
        bench.load_image(target.bitstream)
        bench.load_image(measure.bitstream)
        assert bench.device.loaded_design.name == "measure"

    def test_invalid_image_rejected(self, bench_setup):
        bench, _, _, _ = bench_setup
        from repro.errors import FabricError

        with pytest.raises(FabricError):
            bench.load_image("not a bitstream")


class TestPhases:
    def test_calibration_populates_theta(self, bench_setup):
        bench, routes, _, measure = bench_setup
        calibration = CalibrationPhase(measure, noise=LAB_NOISE, seed=1)
        session = calibration.run(bench)
        assert set(session.theta_init) == {r.name for r in routes}

    def test_calibration_replays_prior_theta(self, bench_setup):
        bench, routes, _, measure = bench_setup
        theta = {r.name: 2800.0 for r in routes}
        calibration = CalibrationPhase(measure, noise=LAB_NOISE, seed=1)
        session = calibration.run(bench, theta_init=theta)
        assert session.theta_init == theta

    def test_condition_phase_loads_and_runs(self, bench_setup):
        bench, _, target, _ = bench_setup
        ConditionPhase(target_bitstream=target.bitstream, hours=2.0).run(bench)
        assert bench.device.sim_hours == pytest.approx(2.0)
        assert bench.device.loaded_design.name == target.bitstream.name

    def test_measurement_requires_calibration(self, bench_setup):
        bench, _, _, measure = bench_setup
        calibration = CalibrationPhase(measure, noise=LAB_NOISE, seed=1)
        measurement = MeasurementPhase(measure_design=measure,
                                       calibration=calibration)
        with pytest.raises(AttackError):
            measurement.run(bench)

    def test_measurement_returns_all_routes(self, bench_setup):
        bench, routes, _, measure = bench_setup
        calibration = CalibrationPhase(measure, noise=LAB_NOISE, seed=1)
        calibration.run(bench)
        measurement = MeasurementPhase(measure_design=measure,
                                       calibration=calibration)
        results = measurement.run(bench)
        assert set(results) == {r.name for r in routes}
        assert measurement.passes == 1


class TestProtocol:
    def test_run_cycles_builds_series(self, bench_setup):
        bench, routes, target, measure = bench_setup
        protocol = ConditionMeasureProtocol(
            environment=bench,
            target_bitstream=target.bitstream,
            measure_design=measure,
            routes=routes,
            condition_hours_per_cycle=1.0,
        )
        protocol.calibration.noise = LAB_NOISE
        protocol.calibrate()
        bundle = protocol.run_cycles(5)
        for series in bundle:
            assert len(series) == 6  # leading baseline + one per cycle

    def test_series_reflect_burn_direction(self, bench_setup):
        bench, routes, target, measure = bench_setup
        protocol = ConditionMeasureProtocol(
            environment=bench,
            target_bitstream=target.bitstream,
            measure_design=measure,
            routes=routes,
            condition_hours_per_cycle=4.0,
        )
        protocol.calibration.noise = LAB_NOISE
        protocol.calibrate()
        bundle = protocol.run_cycles(8)
        burn1 = bundle.series[routes[0].name].centered[-1]
        burn0 = bundle.series[routes[1].name].centered[-1]
        assert burn1 > 0.3
        assert burn0 < -0.3

    def test_target_for_cycle_override(self, bench_setup):
        bench, routes, target, measure = bench_setup
        complement = build_target_design(
            bench.device.part, routes, [0, 1], heater_dsps=0, name="flip"
        )
        loads = []

        def chooser(cycle):
            chosen = target.bitstream if cycle % 2 == 0 else complement.bitstream
            loads.append(chosen.name)
            return chosen

        protocol = ConditionMeasureProtocol(
            environment=bench,
            target_bitstream=target.bitstream,
            measure_design=measure,
            routes=routes,
        )
        protocol.calibration.noise = LAB_NOISE
        protocol.calibrate()
        protocol.run_cycles(4, target_for_cycle=chooser)
        assert loads == ["target", "flip", "target", "flip"]

    def test_invalid_cycles_rejected(self, bench_setup):
        bench, routes, target, measure = bench_setup
        protocol = ConditionMeasureProtocol(
            environment=bench,
            target_bitstream=target.bitstream,
            measure_design=measure,
            routes=routes,
        )
        with pytest.raises(AttackError):
            protocol.run_cycles(0)

    def test_invalid_interval_rejected(self, bench_setup):
        bench, routes, target, measure = bench_setup
        with pytest.raises(AttackError):
            ConditionMeasureProtocol(
                environment=bench,
                target_bitstream=target.bitstream,
                measure_design=measure,
                routes=routes,
                condition_hours_per_cycle=0.0,
            )


def run_protocol(cycles, noise):
    """Calibrate, then ``cycles`` condition/measure cycles on a fresh
    bench; returns theta_init and every route's raw delta series."""
    bench, routes, target, measure = make_bench_setup()
    protocol = ConditionMeasureProtocol(
        environment=bench,
        target_bitstream=target.bitstream,
        measure_design=measure,
        routes=routes,
        condition_hours_per_cycle=2.0,
    )
    protocol.calibration.noise = noise
    protocol.calibration.seed = 5
    theta = protocol.calibrate()
    bundle = protocol.run_cycles(cycles)
    return theta, {
        name: (series.hours, series.raw_delta_ps)
        for name, series in bundle.series.items()
    }


class TestReferenceSensorParity:
    def test_phases_match_oracle(self):
        def run_phases():
            bench, _, _, measure = make_bench_setup()
            calibration = CalibrationPhase(measure, noise=CLOUD_NOISE, seed=3)
            calibration.run(bench)
            return MeasurementPhase(
                measure_design=measure, calibration=calibration
            ).run(bench)

        production = run_phases()
        with reference_sensor():
            reference = run_phases()
        assert list(production) == list(reference)
        assert production == reference

    @pytest.mark.parametrize("noise", [LAB_NOISE, CLOUD_NOISE],
                             ids=["lab", "cloud"])
    def test_protocol_series_match_oracle(self, noise):
        production = run_protocol(4, noise)
        with reference_sensor():
            reference = run_protocol(4, noise)
        assert production == reference
