"""Tests for the assembled TDC, its calibration, clocking and noise."""

import numpy as np
import pytest

from repro.errors import CalibrationError, SensorError
from repro.designs import build_route_bank
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.sensor.bank import probe_bank
from repro.sensor.calibration import find_theta_init
from repro.sensor.clocking import PhaseGenerator
from repro.sensor.noise import CLOUD_NOISE, LAB_NOISE, NoiseModel, NoiseState
from repro.sensor.tdc import TunableDualPolarityTdc
from repro.sensor.trace import Polarity

QUIET = NoiseModel(jitter_ps=0.0, polarity_offset_sigma_ps=0.0,
                   offset_correlation=0.0)


@pytest.fixture
def tdc_setup():
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
    route = build_route_bank(device.grid, [1000.0])[0]
    tdc = TunableDualPolarityTdc(device, route, noise=LAB_NOISE, seed=5)
    return device, route, tdc


class TestPhaseGenerator:
    def test_quantise_snaps_to_grid(self):
        phase = PhaseGenerator(step_ps=2.8, max_ps=1000.0)
        assert phase.quantise(10.0) == pytest.approx(11.2)

    def test_out_of_range_rejected(self):
        phase = PhaseGenerator(step_ps=2.8, max_ps=1000.0)
        with pytest.raises(SensorError):
            phase.quantise(-1.0)
        with pytest.raises(SensorError):
            phase.quantise(1001.0)

    @pytest.mark.parametrize("step", [2.8, 0.25])
    def test_quantise_array_matches_quantise(self, step):
        """Bit for bit, at half-step ties (exact for a 0.25 ps step),
        their float neighbours, grid points, 0 and ``max_ps``."""
        phase = PhaseGenerator(step_ps=step, max_ps=40000.0)
        k = np.arange(0.0, min(40000.0 / step, 15000.0))
        ties = (k + 0.5) * step
        grid = k * step
        values = np.concatenate([
            [0.0, phase.max_ps],
            ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
            grid, np.nextafter(grid, np.inf),
            np.random.default_rng(1).uniform(0.0, phase.max_ps, 20000),
        ])
        values = values[(values >= 0.0) & (values <= phase.max_ps)]
        expected = np.array([phase.quantise(float(v)) for v in values])
        quantised = phase.quantise_array(values)
        assert quantised.dtype == np.float64
        np.testing.assert_array_equal(
            quantised.view(np.int64), expected.view(np.int64)
        )

    def test_quantise_array_out_of_range_rejected(self):
        phase = PhaseGenerator(step_ps=2.8, max_ps=1000.0)
        for bad in ([-1.0], [10.0, 1001.0], [np.nextafter(0.0, -1.0)],
                    [np.nextafter(1000.0, np.inf)], [np.nan]):
            with pytest.raises(SensorError):
                phase.quantise_array(bad)
            if not np.isnan(bad[-1]):
                with pytest.raises(SensorError):
                    phase.quantise(bad[-1])

    def test_steps_down_sequence(self):
        phase = PhaseGenerator(step_ps=2.8, max_ps=1000.0)
        steps = phase.steps_down(100.8, 3)
        assert steps == pytest.approx([100.8, 98.0, 95.2])

    def test_steps_below_zero_rejected(self):
        phase = PhaseGenerator(step_ps=2.8, max_ps=1000.0)
        with pytest.raises(SensorError):
            phase.steps_down(2.8, 5)


class TestCalibration:
    def test_finds_centred_window(self, tdc_setup):
        _, _, tdc = tdc_setup
        theta = find_theta_init(tdc)
        rising, falling = probe_bank([tdc], [theta])
        centre = (rising[0] + falling[0]) / 2
        assert 12.0 <= centre <= 52.0

    def test_unreachable_route_raises(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=22)
        route = build_route_bank(device.grid, [10000.0])[0]
        tdc = TunableDualPolarityTdc(
            device, route, noise=QUIET, seed=1,
            phase=PhaseGenerator(step_ps=2.8, max_ps=500.0),
        )
        with pytest.raises((CalibrationError, SensorError)):
            find_theta_init(tdc)  # the scan starts at max_ps = 500 ps

    def test_theta_init_portable_across_same_part_devices(self):
        """Experiment 3's premise: calibrate once, reuse on any board."""
        theta_values = []
        for seed in (31, 32, 33):
            device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=seed)
            route = build_route_bank(device.grid, [5000.0])[0]
            tdc = TunableDualPolarityTdc(device, route, noise=QUIET, seed=seed)
            theta_values.append(find_theta_init(tdc))
        spread = max(theta_values) - min(theta_values)
        # Within a fraction of the 179 ps capture window.
        assert spread < 90.0


class TestMeasurement:
    def test_measurement_tracks_true_delta(self, tdc_setup):
        device, route, _ = tdc_setup
        tdc = TunableDualPolarityTdc(device, route, noise=QUIET, seed=9)
        theta = find_theta_init(tdc)
        measured = tdc.measure(theta).delta_ps
        truth = device.transition_delays(route).delta_ps
        assert measured == pytest.approx(truth, abs=1.5)

    def test_repeatability_under_lab_noise(self, tdc_setup):
        _, _, tdc = tdc_setup
        theta = find_theta_init(tdc)
        deltas = [tdc.measure(theta).delta_ps for _ in range(20)]
        assert np.std(deltas) < 0.8

    def test_jitter_increases_measurement_spread(self, tdc_setup):
        device, route, _ = tdc_setup
        quiet = TunableDualPolarityTdc(device, route, noise=QUIET, seed=3)
        loud = TunableDualPolarityTdc(
            device,
            route,
            noise=NoiseModel(jitter_ps=8.0, polarity_offset_sigma_ps=0.0,
                             offset_correlation=0.0),
            seed=3,
        )
        theta = find_theta_init(quiet)
        quiet_std = np.std([quiet.measure(theta).delta_ps for _ in range(25)])
        loud_std = np.std([loud.measure(theta).delta_ps for _ in range(25)])
        assert loud_std > quiet_std * 1.5

    def test_measurement_sees_bti_drift(self, tdc_setup):
        device, route, _ = tdc_setup
        tdc = TunableDualPolarityTdc(device, route, noise=QUIET, seed=9)
        theta = find_theta_init(tdc)
        before = tdc.measure(theta).delta_ps
        from repro.designs import build_target_design

        design = build_target_design(device.part, [route], [1], heater_dsps=0)
        device.load(design.bitstream)
        device.advance_hours(100.0, 333.15)
        device.wipe()
        after = tdc.measure(theta).delta_ps
        assert after - before > 0.5

    def test_invalid_trace_params_rejected(self, tdc_setup):
        _, _, tdc = tdc_setup
        with pytest.raises(SensorError):
            tdc.capture_draws([100.0], Polarity.RISING, samples=0)


class TestNoiseState:
    def test_quiet_model_is_exactly_zero(self):
        state = NoiseState(QUIET, seed=1)
        state.advance_epoch()
        assert state.polarity_offset_ps == 0.0
        assert not state.sample_jitter_matrix_ps((3, 4)).any()

    def test_offset_is_stationary(self):
        state = NoiseState(CLOUD_NOISE, seed=2)
        values = []
        for _ in range(500):
            state.advance_epoch()
            values.append(state.polarity_offset_ps)
        observed = np.std(values)
        assert observed == pytest.approx(
            CLOUD_NOISE.polarity_offset_sigma_ps, rel=0.4
        )
