"""One-route measurements vs. the per-word reference oracle.

A single route measures through the bank kernel as a bank of one
(``measure``, ``measure_raw``); the per-word loop in
:mod:`tests.oracles.sensor` is the reference it is pinned to.  The
oracle draws each polarity's jitter matrix first and then resolves word
by word, drawing each word's metastability uniforms in turn -- the
stream order of ``capture_draws`` -- so every capture word and every
``Measurement`` field is identical from identical seeds, with or
without per-sample jitter.
"""

import numpy as np
import pytest

from repro.designs import build_route_bank
from repro.errors import SensorError
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.sensor.bank import probe_bank
from repro.sensor.capture import CaptureBank, resolve_distances, resolve_words
from repro.sensor.carry_chain import CarryChain
from repro.sensor.noise import CLOUD_NOISE, LAB_NOISE, NoiseModel
from repro.sensor.postprocess import (
    binary_hamming_distance,
    delta_ps_from_traces,
    trace_mean_distance,
    traces_mean_distance,
)
from repro.sensor.tdc import TunableDualPolarityTdc
from repro.sensor.trace import Polarity, Trace
from tests.oracles import sensor as oracle

#: Slow polarity offset on, per-sample jitter off.
DRIFT_ONLY = NoiseModel(
    jitter_ps=0.0, polarity_offset_sigma_ps=0.05, offset_correlation=0.6
)

THETA = 1200.0


def make_tdc(seed, noise=DRIFT_ONLY):
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
    route = build_route_bank(device.grid, [1000.0])[0]
    return TunableDualPolarityTdc(device, route, noise=noise, seed=seed)


class TestWavefrontPositions:
    def test_matches_scalar_everywhere(self):
        chain = CarryChain(length=64, nominal_bin_ps=2.8, seed=7)
        times = np.concatenate([
            np.linspace(-10.0, chain.total_delay_ps + 10.0, 500),
            chain._boundaries,  # exactly on every bin boundary
            [0.0, chain.total_delay_ps],
        ])
        batched = chain.wavefront_positions(times)
        scalar = np.array(
            [chain.wavefront_position(float(t)) for t in times]
        )
        assert batched.shape == times.shape
        np.testing.assert_array_equal(batched, scalar)

    def test_preserves_input_shape(self):
        chain = CarryChain(length=64, nominal_bin_ps=2.8, seed=7)
        times = np.full((3, 5), 90.0)
        assert chain.wavefront_positions(times).shape == (3, 5)


class TestCaptureBatch:
    def test_matches_sequential_scalar_draws(self):
        positions = np.linspace(0.0, 64.0, 12).reshape(3, 4)
        for polarity in Polarity:
            scalar_bank = CaptureBank(length=64, seed=11)
            batched_bank = CaptureBank(length=64, seed=11)
            scalar_words = np.array([
                [oracle.capture(scalar_bank, float(p), polarity)
                 for p in row]
                for row in positions
            ])
            batched_words = oracle.capture_batch(
                batched_bank, positions, polarity
            )
            np.testing.assert_array_equal(batched_words, scalar_words)

    def test_out_of_range_rejected(self):
        bank = CaptureBank(length=64, seed=1)
        with pytest.raises(SensorError):
            oracle.capture_batch(
                bank, np.array([[1.0, 65.0]]), Polarity.RISING
            )
        with pytest.raises(SensorError):
            oracle.capture_batch(bank, np.array([-0.5]), Polarity.FALLING)

    def test_invalid_batch_params_rejected(self):
        tdc = make_tdc(1)
        with pytest.raises(SensorError):
            tdc.capture_draws([THETA], Polarity.RISING, samples=0)
        with pytest.raises(SensorError):
            tdc.capture_draws([], Polarity.RISING)


class TestBatchPostprocess:
    def test_batch_matches_per_trace_pipeline(self):
        """The bank's reduction == the paper's per-trace pipeline over
        the words ``measure_raw`` builds from the same draws."""
        tdc = make_tdc(3, CLOUD_NOISE)
        for _ in range(3):
            measurement, rising, falling = tdc.measure_raw(THETA)
            assert measurement.rising_distance == traces_mean_distance(rising)
            assert measurement.falling_distance == traces_mean_distance(
                falling
            )
            assert measurement.delta_ps == delta_ps_from_traces(
                rising, falling, tdc.chain.nominal_bin_ps
            )

    def test_batch_hamming_polarity(self):
        """A wavefront at 5.5 bins has passed taps 0-5 and no others:
        six ones in a rising word, six zeros in a falling one."""
        positions = np.full((2, 3), 5.5)
        uniforms = np.random.default_rng(0).random((2, 3, 8))
        assert (resolve_distances(positions, uniforms) == 6).all()
        for polarity in Polarity:
            words = resolve_words(positions, uniforms, polarity)
            for word in words.reshape(-1, 8):
                assert binary_hamming_distance(word, polarity) == 6

    def test_invalid_inputs_rejected(self):
        words = np.zeros((16, 8), dtype=bool)
        rising = [Trace(Polarity.RISING, 100.0, words)]
        falling = [Trace(Polarity.FALLING, 100.0, ~words)]
        with pytest.raises(SensorError):
            traces_mean_distance([])
        with pytest.raises(SensorError):
            delta_ps_from_traces(rising, falling, 0.0)


def assert_same_measurement(batched_tdc, oracle_tdc):
    """One ``measure_raw`` on each path: equal Measurement, equal words."""
    batched_m, batched_r, batched_f = batched_tdc.measure_raw(THETA)
    oracle_m, oracle_r, oracle_f = oracle.measure_raw(oracle_tdc, THETA)
    assert batched_m == oracle_m
    for a, b in zip(oracle_r + oracle_f, batched_r + batched_f):
        assert a.theta_ps == b.theta_ps
        assert np.array_equal(a.words, b.words)


class TestKernelEquivalence:
    def test_bit_identical_without_jitter(self):
        """Same seed => identical Measurement and identical raw words."""
        for seed in (5, 17, 123):
            assert_same_measurement(make_tdc(seed), make_tdc(seed))

    @pytest.mark.parametrize("noise", [LAB_NOISE, CLOUD_NOISE],
                             ids=["lab", "cloud"])
    @pytest.mark.parametrize("seed", [0, 5, 17, 123])
    def test_bit_identical_with_jitter(self, noise, seed):
        """Jitter on: still identical, over consecutive measurements
        (the slow polarity offset carries from one to the next)."""
        batched, reference = make_tdc(seed, noise), make_tdc(seed, noise)
        for _ in range(3):
            assert_same_measurement(batched, reference)

    def test_capture_trace_bit_identical_without_jitter(self):
        """A calibration probe through the bank kernel (one rising, then
        one falling trace) == the oracle's two traces."""
        rising, falling = probe_bank([make_tdc(9)], [THETA])
        reference = make_tdc(9)
        assert rising[0] == trace_mean_distance(
            oracle.capture_trace(reference, THETA, Polarity.RISING)
        )
        assert falling[0] == trace_mean_distance(
            oracle.capture_trace(reference, THETA, Polarity.FALLING)
        )

    @pytest.mark.parametrize("polarity", list(Polarity))
    def test_capture_trace_bit_identical_with_jitter(self, polarity):
        """A one-trace ``measure_raw``: each polarity's words == the
        oracle's."""
        _, *batched = make_tdc(9, CLOUD_NOISE).measure_raw(THETA, traces=1)
        _, *reference = oracle.measure_raw(
            make_tdc(9, CLOUD_NOISE), THETA, traces=1
        )
        index = list(Polarity).index(polarity)
        np.testing.assert_array_equal(
            reference[index][0].words, batched[index][0].words
        )

    def test_reference_sensor_swaps_the_tdc_methods(self):
        """Inside ``reference_sensor`` the production methods run the
        oracle, and outside it they are restored."""
        original = TunableDualPolarityTdc.measure
        with oracle.reference_sensor():
            swapped = make_tdc(3, LAB_NOISE).measure(THETA)
            assert TunableDualPolarityTdc.measure is not original
        assert TunableDualPolarityTdc.measure is original
        assert swapped == make_tdc(3, LAB_NOISE).measure(THETA)

    def test_trace_metadata_matches(self):
        measurement, rising, falling = make_tdc(4).measure_raw(THETA)
        assert len(rising) == len(falling) == 10
        thetas = [t.theta_ps for t in rising]
        assert thetas == sorted(thetas, reverse=True)
        for trace in rising + falling:
            assert trace.words.shape == (16, 64)
        assert measurement.delta_ps == pytest.approx(
            (measurement.rising_distance - measurement.falling_distance)
            * 2.8
        )
