"""Batched capture kernel vs. the per-word reference oracle.

The batched kernel is the production measurement path; the per-word
loop in :mod:`tests.oracles.sensor` is the reference it is pinned to.
The oracle draws each polarity's jitter matrix first and then resolves
word by word, drawing each word's metastability uniforms in turn --
the stream order of ``capture_draws`` -- so every capture word and
every ``Measurement`` field is identical from identical seeds, with or
without per-sample jitter.
"""

import numpy as np
import pytest

from repro.designs import build_route_bank
from repro.errors import SensorError
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.sensor.capture import CaptureBank
from repro.sensor.carry_chain import CarryChain
from repro.sensor.noise import CLOUD_NOISE, LAB_NOISE, NoiseModel
from repro.sensor.postprocess import (
    batch_delta_ps,
    batch_hamming_distances,
    batch_trace_mean_distances,
    delta_ps_from_traces,
    trace_mean_distance,
)
from repro.sensor.tdc import TunableDualPolarityTdc
from repro.sensor.trace import Polarity
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
            tdc.capture_words([THETA], Polarity.RISING, samples=0)
        with pytest.raises(SensorError):
            tdc.capture_words([], Polarity.RISING)


class TestBatchPostprocess:
    def test_batch_matches_per_trace_pipeline(self):
        rng = np.random.default_rng(3)
        rising_words = rng.random((10, 16, 64)) < 0.4
        falling_words = rng.random((10, 16, 64)) < 0.6
        from repro.sensor.trace import Trace

        rising = [Trace(Polarity.RISING, 100.0, w) for w in rising_words]
        falling = [Trace(Polarity.FALLING, 100.0, w) for w in falling_words]
        np.testing.assert_array_equal(
            batch_trace_mean_distances(rising_words, Polarity.RISING),
            [trace_mean_distance(t) for t in rising],
        )
        assert batch_delta_ps(rising_words, falling_words, 2.8) == (
            delta_ps_from_traces(rising, falling, 2.8)
        )

    def test_batch_hamming_polarity(self):
        words = np.zeros((2, 3, 8), dtype=bool)
        words[..., :5] = True
        assert (batch_hamming_distances(words, Polarity.RISING) == 5).all()
        assert (batch_hamming_distances(words, Polarity.FALLING) == 3).all()

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SensorError):
            batch_hamming_distances(np.zeros((2, 8)), Polarity.RISING)
        with pytest.raises(SensorError):
            batch_trace_mean_distances(
                np.zeros((2, 8), dtype=bool), Polarity.RISING
            )
        with pytest.raises(SensorError):
            batch_delta_ps(
                np.zeros((1, 2, 8), dtype=bool),
                np.zeros((1, 2, 8), dtype=bool),
                0.0,
            )


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
        batched = make_tdc(9).capture_trace(THETA, Polarity.RISING)
        reference = oracle.capture_trace(make_tdc(9), THETA, Polarity.RISING)
        np.testing.assert_array_equal(reference.words, batched.words)

    @pytest.mark.parametrize("polarity", list(Polarity))
    def test_capture_trace_bit_identical_with_jitter(self, polarity):
        batched = make_tdc(9, CLOUD_NOISE).capture_trace(THETA, polarity)
        reference = oracle.capture_trace(
            make_tdc(9, CLOUD_NOISE), THETA, polarity
        )
        np.testing.assert_array_equal(reference.words, batched.words)

    def test_reference_sensor_swaps_the_tdc_methods(self):
        """Inside ``reference_sensor`` the production methods run the
        oracle, and outside it they are restored."""
        original = TunableDualPolarityTdc.capture_words
        with oracle.reference_sensor():
            swapped = make_tdc(3, LAB_NOISE).measure(THETA)
            assert TunableDualPolarityTdc.capture_words is not original
        assert TunableDualPolarityTdc.capture_words is original
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
