"""Tests for the carry chain, capture registers and post-processing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SensorError
from repro.sensor.capture import CaptureBank
from repro.sensor.carry_chain import CarryChain
from repro.sensor.postprocess import (
    binary_hamming_distance,
    delta_ps_from_traces,
    trace_mean_distance,
    traces_mean_distance,
)
from repro.sensor.trace import Polarity, Trace
from tests.oracles.sensor import capture


class TestCarryChain:
    def test_ideal_chain_is_linear(self):
        chain = CarryChain(length=64, nominal_bin_ps=2.8, mismatch_sigma=0.0,
                           seed=1)
        assert chain.wavefront_position(28.0) == pytest.approx(10.0)
        assert chain.total_delay_ps == pytest.approx(64 * 2.8)

    def test_position_clamps_at_ends(self):
        chain = CarryChain(length=64, nominal_bin_ps=2.8, seed=1)
        assert chain.wavefront_position(-5.0) == 0.0
        assert chain.wavefront_position(1e9) == 64.0

    def test_mismatch_perturbs_but_preserves_monotonicity(self):
        chain = CarryChain(length=64, nominal_bin_ps=2.8, seed=2)
        times = np.linspace(0.0, chain.total_delay_ps, 200)
        positions = [chain.wavefront_position(float(t)) for t in times]
        assert positions == sorted(positions)

    def test_chains_differ_across_seeds(self):
        a = CarryChain(64, 2.8, seed=1)
        b = CarryChain(64, 2.8, seed=2)
        assert a.wavefront_position(90.0) != b.wavefront_position(90.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(SensorError):
            CarryChain(0, 2.8)
        with pytest.raises(SensorError):
            CarryChain(64, -1.0)


class TestCaptureBank:
    def test_rising_word_counts_match_position(self):
        bank = CaptureBank(length=64, seed=3)
        word = capture(bank, 30.0, Polarity.RISING)
        # Registers well behind the wavefront read 1, ahead read 0.
        assert word[:29].all()
        assert not word[32:].any()

    def test_falling_word_is_complement_shape(self):
        bank = CaptureBank(length=64, seed=3)
        word = capture(bank, 30.0, Polarity.FALLING)
        assert not word[:29].any()
        assert word[32:].all()

    def test_metastability_at_boundary(self):
        bank = CaptureBank(length=64, seed=4)
        # The register exactly at the wavefront resolves randomly.
        boundary_bits = [
            bool(capture(bank, 30.0, Polarity.RISING)[30]) for _ in range(200)
        ]
        assert any(boundary_bits) and not all(boundary_bits)

    def test_out_of_range_position_rejected(self):
        bank = CaptureBank(length=64, seed=1)
        with pytest.raises(SensorError):
            capture(bank, 65.0, Polarity.RISING)


class TestPostprocess:
    def test_hamming_rising_counts_ones(self):
        word = np.zeros(64, dtype=bool)
        word[:39] = True
        assert binary_hamming_distance(word, Polarity.RISING) == 39

    def test_hamming_falling_counts_zeros(self):
        word = np.ones(64, dtype=bool)
        word[:22] = False
        assert binary_hamming_distance(word, Polarity.FALLING) == 22

    def test_figure3_example_sequence(self):
        """The paper's worked example: distances 39, 22, 38, 22."""
        words = []
        for count, polarity in [(39, Polarity.RISING), (22, Polarity.FALLING),
                                (38, Polarity.RISING), (22, Polarity.FALLING)]:
            word = np.zeros(64, dtype=bool)
            if polarity is Polarity.RISING:
                word[:count] = True
            else:
                word[count:] = True
            words.append((word, polarity))
        distances = [binary_hamming_distance(w, p) for w, p in words]
        assert distances == [39, 22, 38, 22]

    def test_trace_mean(self):
        words = np.zeros((4, 64), dtype=bool)
        for i, count in enumerate((10, 12, 11, 13)):
            words[i, :count] = True
        trace = Trace(polarity=Polarity.RISING, theta_ps=100.0, words=words)
        assert trace_mean_distance(trace) == pytest.approx(11.5)

    def test_delta_conversion_sign(self):
        """Slower falling transition -> smaller falling distance ->
        positive delta (falling minus rising delay)."""
        rising_words = np.zeros((2, 64), dtype=bool)
        rising_words[:, :40] = True
        falling_words = np.ones((2, 64), dtype=bool)
        falling_words[:, :36] = False
        rising = [Trace(Polarity.RISING, 100.0, rising_words)]
        falling = [Trace(Polarity.FALLING, 100.0, falling_words)]
        delta = delta_ps_from_traces(rising, falling, bin_ps=2.8)
        assert delta == pytest.approx((40 - 36) * 2.8)

    def test_empty_traces_rejected(self):
        with pytest.raises(SensorError):
            traces_mean_distance([])

    def test_invalid_word_rejected(self):
        with pytest.raises(SensorError):
            binary_hamming_distance(np.zeros((2, 2), dtype=bool), Polarity.RISING)
        with pytest.raises(SensorError):
            binary_hamming_distance(np.zeros(4, dtype=float), Polarity.RISING)

    @given(count=st.integers(min_value=0, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_hamming_inverse_words_sum_to_length(self, count):
        word = np.zeros(64, dtype=bool)
        word[:count] = True
        rising = binary_hamming_distance(word, Polarity.RISING)
        falling = binary_hamming_distance(word, Polarity.FALLING)
        assert rising + falling == 64
