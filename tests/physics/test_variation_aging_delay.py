"""Tests for process variation, wear profiles and the delay model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsError
from repro.physics.aging import CLOUD_PART, NEW_PART, WearProfile
from repro.physics.delay import (
    TransitionDelays,
    alpha_power_delay_shift,
)
from repro.physics.variation import (
    DEFAULT_VARIATION,
    ProcessVariation,
    VariationParams,
)


class TestProcessVariation:
    def test_deterministic_per_seed(self):
        a = ProcessVariation(seed=7).sample_segments([100.0], [1.0])
        b = ProcessVariation(seed=7).sample_segments([100.0], [1.0])
        assert list(map(list, a)) == list(map(list, b))

    def test_different_seeds_differ(self):
        a = ProcessVariation(seed=7).sample_segments([100.0], [1.0])
        b = ProcessVariation(seed=8).sample_segments([100.0], [1.0])
        assert list(map(list, a)) != list(map(list, b))

    def test_sample_near_nominal(self):
        rng = ProcessVariation(seed=1)
        risings, _, amps = rng.sample_segments([450.0] * 500, [0.5] * 500)
        assert abs(risings.mean() - 450.0) < 5.0
        assert abs(amps.mean() - 0.5) < 0.05

    def test_die_to_die_delay_variation_stays_small(self):
        """theta_init portability (Experiment 3) requires ~1%-class
        die-to-die delay variation."""
        assert DEFAULT_VARIATION.delay_sigma <= 0.02

    def test_invalid_nominal_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessVariation(seed=1).sample_segments([0.0], [1.0])
        with pytest.raises(ConfigurationError):
            ProcessVariation(seed=1).sample_segments([10.0], [-1.0])

    def test_negative_params_rejected(self):
        with pytest.raises(ConfigurationError):
            VariationParams(delay_sigma=-0.1)

    def test_block_draws_follow_segment_order(self):
        """One block of segments takes the stream exactly as the same
        segments sampled one per call, and leaves it in the same state;
        a zero-amplitude segment (a CARRY element) draws all the same."""
        delays = [45.0, 2.8, 450.0, 120.0, 260.0]
        amplitudes = [0.27, 0.0, 0.54, 0.54, 0.54]
        block = ProcessVariation(seed=9)
        rising, falling, amplitude = block.sample_segments(delays, amplitudes)
        one_by_one = ProcessVariation(seed=9)
        rows = [
            tuple(column[0] for column in one_by_one.sample_segments([d], [a]))
            for d, a in zip(delays, amplitudes)
        ]
        assert list(zip(rising, falling, amplitude)) == rows
        assert (block.spawn_rng().integers(2**62)
                == one_by_one.spawn_rng().integers(2**62))

    def test_block_rejects_any_invalid_nominal(self):
        with pytest.raises(ConfigurationError):
            ProcessVariation(seed=1).sample_segments([10.0, 0.0], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            ProcessVariation(seed=1).sample_segments([10.0, 5.0], [1.0, -1.0])


class TestWearProfiles:
    def test_new_part_is_pristine(self):
        assert NEW_PART.sample_age_hours(seed=1) == 0.0
        high, low = NEW_PART.sample_residual_imprints([1.0, 0.5], seed=1)
        assert high.tolist() == low.tolist() == [0.0, 0.0]

    def test_cloud_part_is_aged(self):
        ages = [CLOUD_PART.sample_age_hours(seed=i) for i in range(50)]
        assert all(age > 0.0 for age in ages)
        assert 2500.0 < np.mean(ages) < 5500.0

    def test_block_imprints_skip_zero_scales(self):
        """Zero-scale segments take no draws: a block with them equals
        the same block's scalar draws, one segment per call."""
        amplitudes = [0.54, 0.0, 0.27, 0.0, 0.54]
        rng_block = np.random.default_rng(4)
        rng_single = np.random.default_rng(4)
        high, low = CLOUD_PART.sample_residual_imprints(amplitudes, rng_block)
        rows = [
            tuple(column[0] for column in
                  CLOUD_PART.sample_residual_imprints([a], rng_single))
            for a in amplitudes
        ]
        assert list(zip(high, low)) == rows
        assert rows[1] == rows[3] == (0.0, 0.0)
        assert (rng_block.bit_generator.state
                == rng_single.bit_generator.state)

    def test_cloud_residuals_are_small_fractions(self):
        highs, lows = (np.concatenate(pool) for pool in zip(*[
            CLOUD_PART.sample_residual_imprints([1.0], seed=i)
            for i in range(100)
        ]))
        assert (highs >= 0.0).all()
        assert highs.max() < 0.5
        assert lows.max() < 0.5

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            WearProfile("x", age_mean_hours=-1.0, age_sigma_hours=0.0,
                        residual_imprint_fraction=0.0)
        with pytest.raises(ConfigurationError):
            WearProfile("x", age_mean_hours=0.0, age_sigma_hours=0.0,
                        residual_imprint_fraction=1.5)


class TestDelayModel:
    def test_delta_ps_definition(self):
        d = TransitionDelays(rising_ps=100.0, falling_ps=103.5)
        assert d.delta_ps == pytest.approx(3.5)

    def test_addition(self):
        a = TransitionDelays(10.0, 12.0)
        b = TransitionDelays(5.0, 4.0)
        total = a + b
        assert total.rising_ps == 15.0
        assert total.falling_ps == 16.0

    def test_zero(self):
        assert TransitionDelays.zero().delta_ps == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(PhysicsError):
            TransitionDelays(rising_ps=-1.0, falling_ps=1.0)

    def test_alpha_power_linear_in_vth(self):
        one = alpha_power_delay_shift(1000.0, 10.0)
        two = alpha_power_delay_shift(1000.0, 20.0)
        assert two == pytest.approx(2.0 * one)

    def test_alpha_power_scales_with_delay(self):
        short = alpha_power_delay_shift(1000.0, 10.0)
        long_ = alpha_power_delay_shift(10000.0, 10.0)
        assert long_ == pytest.approx(10.0 * short)

    def test_alpha_power_magnitude_plausible(self):
        # ~25 mV on a 1000 ps path at 0.53 V overdrive: tens of ps.
        shift = alpha_power_delay_shift(1000.0, 25.0)
        assert 20.0 < shift < 100.0

    def test_alpha_power_invalid_inputs(self):
        with pytest.raises(PhysicsError):
            alpha_power_delay_shift(-1.0, 10.0)
        with pytest.raises(PhysicsError):
            alpha_power_delay_shift(100.0, 10.0, vdd=0.3, vth=0.4)
