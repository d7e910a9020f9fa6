"""Process-variation models.

Every manufactured die differs: segment delays, rising/falling asymmetry
and per-switch BTI susceptibility all vary around their nominal values.
Variation matters for three reasons in this reproduction:

1. it is why sensor calibration (finding theta_init per route) exists;
2. it sets the static falling-minus-rising offset that the paper removes
   by centring each series at its first measurement;
3. it doubles as a **device fingerprint**: the vector of route delays is
   unique per die, which the attacker exploits to confirm re-acquisition
   of the victim's physical board (Assumption 2 / Section 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class VariationParams:
    """Magnitudes of manufacturing variation.

    Attributes:
        delay_sigma: lognormal sigma of per-segment delay multipliers.
        amplitude_sigma: lognormal sigma of per-segment BTI amplitude
            multipliers (trap-density variation).
        asymmetry_sigma_ps: gaussian sigma of the static falling-minus-
            rising offset per segment, in picoseconds.
    """

    delay_sigma: float = 0.008
    amplitude_sigma: float = 0.18
    asymmetry_sigma_ps: float = 1.5

    def __post_init__(self) -> None:
        for name in ("delay_sigma", "amplitude_sigma", "asymmetry_sigma_ps"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be >= 0")


DEFAULT_VARIATION = VariationParams()


def _exp(values: np.ndarray) -> np.ndarray:
    """Elementwise C-library ``exp``, the one numpy's scalar
    ``lognormal`` draws call."""
    return np.fromiter(
        map(math.exp, values.tolist()), dtype=float, count=values.size
    )


class ProcessVariation:
    """Samples per-segment manufacturing variation for one die.

    All draws come from a die-specific random stream, so two devices
    built from different seeds have different (but individually
    reproducible) variation maps -- the basis of fingerprinting.
    """

    def __init__(
        self, seed: SeedLike = None, params: VariationParams = DEFAULT_VARIATION
    ) -> None:
        self.params = params
        self._rng = make_rng(seed)

    def sample_segments(
        self, nominal_delay_ps: np.ndarray, nominal_amplitude_ps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample (rising_ps, falling_ps, amplitude_ps) arrays, one
        element per segment.

        Each segment takes three standard normals from the die's stream,
        in segment order: its delay multiplier (lognormal), its static
        falling-minus-rising offset (gaussian) and its amplitude
        multiplier (lognormal).  ``standard_normal(3 * m)`` consumes the
        stream exactly as ``m`` rounds of scalar ``lognormal`` /
        ``normal`` / ``lognormal`` calls do, and the lognormal's ``exp``
        is the C library's, so it is taken with :func:`math.exp` per
        element (numpy's SIMD ``exp`` differs from it by an ulp on a few
        per cent of inputs).
        """
        nominal_delay = np.asarray(nominal_delay_ps, dtype=float)
        nominal_amplitude = np.asarray(nominal_amplitude_ps, dtype=float)
        if (nominal_delay <= 0.0).any():
            raise ConfigurationError(
                "nominal delay must be positive, got "
                f"{nominal_delay[nominal_delay <= 0.0][0]}"
            )
        if (nominal_amplitude < 0.0).any():
            raise ConfigurationError(
                "nominal amplitude must be >= 0, got "
                f"{nominal_amplitude[nominal_amplitude < 0.0][0]}"
            )
        normals = self._rng.standard_normal(3 * nominal_delay.size)
        delay_z, asymmetry_z, amplitude_z = normals.reshape(-1, 3).T
        delay = nominal_delay * _exp(self.params.delay_sigma * delay_z)
        asymmetry = self.params.asymmetry_sigma_ps * asymmetry_z
        rising = np.maximum(delay - asymmetry / 2.0, 1.0)
        falling = np.maximum(delay + asymmetry / 2.0, 1.0)
        amplitude = nominal_amplitude * _exp(
            self.params.amplitude_sigma * amplitude_z
        )
        return rising, falling, amplitude

    def spawn_rng(self) -> np.random.Generator:
        """A child generator for related per-die randomness."""
        return np.random.default_rng(self._rng.integers(0, 2**63))
