"""Measurement-noise environments.

Two environments bracket the paper's settings:

* :data:`LAB_NOISE` -- a new board on a quiet bench in a
  temperature-controlled oven (Experiment 1): clock jitter only.
* :data:`CLOUD_NOISE` -- an AWS F1 card in a shared server (Experiments
  2-3): more jitter, plus a slowly wandering polarity-asymmetric offset
  from supply noise and co-located computation, which the paper cites as
  the reason its cloud results are "expectedly noisier".

The slow offset follows an AR(1) process advanced once per measurement
epoch, so consecutive hourly measurements are realistically correlated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class NoiseModel:
    """Noise magnitudes for one deployment environment.

    Attributes:
        jitter_ps: gaussian sigma of per-sample launch/capture timing
            jitter.
        polarity_offset_sigma_ps: stationary sigma of the slow AR(1)
            polarity-asymmetric delay offset (affects falling and rising
            with opposite sign, so it does not cancel in the
            falling-minus-rising observable).
        offset_correlation: AR(1) coefficient per measurement epoch.
    """

    jitter_ps: float
    polarity_offset_sigma_ps: float
    offset_correlation: float

    def __post_init__(self) -> None:
        if self.jitter_ps < 0.0 or self.polarity_offset_sigma_ps < 0.0:
            raise ConfigurationError("noise magnitudes must be >= 0")
        if not 0.0 <= self.offset_correlation < 1.0:
            raise ConfigurationError("offset_correlation must be in [0, 1)")


#: Calibrated so one full measurement (10 traces x 16 samples per
#: polarity) lands near the paper's observed per-point scatter: ~0.3 ps
#: on the bench (Figure 6) and ~0.45 ps in the cloud (Figure 7).
LAB_NOISE = NoiseModel(
    jitter_ps=2.0,
    polarity_offset_sigma_ps=0.03,
    offset_correlation=0.5,
)

CLOUD_NOISE = NoiseModel(
    jitter_ps=2.5,
    polarity_offset_sigma_ps=0.05,
    offset_correlation=0.7,
)


class NoiseState:
    """Evolving noise realisation for one sensor instance."""

    def __init__(self, model: NoiseModel, seed: SeedLike = None) -> None:
        self.model = model
        self._rng = make_rng(seed)
        self._offset_ps = 0.0

    def advance_epoch(self) -> None:
        """Step the slow polarity offset (call once per measurement)."""
        sigma = self.model.polarity_offset_sigma_ps
        if sigma == 0.0:
            return
        rho = self.model.offset_correlation
        innovation_sigma = sigma * (1.0 - rho**2) ** 0.5
        self._offset_ps = rho * self._offset_ps + float(
            self._rng.normal(0.0, innovation_sigma)
        )

    @property
    def polarity_offset_ps(self) -> float:
        """Current slow offset, added to falling and subtracted from rising."""
        return self._offset_ps

    def sample_jitter_matrix_ps(self, shape: tuple[int, ...]) -> np.ndarray:
        """A whole batch of per-sample jitter draws as one RNG call.

        A jitter-free model draws nothing and returns zeros; otherwise
        one vectorised ``normal`` fills the requested shape.
        """
        if self.model.jitter_ps == 0.0:
            return np.zeros(shape)
        return self._rng.normal(0.0, self.model.jitter_ps, size=shape)
