"""Device wear profiles: factory-new lab boards vs. aged cloud FPGAs.

Experiment 1 uses a factory-new ZCU102 ("it will experience the largest
BTI effects since no degradation has occurred").  Experiments 2 and 3 use
AWS F1 devices that have been deployed for years, which the paper notes
makes burn-in roughly an order of magnitude harder to observe.

A :class:`WearProfile` captures that history:

* ``effective_age_hours`` -- the equivalent prior DC-stress hours, which
  enters the kinetics as the age-suppression factor (a four-year-old
  device at realistic stress duty has a few thousand effective hours);
* residual-imprint statistics -- the faint pentimenti of *previous*
  tenants still present when a device is handed to a new one, which act
  as route-to-route noise on cloud devices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class WearProfile:
    """Statistical description of a device population's prior wear."""

    name: str
    #: Mean effective prior stress, hours (0 for a factory-new part).
    age_mean_hours: float
    #: Spread of effective prior stress across the fleet, hours.
    age_sigma_hours: float
    #: Scale of residual per-segment imprints from prior tenants,
    #: expressed as a fraction of the segment's reference burn amplitude.
    residual_imprint_fraction: float

    def __post_init__(self) -> None:
        if self.age_mean_hours < 0.0 or self.age_sigma_hours < 0.0:
            raise ConfigurationError("age statistics must be >= 0")
        if not 0.0 <= self.residual_imprint_fraction <= 1.0:
            raise ConfigurationError("residual_imprint_fraction must be in [0, 1]")

    def sample_age_hours(self, seed: SeedLike = None) -> float:
        """Draw one device's effective prior stress age."""
        rng = make_rng(seed)
        if self.age_sigma_hours == 0.0:
            return self.age_mean_hours
        age = rng.normal(self.age_mean_hours, self.age_sigma_hours)
        return float(np.clip(age, 0.0, None))

    def sample_residual_imprints(
        self, burn_amplitude_ps: np.ndarray, seed: SeedLike = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw residual (high, low) pool charges, one element per segment.

        Prior tenants held unknown values; the residue left after the
        provider's holding time is small and roughly symmetric between
        pools, so each pool gets an independent half-normal charge.
        A segment whose imprint scale is zero (a factory-new part, or a
        segment with no stressed switches) gets no charge and takes no
        draws; every other segment takes two normals, high then low, in
        segment order -- the stream order of one scalar draw per pool.
        """
        rng = make_rng(seed)
        scale = self.residual_imprint_fraction * np.asarray(
            burn_amplitude_ps, dtype=float
        )
        high = np.zeros(scale.shape)
        low = np.zeros(scale.shape)
        drawn = scale != 0.0
        count = int(np.count_nonzero(drawn))
        if count:
            normals = rng.standard_normal(2 * count).reshape(count, 2)
            high[drawn] = np.abs(scale[drawn] * normals[:, 0])
            low[drawn] = np.abs(scale[drawn] * normals[:, 1])
        return high, low


#: A factory-new development board (Experiment 1's ZCU102).
NEW_PART = WearProfile(
    name="factory-new",
    age_mean_hours=0.0,
    age_sigma_hours=0.0,
    residual_imprint_fraction=0.0,
)

#: A multi-year-deployed cloud FPGA (Experiments 2 and 3; the paper's
#: eu-west-2 devices carry "potentially four years of wear").  The mean
#: effective age yields the ~10x incremental-burn-in suppression the
#: paper observed between the new ZCU102 and AWS F1.
CLOUD_PART = WearProfile(
    name="cloud-aged",
    age_mean_hours=4000.0,
    age_sigma_hours=900.0,
    residual_imprint_fraction=0.06,
)
