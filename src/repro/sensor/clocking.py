"""Programmable clock generation: the launch/capture phase ``theta``.

The TDC uses two same-frequency clocks whose phase relationship is
runtime-programmable through the MMCM's fine phase shift.  The phase
step quantises the values of ``theta`` an attacker can actually program;
UltraScale+ fine phase shifts move in VCO-period/56 increments, a few
picoseconds at typical settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SensorError


@dataclass(frozen=True)
class PhaseGenerator:
    """Quantised programmable phase between launch and capture clocks.

    Attributes:
        step_ps: granularity of programmable phase (MMCM fine shift).
        max_ps: largest programmable offset (one clock period).
    """

    step_ps: float = 2.8
    max_ps: float = 20000.0

    def __post_init__(self) -> None:
        if self.step_ps <= 0.0:
            raise SensorError(f"phase step must be positive, got {self.step_ps}")
        if self.max_ps <= self.step_ps:
            raise SensorError("max phase must exceed one step")

    def quantise(self, theta_ps: float) -> float:
        """Snap a requested phase to the programmable grid."""
        if not 0.0 <= theta_ps <= self.max_ps:
            raise SensorError(
                f"theta {theta_ps} ps outside programmable range "
                f"[0, {self.max_ps}]"
            )
        return round(theta_ps / self.step_ps) * self.step_ps

    def quantise_array(self, thetas_ps: Sequence[float]) -> np.ndarray:
        """:meth:`quantise` over many phases at once, as one array.

        ``np.rint`` rounds half to even, as Python's ``round`` does, so
        every element equals :meth:`quantise` of it bit for bit, and
        the first phase outside the programmable range raises the same
        :class:`SensorError`.
        """
        for theta_ps in thetas_ps:
            if not 0.0 <= theta_ps <= self.max_ps:
                raise SensorError(
                    f"theta {theta_ps} ps outside programmable range "
                    f"[0, {self.max_ps}]"
                )
        thetas = np.array(thetas_ps, dtype=float)
        thetas /= self.step_ps
        np.rint(thetas, out=thetas)
        thetas *= self.step_ps
        return thetas

    def steps_down(self, theta_ps: float, count: int) -> list[float]:
        """``count`` successive settings decreasing from ``theta_ps``.

        The measurement phase "iteratively decreases" theta from
        theta_init across its ten traces; this enumerates those settings.
        """
        if count <= 0:
            raise SensorError(f"count must be positive, got {count}")
        start = self.quantise(theta_ps)
        values = []
        for k in range(count):
            value = start - k * self.step_ps
            if value < 0.0:
                raise SensorError("theta stepped below zero during sweep")
            values.append(value)
        return values
