"""Trace containers: raw TDC capture words and their metadata.

A *trace* is the paper's unit of sensing: a short series of 2^4 capture
words taken at one ``theta`` setting for one transition polarity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import SensorError


class Polarity(enum.Enum):
    """Transition polarity launched through the route under test."""

    RISING = "rising"  # 0 -> 1
    FALLING = "falling"  # 1 -> 0


#: The paper's trace length: "a short series of 2^4 samples".
SAMPLES_PER_TRACE = 16


@dataclass(frozen=True)
class Trace:
    """One trace: capture words for one polarity at one theta.

    Attributes:
        polarity: the launched transition polarity.
        theta_ps: launch/capture phase offset used.
        words: boolean array of shape (samples, chain_length); element
            [i, j] is capture register j of sample i.
    """

    polarity: Polarity
    theta_ps: float
    words: np.ndarray

    def __post_init__(self) -> None:
        if self.words.ndim != 2:
            raise SensorError(
                f"trace words must be 2-D (samples x chain), got "
                f"shape {self.words.shape}"
            )
        if self.words.dtype != np.bool_:
            raise SensorError(f"trace words must be boolean, got {self.words.dtype}")

    @property
    def chain_length(self) -> int:
        """Capture taps per word."""
        return int(self.words.shape[1])
