"""Capture registers: sampling the carry chain into a binary word.

The capture clock snapshots every chain tap simultaneously.  Registers
behind the wavefront have settled to the post-transition value; registers
ahead still hold the pre-transition value; the register *at* the
wavefront is metastable and resolves randomly, occasionally producing the
small "bubble" regions visible in the paper's Figure 3 examples.

Only a handful of taps around the wavefront can resolve either way, so
the bank kernels use :func:`resolve_distances`, which computes each
word's Hamming distance from those taps alone;
:func:`resolve_words` builds the whole words only for
``TunableDualPolarityTdc.measure_raw``, which returns them for the raw
trace archive.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SensorError
from repro.rng import SeedLike, make_rng
from repro.sensor.trace import Polarity

#: Registers within this many bins of the wavefront can resolve randomly.
METASTABLE_WINDOW_BINS = 0.8

#: Taps ``floor(pos) - 1 ... floor(pos) + 2`` hold every tap that can
#: resolve either way; see :func:`resolve_distances`.
_WINDOW_OFFSETS = np.arange(-1.0, 3.0)[:, np.newaxis]


def resolve_words(
    positions: np.ndarray, uniforms: np.ndarray, polarity: Polarity
) -> np.ndarray:
    """Resolve wavefront positions against pre-drawn metastability uniforms.

    ``positions`` has any shape; ``uniforms`` appends the tap axis
    (``positions.shape + (length,)``).  Tap ``k`` has seen the
    transition pass when its uniform is below ``clip((pos - k) / 0.8 +
    0.5, 0, 1)``; a rising launch reads those taps as 1, a falling
    launch as 0.
    """
    length = uniforms.shape[-1]
    taps = np.arange(length, dtype=float)
    passed = np.clip(
        (positions[..., np.newaxis] - taps) / METASTABLE_WINDOW_BINS + 0.5,
        0.0,
        1.0,
    )
    resolved = uniforms < passed
    if polarity is Polarity.RISING:
        return resolved
    return ~resolved


def resolve_distances(
    positions: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Binary Hamming distances of the words :func:`resolve_words` builds.

    Equals the Binary Hamming distance of each word
    ``resolve_words(positions, uniforms, p)`` builds, for either
    polarity ``p`` -- both count the taps the transition has passed --
    without building the words.  The pass
    probability ``clip((pos - k) / 0.8 + 0.5, 0, 1)`` does not grow with
    ``k`` and every uniform lies in [0, 1), so each tap ``k <= floor(pos)
    - 2`` has probability 1 and always counts, and each tap ``k >=
    floor(pos) + 3`` has probability 0 and never does.  The distance is
    therefore ``clip(floor(pos) - 1, 0, length)`` plus the comparisons
    at the (up to) four taps in between, made with the same float
    expression as :func:`resolve_words`.
    """
    length = uniforms.shape[-1]
    flat = positions.reshape(-1)
    floor = np.floor(flat)
    # Window axis first, so every operation below runs over all words.
    taps = floor + _WINDOW_OFFSETS
    passed = np.clip(
        (flat - taps) / METASTABLE_WINDOW_BINS + 0.5, 0.0, 1.0
    )
    # Window taps off either end of the chain do not exist.
    passed[(taps < 0.0) | (taps >= length)] = 0.0
    index = np.clip(taps, 0, length - 1).astype(np.intp)
    index += np.arange(0, flat.size * length, length)
    window = uniforms.reshape(-1)[index]
    distances = np.clip(floor - 1.0, 0, length).astype(np.intp)
    distances += np.count_nonzero(window < passed, axis=0)
    return distances.reshape(positions.shape)


class CaptureBank:
    """The metastability randomness of one sensor's capture registers."""

    def __init__(self, length: int, seed: SeedLike = None) -> None:
        if length <= 0:
            raise SensorError(f"bank length must be positive, got {length}")
        self.length = length
        self._rng = make_rng(seed)

    def draw_uniforms(
        self, shape: tuple, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Metastability uniforms for a batch, as one C-order draw.

        Returns ``shape + (length,)`` uniforms, one per tap of each word
        in ``shape``, for :func:`resolve_words` or
        :func:`resolve_distances`.  With ``out`` (C-contiguous, of that
        shape) the draw is written in place, consuming the stream
        exactly as the allocating draw would.
        """
        return self._rng.random(tuple(shape) + (self.length,), out=out)
