"""The carry-chain delay line.

A linear array of fast-carry (CARRY8) elements through which the launched
transition propagates.  Ideally every element has the same delay ``tau``
(2.8 ps on UltraScale+); in silicon, per-element mismatch makes the bins
slightly unequal -- the "architectural irregularities" that motivate the
paper's averaging over ten traces at different theta settings.

Given the time a transition has been inside the chain, the model returns
the exact (fractional) element boundary the wavefront has reached, via
the cumulative per-bin widths.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SensorError
from repro.rng import SeedLike, make_rng

#: Fractional sigma of per-element delay mismatch.
BIN_MISMATCH_SIGMA = 0.06


class CarryChain:
    """One placed carry chain with per-element mismatch.

    Attributes:
        length: number of delay elements (capture taps).
        nominal_bin_ps: design bin width (the 2.8 ps/bit constant).
    """

    def __init__(
        self,
        length: int,
        nominal_bin_ps: float,
        seed: SeedLike = None,
        mismatch_sigma: float = BIN_MISMATCH_SIGMA,
    ) -> None:
        if length <= 0:
            raise SensorError(f"chain length must be positive, got {length}")
        if nominal_bin_ps <= 0.0:
            raise SensorError(f"bin width must be positive, got {nominal_bin_ps}")
        self.length = length
        self.nominal_bin_ps = nominal_bin_ps
        rng = make_rng(seed)
        widths = nominal_bin_ps * rng.lognormal(
            mean=0.0, sigma=mismatch_sigma, size=length
        )
        #: boundaries[k] = time to traverse the first k elements.
        self._boundaries = np.concatenate([[0.0], np.cumsum(widths)])

    @property
    def total_delay_ps(self) -> float:
        """Time for a transition to traverse the whole chain."""
        return float(self._boundaries[-1])

    def wavefront_position(self, time_in_chain_ps: float) -> float:
        """Fractional element index the wavefront has reached.

        ``time_in_chain_ps`` is how long the transition has been
        propagating inside the chain when the capture clock fires.
        Clamped to [0, length].
        """
        if time_in_chain_ps <= 0.0:
            return 0.0
        if time_in_chain_ps >= self.total_delay_ps:
            return float(self.length)
        index = int(np.searchsorted(self._boundaries, time_in_chain_ps) - 1)
        lo = self._boundaries[index]
        hi = self._boundaries[index + 1]
        fraction = (time_in_chain_ps - lo) / (hi - lo)
        return float(index + fraction)

    def wavefront_positions(self, times_in_chain_ps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`wavefront_position` over an array of times.

        One ``searchsorted`` over the cumulative boundaries resolves every
        wavefront at once; the interpolation arithmetic is element-for-
        element the same as the scalar path, so a batched capture built on
        this method reproduces the scalar capture bit for bit.
        """
        times = np.asarray(times_in_chain_ps, dtype=float)
        index = np.clip(
            np.searchsorted(self._boundaries, times) - 1, 0, self.length - 1
        )
        lo = self._boundaries[index]
        hi = self._boundaries[index + 1]
        fraction = (times - lo) / (hi - lo)
        positions = index + fraction
        positions = np.where(times <= 0.0, 0.0, positions)
        return np.where(
            times >= self.total_delay_ps, float(self.length), positions
        )


def bank_wavefront_positions(
    chains: Sequence[CarryChain], times_in_chain_ps: np.ndarray
) -> np.ndarray:
    """Wavefront positions for a whole bank of chains at once.

    ``times_in_chain_ps`` has shape ``(routes, ...)``; row ``r`` resolves
    against ``chains[r]``'s boundaries, and every element equals
    ``chains[r].wavefront_positions(times[r])`` bit for bit: row ``r``'s
    indices come from one ``searchsorted`` over that chain's boundaries,
    and the interpolation then runs over the whole bank at once with the
    per-chain arithmetic.
    """
    times = np.asarray(times_in_chain_ps, dtype=float)
    if times.ndim < 1 or times.shape[0] != len(chains):
        raise SensorError(
            f"need one time row per chain: {len(chains)} chains, "
            f"times shape {times.shape}"
        )
    if not chains:
        raise SensorError("need at least one chain")
    lengths = {chain.length for chain in chains}
    if len(lengths) != 1:
        raise SensorError(f"bank chains must share a length, got {lengths}")
    length = lengths.pop()
    boundaries = np.stack([chain._boundaries for chain in chains])
    index = np.empty(times.shape, dtype=np.intp)
    for row, chain_boundaries in enumerate(boundaries):
        index[row] = np.searchsorted(chain_boundaries, times[row])
    index = np.clip(index - 1, 0, length - 1)
    per_row = (len(chains),) + (1,) * (times.ndim - 1)
    # Row r's boundaries start at r * (length + 1) in the flattened stack.
    flat = index + (np.arange(len(chains)) * (length + 1)).reshape(per_row)
    lo = boundaries.ravel()[flat]
    hi = boundaries.ravel()[flat + 1]
    fraction = (times - lo) / (hi - lo)
    positions = index + fraction
    positions = np.where(times <= 0.0, 0.0, positions)
    totals = boundaries[:, -1].reshape(per_row)
    return np.where(times >= totals, float(length), positions)
