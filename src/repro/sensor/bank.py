"""Bank-level capture: every route of a board in one kernel call.

The sensor's one resolve path.  A board's whole measurement bank
resolves as one ``(routes, 2, traces, samples)`` call, and a
calibration round probes every still-searching route with one call;
a single route's measurement or calibration is the same call over a
bank of one.

The RNG discipline that makes a bank bit-identical to a route-by-route
loop: each route owns an independent generator stream (spawned per
route by :class:`~repro.designs.measure.MeasureSession`), and the bank
draws each route's randomness *sequentially, in bank order* via
:meth:`~repro.sensor.tdc.TunableDualPolarityTdc.capture_draws` /
``measure_draws`` -- exactly the draws the loop would make.
Each route writes its draws in place into its own row of one
preallocated times tensor and one uniforms tensor, so nothing is
stacked or copied.  The bank then resolves only each word's Hamming
distance, from the few taps around its wavefront
(:func:`~repro.sensor.capture.resolve_distances`).  Batching therefore
changes where the arithmetic happens, never which random numbers feed
it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.observability.metrics import registry
from repro.sensor.capture import resolve_distances
from repro.sensor.carry_chain import bank_wavefront_positions
from repro.sensor.tdc import Measurement, TunableDualPolarityTdc
from repro.sensor.trace import SAMPLES_PER_TRACE, Polarity


def _bank_distances(
    tdcs: Sequence[TunableDualPolarityTdc],
    times: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Hamming distances of a bank of drawn capture words.

    ``times`` is ``(routes, 2, traces, samples)`` and ``uniforms``
    appends the tap axis, axis 1 ordered (rising, falling); row ``r``
    resolves against ``tdcs[r]``'s chain.  Returns the ``(routes, 2,
    traces, samples)`` distances, each equal to the Binary Hamming
    Distance of the whole word ``resolve_words`` would build.
    """
    registry.counter(
        "capture_words_total",
        "capture words computed by the batched kernel",
    ).inc(times.size)
    positions = bank_wavefront_positions(
        [tdc.chain for tdc in tdcs], np.maximum(times, 0.0)
    )
    return resolve_distances(positions, uniforms)


def resolve_bank(
    tdcs: Sequence[TunableDualPolarityTdc],
    thetas_ps: Sequence[float],
    times: np.ndarray,
    uniforms: np.ndarray,
) -> dict[str, Measurement]:
    """Reduce a bank of drawn measurements to one :class:`Measurement` each.

    Row ``r`` of ``times``/``uniforms`` holds ``tdcs[r]``'s draws from
    :meth:`~TunableDualPolarityTdc.measure_draws` at ``thetas_ps[r]``.
    The distances reduce as the paper's pipeline reduces words (mean
    over samples, then over traces), so every route's means and delta
    agree bit for bit with the per-trace reduction of its words.
    """
    if not tdcs:
        return {}
    means = _bank_distances(tdcs, times, uniforms).mean(axis=-1).mean(axis=-1)
    measurements: dict[str, Measurement] = {}
    for tdc, theta, (rising, falling) in zip(tdcs, thetas_ps, means):
        rising = float(rising)
        falling = float(falling)
        measurements[tdc.route.name] = Measurement(
            route_name=tdc.route.name,
            theta_init_ps=theta,
            rising_distance=rising,
            falling_distance=falling,
            delta_ps=(rising - falling) * tdc.chain.nominal_bin_ps,
        )
    return measurements


def probe_bank(
    tdcs: Sequence[TunableDualPolarityTdc],
    thetas_ps: Sequence[float],
    samples: int = SAMPLES_PER_TRACE,
) -> tuple[np.ndarray, np.ndarray]:
    """One calibration probe per route, resolved as one call.

    Route ``r`` takes a single rising and then a single falling trace
    at ``thetas_ps[r]``, written in place into its row of the round's
    tensors, and the whole round resolves together.
    Returns ``(rising_means, falling_means)``, the per-route mean
    propagation distances in chain elements.
    """
    length = tdcs[0].chain_length
    times = np.empty((len(tdcs), 2, 1, samples))
    uniforms = np.empty((len(tdcs), 2, 1, samples, length))
    for row, (tdc, theta) in enumerate(zip(tdcs, thetas_ps)):
        for index, polarity in enumerate((Polarity.RISING, Polarity.FALLING)):
            tdc.capture_draws(
                [theta], polarity, samples,
                out=(times[row, index], uniforms[row, index]),
            )
    means = _bank_distances(tdcs, times, uniforms).mean(axis=-1)[:, :, 0]
    return means[:, 0], means[:, 1]
