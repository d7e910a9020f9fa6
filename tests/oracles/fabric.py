"""Reference segment materialisation: the oracle for the bulk draws.

Production materialises a request's new segments as arrays
(:meth:`FpgaDevice._materialise_many`): one block of variation normals,
one block of imprint normals, one slice registration and one imprint
preload.  This module keeps the plain version it replaced -- each new
segment drawn with scalar ``lognormal`` / ``normal`` calls, registered
and preloaded on its own -- so tests can compare the two with ``==``,
generator states included.
"""

from __future__ import annotations

from typing import Iterable

from repro.fabric.routing import SegmentId
from repro.fabric.segments import spec_for
from repro.physics.bti import SegmentTraits


def materialise(device, segment_id: SegmentId) -> tuple[SegmentTraits, float, float]:
    """One segment's traits and residual (high, low) imprints.

    The variation stream gives the delay multiplier, the static
    asymmetry and the amplitude multiplier, in that order; the imprint
    stream gives the high then the low charge, and nothing at all when
    the imprint scale is zero.
    """
    spec = spec_for(segment_id.kind)
    variation = device._variation
    rng, params = variation._rng, variation.params
    delay = spec.delay_ps * float(
        rng.lognormal(mean=0.0, sigma=params.delay_sigma)
    )
    asymmetry = float(rng.normal(loc=0.0, scale=params.asymmetry_sigma_ps))
    rising = max(delay - asymmetry / 2.0, 1.0)
    falling = max(delay + asymmetry / 2.0, 1.0)
    amplitude = spec.burn_amplitude_ps * float(
        rng.lognormal(mean=0.0, sigma=params.amplitude_sigma)
    )
    traits = SegmentTraits(
        rising_delay_ps=rising,
        falling_delay_ps=falling,
        burn_amplitude_ps=amplitude,
    )
    scale = device.wear.residual_imprint_fraction * amplitude
    if scale == 0.0:
        return traits, 0.0, 0.0
    high = abs(float(device._imprint_rng.normal(0.0, scale)))
    low = abs(float(device._imprint_rng.normal(0.0, scale)))
    return traits, high, low


def materialise_one_at_a_time(
    device, segment_ids: Iterable[SegmentId]
) -> dict[SegmentId, SegmentTraits]:
    """Draw, register and preload each new segment of an array-kernel
    device on its own, in request order; returns the new segments'
    traits."""
    store = device.aging_store
    drawn: dict[SegmentId, SegmentTraits] = {}
    for segment_id in segment_ids:
        if segment_id in device._array_index:
            continue
        traits, high, low = materialise(device, segment_id)
        index = store.register(traits)
        if high or low:
            store.preload_imprint(
                [index], high_charge_ps=high, low_charge_ps=low
            )
        device._array_index[segment_id] = index
        drawn[segment_id] = traits
    return drawn
