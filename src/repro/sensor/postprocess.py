"""Post-processing: from capture words to a delay estimate.

Implements the paper's pipeline exactly:

1. each capture word reduces to its **Binary Hamming Distance** -- for
   rising transitions, the distance from the all-zeros word (i.e. the
   number of ones); for falling transitions, the distance from the
   all-ones word (the number of zeros);
2. the mean distance over the samples of a trace;
3. the mean over the ten traces of a measurement;
4. falling minus rising, converted to picoseconds with the part's
   2.8 ps/bit carry-bin constant.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SensorError
from repro.sensor.trace import Polarity, Trace


def binary_hamming_distance(word: np.ndarray, polarity: Polarity) -> int:
    """Hamming distance of one capture word from its polarity reference.

    Rising words are compared against all-zeros; falling words against
    all-ones.  Either way the result counts how far the transition
    propagated, in chain elements.
    """
    if word.ndim != 1 or word.dtype != np.bool_:
        raise SensorError("capture word must be a 1-D boolean array")
    if polarity is Polarity.RISING:
        return int(np.count_nonzero(word))
    return int(word.size - np.count_nonzero(word))


def trace_mean_distance(trace: Trace) -> float:
    """Mean Binary Hamming Distance over the samples of one trace."""
    if trace.polarity is Polarity.RISING:
        counts = np.count_nonzero(trace.words, axis=1)
    else:
        counts = trace.words.shape[1] - np.count_nonzero(trace.words, axis=1)
    return float(np.mean(counts))


def traces_mean_distance(traces: Sequence[Trace]) -> float:
    """Mean over traces of the per-trace mean distance."""
    if not traces:
        raise SensorError("need at least one trace")
    return float(np.mean([trace_mean_distance(t) for t in traces]))


def delta_ps_from_traces(
    rising: Sequence[Trace],
    falling: Sequence[Trace],
    bin_ps: float,
) -> float:
    """The paper's single-measurement observable.

    Propagation *distance* shrinks as delay grows (the edge enters the
    chain later), so the rising-minus-falling distance difference times
    the bin width gives falling-minus-rising *delay* in picoseconds.
    """
    if bin_ps <= 0.0:
        raise SensorError(f"bin width must be positive, got {bin_ps}")
    distance_difference = traces_mean_distance(rising) - traces_mean_distance(
        falling
    )
    return distance_difference * bin_ps
