"""Reference churn replay: the oracle for the bulk churn engine.

Production replays background churn with one engine,
:class:`~repro.cloud.campaigns._BulkChurn`, which resolves a whole
window of arrivals and releases with a handful of numpy passes.  This
module keeps the obviously correct per-event replay it replaced -- one
python-level step per event against a LIFO stack and a heap of pending
releases -- so tests can compare the two with ``==``: free stacks,
event and drop counts, registry counters and flight-recorder samples.

:func:`reference_churn` swaps it into the library for whole-campaign
runs (the fleet bench's reference side and the engine-invariance
tests).
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.cloud import campaigns
from repro.cloud.campaigns import ChurnTrace, _inc_churn_counters
from repro.observability.timeseries import (
    SERIES_DROPPED,
    SERIES_IN_FLIGHT,
    SERIES_LIFECYCLE,
    SERIES_POOL_FREE,
    FlightRecorder,
)


def churn_sample(recorder: FlightRecorder, t: float, free: float,
                 in_flight: float, events: float, drops: float) -> None:
    """One churn grid sample, series by series (the scalar path that
    :meth:`FlightRecorder.churn_window` must match)."""
    recorder.gauge(SERIES_POOL_FREE).observe(t, free)
    recorder.gauge(SERIES_IN_FLIGHT).observe(t, in_flight)
    recorder.rate(SERIES_LIFECYCLE).observe(t, events)
    recorder.rate(SERIES_DROPPED).observe(t, drops)
    for name, fn in recorder._probes:
        recorder.series[name].observe(t, float(fn(float(t))))


class ReferenceChurn:
    """Per-event churn replay: the semantics the bulk engine must share.

    One python-level step per arrival/release against a LIFO stack of
    board ids.  Same-time ties resolve release-before-arrival (a
    returned board is immediately re-rentable -- the paper's rapid
    reallocation race), and an arrival that finds the stack empty is
    dropped along with its release.
    """

    def __init__(self, boards: int, trace: ChurnTrace,
                 recorder: Optional[FlightRecorder] = None) -> None:
        self.n_boards = boards
        self.trace = trace
        self.stack: list[int] = list(range(boards))
        self._pending: list[tuple[float, int, int]] = []
        self._pseq = itertools.count()
        self._pos = 0
        self.now_hours = 0.0
        self.events_processed = 0
        self.dropped_arrivals = 0
        self._recorder = recorder
        self._cadence = (recorder.cadence_hours
                         if recorder is not None else math.inf)
        self._gk = 1

    def _grid_sample(self, g: float) -> None:
        """One flight-recorder sample at grid time ``g`` (the sampling
        contract the bulk engine shares: churn events with time <= g are
        in, tracked handlers at g are not -- grids are emitted while
        the clock advances, before handlers run)."""
        fill = len(self.stack)
        churn_sample(
            self._recorder, g, fill, self.n_boards - fill,
            self.events_processed, self.dropped_arrivals,
        )

    def advance_to(self, until_hours: float) -> None:
        arrivals = self.trace.arrivals
        durations = self.trace.durations
        n = len(arrivals)
        stack = self.stack
        pending = self._pending
        rec = self._recorder
        cadence = self._cadence
        pos0 = self._pos
        e0 = self.events_processed
        d0 = self.dropped_arrivals
        while True:
            a = arrivals[self._pos] if self._pos < n else math.inf
            r = pending[0][0] if pending else math.inf
            t = a if a < r else r
            if t > until_hours:
                break
            if rec is not None:
                g = self._gk * cadence
                while g < t:
                    self._grid_sample(g)
                    self._gk += 1
                    g = self._gk * cadence
            if r <= a:
                _, _, board = heapq.heappop(pending)
                stack.append(board)
            else:
                self._pos += 1
                if stack:
                    board = stack.pop()
                    heapq.heappush(
                        pending,
                        (a + durations[self._pos - 1],
                         next(self._pseq), board),
                    )
                else:
                    self.dropped_arrivals += 1
            self.events_processed += 1
        if rec is not None:
            g = self._gk * cadence
            while g <= until_hours:
                self._grid_sample(g)
                self._gk += 1
                g = self._gk * cadence
        arrived = self._pos - pos0
        drops = self.dropped_arrivals - d0
        events = self.events_processed - e0
        _inc_churn_counters(
            events, arrived - drops, events - arrived, drops
        )
        self.now_hours = until_hours

    def rent(self) -> Optional[int]:
        return self.stack.pop() if self.stack else None

    def release(self, board: int) -> None:
        self.stack.append(board)

    def available(self) -> int:
        return len(self.stack)

    def free_boards(self) -> list[int]:
        return list(self.stack)


@contextmanager
def reference_churn() -> Iterator[None]:
    """Run every region built inside the block on the per-event replay.

    Campaign results, series documents and counters equal the bulk
    engine's bit for bit; only the wall time differs.
    """
    original = campaigns._BulkChurn
    campaigns._BulkChurn = ReferenceChurn
    try:
        yield
    finally:
        campaigns._BulkChurn = original
