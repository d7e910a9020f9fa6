"""Simulation-time telemetry: sim-clock-keyed series and the recorder.

The metrics registry (:mod:`repro.observability.metrics`) measures
*wall-clock* behaviour; a fleet campaign, though, lives on a simulated
clock -- BTI imprint accrues over simulated months, and the questions
worth asking ("what was pool occupancy at hour H?  how much aging debt
was outstanding when the attacker flashed?") are functions of sim
time.  This module keeps those answers:

* :class:`GaugeSeries` / :class:`RateSeries` -- series of ``(sim_hours,
  value)`` samples.  A gauge stores levels (free boards, aging debt); a
  rate series stores *cumulative* totals (lifecycle events, capacity
  drops) so any two retained samples still yield an exact rate over
  their interval, no matter how many intermediate samples were
  downsampled away.

* Bounded, deterministic downsampling.  Sampling at a fixed sim-hour
  cadence over a million-event run would retain tens of thousands of
  points; instead each series keeps at most ``max_points`` samples by
  stride-doubling: when the buffer overflows, every other retained
  point is dropped and only every ``stride``-th *offered* sample is
  appended from then on.  The procedure depends only on the offered
  sample stream -- never on wall time or randomness -- so two runs
  that offer identical samples retain identical points.  That is what
  lets the test suite pin the bulk churn engine and its per-event
  oracle bit-identical at the JSON level.

* :class:`FlightRecorder` -- the fleet flight recorder.  Churn engines
  feed it grid samples (vectorised whole windows on the bulk engine,
  scalar per event-gap on the per-event oracle), the event loop feeds it
  tracked-event totals, campaigns feed recovery yield, and registered
  *probes* (per-region aging debt) are evaluated at every churn grid
  time.  ``dump_state``/``merge_state`` mirror the metrics registry's
  lossless-dump contract, idempotence guard included.

Sampling semantics (the cross-engine contract): a sample at grid time
``g`` reflects every churn event with time ``<= g`` and every tracked
(event-loop) mutation that ran strictly before the clock reached
``g``.  The per-event oracle emits pending grids strictly below an
event's time before processing it and flushes grids ``<= until`` when
an advance ends; the bulk engine computes the same values for a whole
window of grids with ``searchsorted`` bucketing.  Both orderings
produce the same offered stream, so the retained points match bit for
bit.
"""

from __future__ import annotations

import json
import uuid
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_CADENCE_HOURS",
    "DEFAULT_MAX_POINTS",
    "SERIES_POOL_FREE",
    "SERIES_IN_FLIGHT",
    "SERIES_LIFECYCLE",
    "SERIES_DROPPED",
    "SERIES_AGING_DEBT",
    "SERIES_TRACKED",
    "SERIES_RECOVERY_YIELD",
    "SERIES_BOARDS_PROBED",
    "SERIES_FAULTS",
    "SERIES_FAILED_WIPES",
    "GaugeSeries",
    "RateSeries",
    "FlightRecorder",
]

PathLike = Union[str, Path]

#: Default sim-hours between churn grid samples.
DEFAULT_CADENCE_HOURS = 1.0

#: Default retained samples per series; overflow halves the buffer and
#: doubles the sampling stride, so memory stays O(max_points) over
#: arbitrarily long simulations.
DEFAULT_MAX_POINTS = 2048

# The fleet series the recorder maintains.  Names follow the metric
# conventions (dotted layer.measurement, sim-time implied).
SERIES_POOL_FREE = "fleet.pool_free"
SERIES_IN_FLIGHT = "fleet.rentals_in_flight"
SERIES_LIFECYCLE = "fleet.lifecycle_events"
SERIES_DROPPED = "fleet.dropped_arrivals"
SERIES_AGING_DEBT = "fleet.aging_debt_hours"
SERIES_TRACKED = "fleet.tracked_events"
SERIES_RECOVERY_YIELD = "fleet.recovery_yield"
SERIES_BOARDS_PROBED = "fleet.boards_probed"
SERIES_FAULTS = "fleet.faults_injected"
SERIES_FAILED_WIPES = "fleet.failed_wipes"


class GaugeSeries:
    """A level sampled against the sim clock (free boards, debt hours).

    ``points`` is a list of ``[sim_hours, value]`` pairs (plain floats,
    so the series round-trips JSON losslessly).  ``last`` is always the
    most recently *offered* sample, retained or not, so the series'
    final value survives any amount of downsampling.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 max_points: int = DEFAULT_MAX_POINTS) -> None:
        if max_points < 2:
            raise ConfigurationError(
                f"series {name!r} needs max_points >= 2, got {max_points}"
            )
        self.name = name
        self.help = help
        self.max_points = int(max_points)
        self.points: list[list[float]] = []
        self.stride = 1
        self.offered = 0
        self.last_t: Optional[float] = None
        self.last_value: Optional[float] = None

    def __len__(self) -> int:
        return len(self.points)

    def observe(self, t: float, value: float) -> None:
        """Offer one sample at sim time ``t`` (must be non-decreasing)."""
        if self.offered % self.stride == 0:
            self.points.append([float(t), float(value)])
            if len(self.points) > self.max_points:
                del self.points[1::2]
                self.stride *= 2
        self.offered += 1
        self.last_t = float(t)
        self.last_value = float(value)

    def observe_many(self, ts, values) -> None:
        """Offer a whole window of samples in one vectorised call.

        Replays exactly the state transitions ``observe`` would make
        sample by sample -- including a mid-window stride doubling --
        so the bulk churn engine's windowed intake retains the same
        points as the per-event oracle's scalar intake.
        """
        ts = np.asarray(ts, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = len(ts)
        if n == 0:
            return
        if len(values) != n:
            raise ConfigurationError(
                f"series {self.name!r}: ts and values must align"
            )
        start = self.offered
        pos = 0
        while pos < n:
            stride = self.stride
            # Next *offered* index at or after start+pos on the stride.
            first = -(-(start + pos) // stride) * stride
            if first >= start + n:
                break
            selected = np.arange(first, start + n, stride)
            # An append that lifts the buffer past max_points triggers
            # a halve; chunk up to that boundary, halve, re-stride.
            room = self.max_points + 1 - len(self.points)
            take = selected[:room] if len(selected) > room else selected
            local = take - start
            self.points.extend(
                np.column_stack((ts[local], values[local])).tolist()
            )
            if len(self.points) > self.max_points:
                del self.points[1::2]
                self.stride *= 2
            pos = int(take[-1]) - start + 1
        self.offered = start + n
        self.last_t = float(ts[-1])
        self.last_value = float(values[-1])

    def to_dict(self) -> dict:
        """JSON-ready dump (also the lossless dump/merge payload)."""
        return {
            "kind": self.kind,
            "help": self.help,
            "max_points": self.max_points,
            "stride": self.stride,
            "offered": self.offered,
            "last": (None if self.last_t is None
                     else [self.last_t, self.last_value]),
            "points": [list(p) for p in self.points],
        }


class RateSeries(GaugeSeries):
    """A cumulative total sampled against the sim clock.

    Stores running totals, not deltas: the rate between any two
    retained samples ``(t0, c0)`` and ``(t1, c1)`` is exactly
    ``(c1 - c0) / (t1 - t0)`` regardless of what downsampling dropped
    in between.
    """

    kind = "rate"


_SERIES_KINDS = {"gauge": GaugeSeries, "rate": RateSeries}


class FlightRecorder:
    """The fleet flight recorder: every sim-time series of one run.

    One recorder instance follows one simulation; the churn engines,
    the event loop and the campaign handlers all write into it, and
    registered probe callbacks (aging debt) are evaluated at every
    churn grid time so engine-owned and simulator-owned series share
    one time base.
    """

    def __init__(self, cadence_hours: float = DEFAULT_CADENCE_HOURS,
                 max_points: int = DEFAULT_MAX_POINTS) -> None:
        if cadence_hours <= 0.0:
            raise ConfigurationError(
                f"cadence must be positive, got {cadence_hours}"
            )
        if max_points < 2:
            raise ConfigurationError(
                f"max_points must be >= 2, got {max_points}"
            )
        self.cadence_hours = float(cadence_hours)
        self.max_points = int(max_points)
        self._series: dict[str, GaugeSeries] = {}
        self._probes: list[tuple[str, Callable[[float], float]]] = []
        self._merged_dump_ids: set[str] = set()

    # -- series management --------------------------------------------

    def gauge(self, name: str, help: str = "") -> GaugeSeries:
        """Get or create the gauge series ``name``."""
        return self._get_or_create(name, GaugeSeries, help)

    def rate(self, name: str, help: str = "") -> RateSeries:
        """Get or create the cumulative rate series ``name``."""
        return self._get_or_create(name, RateSeries, help)

    def _get_or_create(self, name, cls, help):
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = cls(
                name, help=help, max_points=self.max_points
            )
        elif type(series) is not cls:
            raise ConfigurationError(
                f"series {name!r} already registered as {series.kind}"
            )
        return series

    @property
    def series(self) -> dict[str, GaugeSeries]:
        """Registered series by name (live view)."""
        return self._series

    def names(self) -> tuple[str, ...]:
        """Every registered series name, sorted."""
        return tuple(sorted(self._series))

    def add_probe(self, name: str,
                  fn: Callable[[float], float], help: str = "") -> None:
        """Register a gauge probe evaluated at every churn grid time."""
        self.gauge(name, help=help)
        self._probes.append((name, fn))

    # -- churn intake (the engines call these) ------------------------

    def churn_window(self, ts, free, in_flight, events, drops) -> None:
        """A whole window of churn grid samples (the bulk engine's
        vectorised path); sample ordering matches one scalar sample per
        grid (``tests/oracles/churn.py``)."""
        if len(ts) == 0:
            return
        self.gauge(SERIES_POOL_FREE).observe_many(ts, free)
        self.gauge(SERIES_IN_FLIGHT).observe_many(ts, in_flight)
        self.rate(SERIES_LIFECYCLE).observe_many(ts, events)
        self.rate(SERIES_DROPPED).observe_many(ts, drops)
        if self._probes:
            for t in ts:
                for name, fn in self._probes:
                    self._series[name].observe(float(t), float(fn(float(t))))

    def record_origin(self, boards: float) -> None:
        """The t=0 sample: a full pool, nothing in flight, no events."""
        self.gauge(SERIES_POOL_FREE).observe(0.0, float(boards))
        self.gauge(SERIES_IN_FLIGHT).observe(0.0, 0.0)
        self.rate(SERIES_LIFECYCLE).observe(0.0, 0.0)
        self.rate(SERIES_DROPPED).observe(0.0, 0.0)
        for name, fn in self._probes:
            self._series[name].observe(0.0, float(fn(0.0)))

    # -- event-driven intake ------------------------------------------

    def sample(self, name: str, t: float, value: float,
               help: str = "") -> None:
        """An event-driven gauge sample (recovery yield at a probe)."""
        self.gauge(name, help=help).observe(t, value)

    def sample_rate(self, name: str, t: float, value: float,
                    help: str = "") -> None:
        """An event-driven cumulative sample (boards probed so far)."""
        self.rate(name, help=help).observe(t, value)

    # -- export / persistence -----------------------------------------

    def to_dict(self) -> dict:
        """The whole recorder as one JSON-ready document."""
        return {
            "version": 1,
            "cadence_hours": self.cadence_hours,
            "max_points": self.max_points,
            "series": {
                name: series.to_dict()
                for name, series in sorted(self._series.items())
            },
        }

    def to_json(self) -> str:
        """Canonical JSON text (the bit-identity surface tests pin)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def save(self, path: PathLike) -> Path:
        """Write the series document to ``path``; returns the path."""
        target = Path(path)
        target.write_text(self.to_json())
        return target

    def dump_state(self) -> dict:
        """Lossless dump for cross-process merging (metrics-registry
        parity: a unique ``dump_id`` guards idempotence)."""
        payload = self.to_dict()
        payload["dump_id"] = uuid.uuid4().hex
        return payload

    def merge_state(self, state: dict) -> bool:
        """Fold a :meth:`dump_state` payload into this recorder.

        A series absent here is adopted wholesale (points, stride,
        offered count, last sample).  A series present on both sides
        merges by time-ordered union of retained points, re-trimmed by
        the same halving rule, with the later ``last`` winning --
        enough for a parent process to aggregate shard recorders.  A
        dump already merged (same ``dump_id``) is skipped and ``False``
        returned.
        """
        dump_id = state.get("dump_id")
        if dump_id is not None and dump_id in self._merged_dump_ids:
            return False
        for name, payload in state.get("series", {}).items():
            kind = payload.get("kind", "gauge")
            cls = _SERIES_KINDS.get(kind)
            if cls is None:
                raise ConfigurationError(
                    f"unknown series kind {kind!r} for {name!r}"
                )
            mine = self._series.get(name)
            if mine is None:
                mine = self._get_or_create(name, cls,
                                           payload.get("help", ""))
                mine.points = [list(p) for p in payload.get("points", [])]
                mine.stride = int(payload.get("stride", 1))
                mine.offered = int(payload.get("offered",
                                               len(mine.points)))
            else:
                merged = sorted(
                    [list(p) for p in mine.points]
                    + [list(p) for p in payload.get("points", [])],
                    key=lambda p: p[0],
                )
                while len(merged) > mine.max_points:
                    del merged[1::2]
                    mine.stride *= 2
                mine.points = merged
                mine.stride = max(mine.stride,
                                  int(payload.get("stride", 1)))
                mine.offered += int(payload.get("offered", 0))
            last = payload.get("last")
            if last is not None and (mine.last_t is None
                                     or last[0] >= mine.last_t):
                mine.last_t = float(last[0])
                mine.last_value = float(last[1])
        if dump_id is not None:
            self._merged_dump_ids.add(dump_id)
        return True
