"""Chrome Trace Event Format export of the span forest.

Any traced run -- including a sharded Monte Carlo sweep whose worker
spans were merged back into the parent (see
:func:`repro.observability.trace.merge_state`) -- can be exported as a
``trace_events`` JSON document and opened in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* every span becomes a complete event (``ph="X"``) with microsecond
  ``ts``/``dur``, placed on the track of the process that recorded it
  (worker spans carry a ``worker_pid`` attribute and land on their
  worker's track);
* each top-level span within a process gets its own thread track
  (``tid``), so the phases of an experiment and the seeds of a sweep
  render as parallel lanes;
* the hot-kernel throughput counters (``capture_words_total``,
  ``aging_segment_updates_total``) and the reliability counters
  (``faults_injected_total``, ``retries_total``) become counter events
  (``ph="C"``) so the words/segments ramp -- and the fault storm's
  cost -- is visible alongside the spans;
* the zero-duration marker spans that ``fault`` and ``retry`` log
  events leave (``fault.inject``, ``retry.wait``; see
  :data:`repro.observability.trace.MARKERS`) become instant events
  (``ph="i"``, thread-scoped) so injections and backoffs render as
  pins on the lane where they struck rather than invisible zero-width
  slices;
* a fleet run's :class:`~repro.observability.timeseries.FlightRecorder`
  series land in a synthetic **sim-clock** process
  (:data:`SIM_CLOCK_PID`): each retained sample becomes a counter
  event with ``ts = sim_hours * SIM_HOUR_US``, so pool occupancy,
  aging debt and recovery yield render as ramps on a simulated-time
  axis alongside (but clearly separated from) the wall-clock tracks.

The format reference is the Trace Event Format spec; only the
long-stable ``X``/``C``/``M``/``i`` phases are emitted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.observability import trace
from repro.observability.metrics import MetricsRegistry, get_registry

__all__ = [
    "INSTANT_SPANS",
    "SIM_CLOCK_PID",
    "SIM_HOUR_US",
    "THROUGHPUT_COUNTERS",
    "to_trace_events",
    "write_trace_events",
]

PathLike = Union[str, Path]

#: Synthetic process id hosting the sim-clock counter tracks (chosen
#: outside any plausible real pid range).
SIM_CLOCK_PID = 999_983

#: Trace microseconds per simulated hour: 1 sim-hour renders as 1 ms,
#: so a two-week horizon spans a comfortable ~0.34 s of trace time.
SIM_HOUR_US = 1000.0

#: Counters exported as Chrome counter tracks when present.
THROUGHPUT_COUNTERS = (
    "capture_words_total",
    "aging_segment_updates_total",
    "faults_injected_total",
    "retries_total",
)

#: Zero-duration marker spans rendered as instant events, not slices.
INSTANT_SPANS = frozenset(trace.MARKERS.values())


def _span_pid(sp: trace.Span, default_pid: int) -> int:
    pid = sp.attrs.get("worker_pid")
    return int(pid) if pid is not None else default_pid


def _jsonable_attrs(attrs: dict) -> dict:
    return {
        key: (value if isinstance(value, (int, float, str, bool))
              or value is None else repr(value))
        for key, value in attrs.items()
    }


def _sim_clock_events(sim_series) -> list[dict]:
    """Counter events for every retained flight-recorder sample.

    ``sim_series`` is a FlightRecorder or its ``to_dict()`` payload;
    samples land in the :data:`SIM_CLOCK_PID` process with timestamps
    on the simulated clock (``SIM_HOUR_US`` microseconds per
    sim-hour).
    """
    payload = (sim_series.to_dict()
               if hasattr(sim_series, "to_dict") else sim_series)
    events: list[dict] = []
    for name, series in sorted(payload.get("series", {}).items()):
        for t, value in series.get("points", []):
            events.append({
                "name": name,
                "ph": "C",
                "ts": t * SIM_HOUR_US,
                "pid": SIM_CLOCK_PID,
                "tid": 0,
                "args": {"value": value},
            })
    return events


def to_trace_events(
    spans: Optional[Sequence[trace.Span]] = None,
    registry: Optional[MetricsRegistry] = None,
    process_name: str = "repro",
    sim_series=None,
) -> dict:
    """The span forest as a Trace Event Format document (a dict).

    ``spans`` defaults to the collected forest, ``registry`` to the
    process-global metrics registry (pass ``None``-like empty registry
    to skip counter events).  Timestamps are microseconds relative to
    the earliest span start, so the trace opens at t=0.  With
    ``sim_series`` (a fleet run's
    :class:`~repro.observability.timeseries.FlightRecorder` or its
    ``to_dict()`` payload) the document gains the sim-clock track
    group.
    """
    forest = trace.roots() if spans is None else list(spans)
    registry = registry if registry is not None else get_registry()
    own_pid = os.getpid()

    starts = [root.start_unix() for root in forest]
    t0 = min(starts) if starts else 0.0

    events: list[dict] = []
    seen_pids: set[int] = set()
    next_tid: dict[int, int] = {}

    def allocate_tid(pid: int) -> int:
        tid = next_tid.get(pid, 1)
        next_tid[pid] = tid + 1
        return tid

    def emit(sp: trace.Span, pid: int, tid: int) -> None:
        if sp.name in INSTANT_SPANS:
            events.append({
                "name": sp.name,
                "ph": "i",
                "s": "t",
                "ts": round((sp.start_unix() - t0) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "cat": sp.name.split(".", 1)[0],
                "args": _jsonable_attrs(sp.attrs),
            })
            return
        events.append({
            "name": sp.name,
            "ph": "X",
            "ts": round((sp.start_unix() - t0) * 1e6, 3),
            "dur": round((sp.duration_s or 0.0) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "cat": sp.name.split(".", 1)[0],
            "args": _jsonable_attrs(sp.attrs),
        })
        for child in sp.children:
            child_pid = _span_pid(child, pid)
            # A merged worker subtree opens its own track in its
            # worker's process rather than riding the parent's lane.
            child_tid = tid if child_pid == pid else allocate_tid(child_pid)
            emit(child, child_pid, child_tid)

    for root in forest:
        pid = _span_pid(root, own_pid)
        seen_pids.add(pid)
        emit(root, pid, allocate_tid(pid))

    # Worker spans may sit below a parent root; their pids surface
    # through the recursive emit above, so collect them for metadata.
    for event in events:
        seen_pids.add(event["pid"])

    sim_events: list[dict] = []
    if sim_series is not None:
        sim_events = _sim_clock_events(sim_series)
        if sim_events:
            seen_pids.add(SIM_CLOCK_PID)

    metadata: list[dict] = []
    for pid in sorted(seen_pids):
        if pid == SIM_CLOCK_PID:
            label = f"{process_name} sim-clock (1 sim-hour = 1 ms)"
        elif pid == own_pid:
            label = process_name
        else:
            label = f"{process_name} worker {pid}"
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })

    counters: list[dict] = []
    if events:
        end_ts = max(event["ts"] + event.get("dur", 0.0) for event in events)
        for name in THROUGHPUT_COUNTERS:
            counter = registry.counters.get(name)
            if counter is None or counter.value == 0:
                continue
            for ts, value in ((0.0, 0.0), (end_ts, counter.value)):
                counters.append({
                    "name": name,
                    "ph": "C",
                    "ts": ts,
                    "pid": own_pid,
                    "tid": 0,
                    "args": {"value": value},
                })

    document = {
        "traceEvents": metadata + events + counters + sim_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.observability.timeline",
            "origin_unix": t0,
        },
    }
    if sim_events:
        document["otherData"]["sim_hour_us"] = SIM_HOUR_US
    return document


def write_trace_events(
    path: PathLike,
    spans: Optional[Sequence[trace.Span]] = None,
    registry: Optional[MetricsRegistry] = None,
    sim_series=None,
) -> Path:
    """Write the Trace Event JSON to ``path``; returns the path.

    Open the file in Perfetto or ``chrome://tracing`` to inspect the
    run's timeline.
    """
    target = Path(path)
    target.write_text(json.dumps(
        to_trace_events(spans, registry, sim_series=sim_series), indent=1
    ))
    return target
