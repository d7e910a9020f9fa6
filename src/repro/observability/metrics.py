"""A process-global metrics registry: counters, gauges, histograms.

Mirrors the shape of a Prometheus client in a dependency-free way.
Instruments are created lazily and get-or-create by name, so call sites
simply do::

    from repro.observability.metrics import registry

    registry.counter("captures_total").inc()
    registry.histogram("capture_latency_seconds").observe(dt)

Recording is always on (an increment is nanoseconds; there is nothing
to gate), while the heavier span tracing lives in
:mod:`repro.observability.trace` behind an explicit switch.  Histograms
keep a bounded reservoir of recent observations for percentile
summaries, so memory stays O(1) over multi-hundred-hour campaigns.

Tests reset state between cases via :meth:`MetricsRegistry.reset`
(wired as an autouse fixture in ``tests/conftest.py``).
"""

from __future__ import annotations

import math
import uuid
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "get_registry",
]

#: Observations kept per histogram for percentile estimation.  Old
#: observations are dropped FIFO once the reservoir fills; count/sum/
#: min/max remain exact over the full stream.
HISTOGRAM_RESERVOIR_SIZE = 4096


@dataclass
class Counter:
    """A monotonically increasing count of events."""

    name: str
    help: str = ""
    value: float = 0.0
    #: ``inc`` calls, as opposed to units counted: a batch kernel that
    #: counts 160 words per call performs one increment.  The overhead
    #: bench prices instrumentation by call, not by unit.
    increments: int = 0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0.0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount
        self.increments += 1


@dataclass
class Gauge:
    """A value that can go up and down (last write wins)."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level by ``amount`` (may be negative)."""
        self.value += amount


@dataclass
class Histogram:
    """A distribution of observations with percentile summaries."""

    name: str
    help: str = ""
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    _reservoir: list = field(default_factory=list)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        reservoir = self._reservoir
        reservoir.append(value)
        if len(reservoir) > HISTOGRAM_RESERVOIR_SIZE:
            del reservoir[0]

    @property
    def mean(self) -> float:
        """Mean over the full observation stream."""
        return self.total / self.count if self.count else 0.0

    def merge_raw(self, state: dict) -> None:
        """Fold another histogram's raw dump into this one.

        count/sum/min/max merge exactly; the reservoirs concatenate and
        re-trim FIFO, matching what interleaved ``observe`` calls would
        have retained up to reservoir churn.
        """
        self.count += int(state["count"])
        self.total += float(state["total"])
        for value in (state["min"], state["max"]):
            if value is None:
                continue
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        self._reservoir.extend(state["reservoir"])
        if len(self._reservoir) > HISTOGRAM_RESERVOIR_SIZE:
            del self._reservoir[: len(self._reservoir)
                                - HISTOGRAM_RESERVOIR_SIZE]

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained reservoir."""
        if not 0.0 <= p <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)
        return ordered[min(rank, len(ordered) - 1)]

    def summary(self) -> dict:
        """count/sum/min/max/mean plus p50/p95/p99 -- the export shape."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Name-keyed store of instruments, get-or-create semantics."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._merged_dump_ids: set[str] = set()

    def _check_name_free(self, name: str, kind: dict) -> None:
        for family, instruments in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if instruments is not kind and name in instruments:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {family}"
                )

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_name_free(name, self._counters)
            instrument = self._counters[name] = Counter(name=name, help=help)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_name_free(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name=name, help=help)
        return instrument

    def histogram(self, name: str, help: str = "") -> Histogram:
        """Get or create the histogram ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_name_free(name, self._histograms)
            instrument = self._histograms[name] = Histogram(
                name=name, help=help
            )
        return instrument

    @property
    def counters(self) -> dict[str, Counter]:
        """Registered counters by name (live view)."""
        return self._counters

    @property
    def gauges(self) -> dict[str, Gauge]:
        """Registered gauges by name (live view)."""
        return self._gauges

    @property
    def histograms(self) -> dict[str, Histogram]:
        """Registered histograms by name (live view)."""
        return self._histograms

    def names(self) -> tuple[str, ...]:
        """Every registered metric name, sorted."""
        return tuple(
            sorted([*self._counters, *self._gauges, *self._histograms])
        )

    def snapshot(self) -> dict:
        """JSON-ready dump: counters/gauges as values, histograms as
        summaries."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def dump_state(self) -> dict:
        """Raw, lossless dump for cross-process merging.

        Unlike :meth:`snapshot` (which summarises histograms for
        export), this keeps the reservoirs so a parent process can fold
        a worker's instruments into its own registry with
        :meth:`merge_state` -- the mechanism the parallel Monte Carlo
        sweep uses to report per-seed metrics from its worker processes.

        Each dump carries a unique ``dump_id``; :meth:`merge_state`
        refuses to fold the same dump twice, so retry paths cannot
        double-count a shard.
        """
        return {
            "dump_id": uuid.uuid4().hex,
            "counters": {
                n: {"help": c.help, "value": c.value,
                    "increments": c.increments}
                for n, c in self._counters.items()
            },
            "gauges": {
                n: {"help": g.help, "value": g.value}
                for n, g in self._gauges.items()
            },
            "histograms": {
                n: {
                    "help": h.help,
                    "count": h.count,
                    "total": h.total,
                    "min": h.minimum,
                    "max": h.maximum,
                    "reservoir": list(h._reservoir),
                }
                for n, h in self._histograms.items()
            },
        }

    def merge_state(self, state: dict) -> bool:
        """Fold a :meth:`dump_state` payload into this registry.

        Counters add (both value and increment count), gauges take the
        incoming level (last write wins), histograms merge exactly on
        count/sum/min/max.  A dump already merged into this registry
        (same ``dump_id``) is skipped -- the idempotence guard for
        retry/replay paths -- and ``False`` is returned; ``True`` means
        the dump was applied.
        """
        dump_id = state.get("dump_id")
        if dump_id is not None and dump_id in self._merged_dump_ids:
            return False
        for name, payload in state.get("counters", {}).items():
            counter = self.counter(name, payload.get("help", ""))
            amount = payload["value"]
            if amount < 0.0:
                raise ConfigurationError(
                    f"counter {name!r} cannot decrease (merge {amount})"
                )
            counter.value += amount
            counter.increments += int(payload.get("increments", 0))
        for name, payload in state.get("gauges", {}).items():
            self.gauge(name, payload.get("help", "")).set(payload["value"])
        for name, payload in state.get("histograms", {}).items():
            self.histogram(name, payload.get("help", "")).merge_raw(payload)
        if dump_id is not None:
            self._merged_dump_ids.add(dump_id)
        return True

    def clear_instruments(self) -> None:
        """Drop every instrument but remember the dumps merged so far.

        For isolating a piece of work whose state is merged back on top
        of the parent's: the parent's dumps are still folded in once
        that happens, so re-merging one of them must stay a no-op.
        """
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def reset(self) -> None:
        """Drop every instrument and forget every merged dump (tests
        run with a clean registry)."""
        self.clear_instruments()
        self._merged_dump_ids.clear()


#: The process-global registry every instrumented module records into.
registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (function form for patching/tests)."""
    return registry
