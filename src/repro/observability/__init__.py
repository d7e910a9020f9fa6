"""Observability: structured logging, tracing, metrics, run manifests.

The measurement layer under every other subsystem:

* :mod:`repro.observability.log` -- structured key=value / JSON event
  logging, switched by the ``REPRO_LOG`` environment variable;
* :mod:`repro.observability.trace` -- context-manager spans with nested
  wall-clock timing (``REPRO_TRACE=1`` or the CLI's ``--trace``);
* :mod:`repro.observability.metrics` -- a process-global registry of
  counters, gauges and percentile-summarised histograms;
* :mod:`repro.observability.manifest` -- self-describing run manifests
  (version, seed, config, span tree, metrics snapshot) embedded in
  every archived experiment;
* :mod:`repro.observability.export` -- JSON and Prometheus-text
  exporters over the registry and span tree;
* :mod:`repro.observability.profile` -- wall-time attribution: roll a
  span forest up into a per-stage self-vs-children table (``repro
  profile``);
* :mod:`repro.observability.timeline` -- Chrome Trace Event Format
  export for Perfetto / ``chrome://tracing``;
* :mod:`repro.observability.timeseries` -- sim-clock-keyed time series
  and the fleet flight recorder (``repro fleet ... --series``):
  bounded-reservoir gauges/rates sampled on the simulated clock,
  bit-identical between the bulk churn engine and its per-event
  oracle;
* :mod:`repro.observability.benchdiff` -- benchmark-suite diffing and
  the CI regression gate (``repro bench diff``);
* :mod:`repro.observability.progress` -- live progress telemetry: a
  structured event stream (phase / seed_done / operational events)
  rendered as a TTY status line or JSONL (``--progress``);
* :mod:`repro.observability.runstore` -- the durable sqlite run
  database every CLI invocation records into (``repro runs ...``);
* :mod:`repro.observability.analytics` -- cross-run statistics:
  bootstrap/rank-test comparisons and trend series over the run store;
* :mod:`repro.observability.history` -- the self-contained HTML
  history report (``repro report --history``).

Conventions (see ``docs/observability.md``): span names are
``layer.stage`` (``experiment``, ``phase.measurement``,
``sensor.capture``); counters end in ``_total``; histograms name their
unit (``capture_latency_seconds``, ``readout_skew_ps``).

Importing the package loads only what every run uses: log, trace,
metrics, manifest and progress.  The exporters, the run store and its
analytics load when a caller imports them by name, so a library import
never pays for sqlite, HTML rendering or benchmark diffing.
"""

from __future__ import annotations

from repro.observability import progress, trace
from repro.observability.log import StructuredLogger, get_logger
from repro.observability.manifest import (
    RunManifest,
    build_manifest,
    diff_manifests,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    registry,
)
from repro.observability.trace import Span, render_tree, span

__all__ = [
    "trace",
    "progress",
    "span",
    "Span",
    "render_tree",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "get_registry",
    "StructuredLogger",
    "get_logger",
    "RunManifest",
    "build_manifest",
    "diff_manifests",
]
