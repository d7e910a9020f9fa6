"""Structured logging: key=value or JSON event lines on stderr.

The pipeline's interesting moments (image loads, calibration outcomes,
DRC rejections) are emitted as *events with fields* rather than prose,
so multi-hundred-hour campaign logs stay greppable and
machine-parseable.

An operational event (a fault, a retry, a degraded route, a fleet
milestone) is one :meth:`StructuredLogger.event` call; the record also
reaches the progress sink and, for some kinds, the span forest.

Logging is **off by default**; the ``REPRO_LOG`` environment variable
switches it on:

* ``REPRO_LOG=kv`` (or ``1``) -- one ``key=value`` line per event;
* ``REPRO_LOG=json`` -- one JSON object per line;
* unset / ``0`` / ``off`` -- disabled (the no-op fast path: a single
  predicate check per call).

Usage::

    from repro.observability.log import get_logger

    log = get_logger("cloud.instance")
    log.info("image_loaded", design="measure", instance=7)
    log.event("retry", label="cloud.rent", attempt=1)
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional, TextIO

from repro.observability import progress, trace

__all__ = ["StructuredLogger", "get_logger", "configure", "mode"]

_VALID_MODES = ("kv", "json")


def _mode_from_env() -> Optional[str]:
    raw = os.environ.get("REPRO_LOG", "").strip().lower()
    if raw in ("", "0", "off", "false"):
        return None
    if raw in ("1", "true", "kv"):
        return "kv"
    if raw == "json":
        return "json"
    return "kv"  # any other truthy value: default to the readable form


_mode: Optional[str] = _mode_from_env()
_stream: TextIO = sys.stderr


def configure(
    mode: Optional[str] = None, stream: Optional[TextIO] = None
) -> None:
    """Override the environment switch (tests, embedding callers).

    ``mode`` is ``"kv"``, ``"json"`` or ``None`` (disabled).
    """
    global _mode, _stream
    if mode is not None and mode not in _VALID_MODES:
        raise ValueError(f"log mode must be one of {_VALID_MODES} or None")
    _mode = mode
    if stream is not None:
        _stream = stream


def mode() -> Optional[str]:
    """The active log mode (``None`` when disabled)."""
    return _mode


def _format_kv(value) -> str:
    text = str(value)
    if " " in text or "=" in text or '"' in text:
        return json.dumps(text)
    return text


class StructuredLogger:
    """A named emitter of structured events."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, event: str, **fields) -> None:
        """Emit one event (no-op unless ``REPRO_LOG`` enables a mode)."""
        if _mode is None:
            return
        record = {
            "ts": round(time.time(), 3),
            "level": level,
            "logger": self.name,
            "event": event,
            **fields,
        }
        if _mode == "json":
            line = json.dumps(record)
        else:
            line = " ".join(f"{k}={_format_kv(v)}" for k, v in record.items())
        print(line, file=_stream)

    def debug(self, event: str, **fields) -> None:
        """Emit at debug level."""
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        """Emit at info level."""
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        """Emit at warning level."""
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        """Emit at error level."""
        self.log("error", event, **fields)

    def event(self, kind: str, **fields) -> None:
        """Emit an operational event at info level, to the progress sink
        and, for kinds in ``trace.MARKERS``, as a marker span."""
        marker = trace.MARKERS.get(kind)
        if marker is not None:
            with trace.span(marker, **fields):
                pass
        emitter = progress.get_emitter()
        if emitter is not None:
            emitter.event(kind, **fields)
        self.log("info", kind, **fields)


_loggers: dict[str, StructuredLogger] = {}


def get_logger(name: str) -> StructuredLogger:
    """Get or create the logger ``name`` (cached; loggers are stateless)."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = StructuredLogger(name)
    return logger
