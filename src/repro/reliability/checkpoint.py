"""Checkpoint/resume journal for multi-seed sweeps.

Every sweep -- ``repro sweep``, ``repro chaos sweep`` and ``repro fleet
--seeds`` -- runs through the one seed loop,
:func:`repro.montecarlo.run_monte_carlo`, and journals here.  A
:class:`SweepJournal` records one entry per *completed* seed of a
sweep -- the metric value, the metric's payload if it returned one
(in ``extra``; a fleet sweep stores each seed's campaign result and
FlightRecorder dump there), and the observability state
(:meth:`~repro.observability.metrics.MetricsRegistry.dump_state`, and
for parallel runs the worker's span forest) captured for exactly that
seed.  Every :meth:`record` rewrites the whole journal atomically
(write-temp-then-``os.replace`` via
:func:`repro.persistence.atomic_write_text`), so a crash or Ctrl-C mid
sweep leaves at worst the previous consistent journal, never a
truncated one.

On resume, :func:`repro.montecarlo.run_monte_carlo` skips every seed
the journal already holds, returns its value and payload, and merges
the recorded metric/span state back in; because the recorded states carry their original ``dump_id``s,
merging is idempotent and the resumed run's final telemetry matches an
uninterrupted run bit-for-bit (timing histograms aside -- those measure
the host, not the experiment).

The journal carries a ``context`` dict (metric name, seed list, quick
flag ...); resuming under a different context raises
:class:`~repro.errors.PersistenceError` rather than silently mixing two
sweeps' results in one file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.errors import PersistenceError
from repro.observability.log import get_logger
from repro.persistence import atomic_write_text

__all__ = ["SweepJournal"]

_log = get_logger("reliability.checkpoint")

PathLike = Union[str, Path]

#: Journal file schema marker.
JOURNAL_SCHEMA = 1


class SweepJournal:
    """Per-seed completion journal with atomic writes.

    Args:
        path: journal file location (created on first :meth:`record`).
        context: sweep identity -- compared on resume to refuse mixing
            incompatible sweeps into one journal.
    """

    def __init__(self, path: PathLike,
                 context: Optional[dict] = None) -> None:
        self.path = Path(path)
        self.context: dict = dict(context or {})
        self._entries: dict[int, dict] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def load(cls, path: PathLike,
             context: Optional[dict] = None) -> "SweepJournal":
        """Read a journal back; verify ``context`` if given.

        A missing file yields an empty journal (first run); corrupt or
        truncated JSON raises :class:`PersistenceError` naming the
        file, as does a context mismatch.
        """
        source = Path(path)
        journal = cls(source, context=context)
        if not source.exists():
            return journal
        try:
            payload = json.loads(source.read_text())
        except json.JSONDecodeError as exc:
            raise PersistenceError(
                f"sweep journal {source} is corrupt or truncated: {exc}"
            ) from exc
        if not isinstance(payload, dict) or "entries" not in payload:
            raise PersistenceError(
                f"{source} is not a sweep journal"
            )
        if payload.get("schema") != JOURNAL_SCHEMA:
            raise PersistenceError(
                f"sweep journal {source} has schema "
                f"{payload.get('schema')!r}; this build reads "
                f"{JOURNAL_SCHEMA}"
            )
        stored = payload.get("context", {})
        if context is not None and stored != dict(context):
            raise PersistenceError(
                f"sweep journal {source} was written for a different "
                f"sweep (journal context {stored!r}, requested "
                f"{dict(context)!r}); refusing to mix results"
            )
        journal.context = dict(stored)
        try:
            for entry in payload["entries"]:
                journal._entries[int(entry["seed"])] = entry
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"sweep journal {source} is missing required data: "
                f"{exc!r}"
            ) from exc
        _log.info("journal_loaded", path=str(source),
                  seeds=len(journal._entries))
        return journal

    # -- queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, seed: int) -> bool:
        return int(seed) in self._entries

    def completed_seeds(self) -> list[int]:
        """Seeds already journaled, ascending."""
        return sorted(self._entries)

    def get(self, seed: int) -> dict:
        """The journal entry for ``seed`` (KeyError if absent)."""
        return self._entries[int(seed)]

    def value(self, seed: int) -> float:
        """The recorded metric value for ``seed``."""
        return float(self._entries[int(seed)]["value"])

    # -- recording ----------------------------------------------------

    def record(self, seed: int, value: float,
               metrics_state: Optional[dict] = None,
               trace_state: Optional[dict] = None,
               extra: Optional[dict] = None) -> None:
        """Journal one completed seed and flush atomically.

        ``metrics_state``/``trace_state`` are the observability dumps
        for exactly this seed's work; they are replayed on resume so a
        resumed sweep's telemetry matches an uninterrupted one.
        ``extra`` is the metric's JSON-ready payload, handed back
        verbatim on resume -- the fleet sweep stores each seed's full
        campaign result and FlightRecorder dump there, which is what
        makes a killed ``repro fleet`` run resume bit-identically.
        """
        entry: dict = {"seed": int(seed), "value": float(value)}
        if metrics_state is not None:
            entry["metrics_state"] = metrics_state
        if trace_state is not None:
            entry["trace_state"] = trace_state
        if extra is not None:
            entry["extra"] = extra
        self._entries[int(seed)] = entry
        self._flush()

    def _flush(self) -> None:
        payload = {
            "schema": JOURNAL_SCHEMA,
            "context": self.context,
            "entries": [
                self._entries[seed] for seed in sorted(self._entries)
            ],
        }
        atomic_write_text(self.path, json.dumps(payload))
