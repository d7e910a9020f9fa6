"""Live progress: the sinks a long run reports to while it runs.

A long sweep or fleet campaign reports four kinds of record:

* ``phase`` -- a stage transition, a span opened with
  :func:`repro.observability.trace.phase`;
* an operational event (a fault, a retry, a degraded route, a fleet
  milestone), a log record from
  :meth:`repro.observability.log.StructuredLogger.event`;
* ``seed_done`` -- one Monte Carlo seed finished or was replayed from a
  resume journal (:func:`note_seed_done`);
* ``sim_tick`` -- a fleet run's simulated clock advanced
  (:func:`note_sim_hours`).

Three sinks subscribe: :class:`TtyProgress` keeps one ``\\r``-rewritten
status line (completed/total, moving-average rate, ETA),
:class:`JsonlProgress` writes one JSON object per record
(``--progress jsonl``), both on stderr so stdout stays parseable, and
the run store's :class:`CollectingEmitter` keeps phase names and event
counts for the run row.  The CLI installs one sink (or a
:func:`compose` of two) around each command; with none installed each
producer call is a single ``None`` check.

Worker processes under ``--jobs N`` do not inherit the parent's sink;
per-seed completions are reported parent-side as results are
collected, while per-capture events from inside workers stay there.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import deque
from typing import Callable, Optional, TextIO

__all__ = [
    "ProgressEmitter",
    "TtyProgress",
    "JsonlProgress",
    "CollectingEmitter",
    "compose",
    "make_progress",
    "set_emitter",
    "get_emitter",
    "note_seed_done",
    "note_sim_hours",
]

#: Seed completions kept for the moving-average rate estimate.
RATE_WINDOW = 16

#: Minimum wall seconds between sim-tick renders (fleet clock advances
#: arrive per event; re-painting each one would swamp the terminal).
SIM_RENDER_INTERVAL_S = 0.1


class ProgressEmitter:
    """Base sink: a no-op for each of the four record kinds."""

    def phase(self, name: str, **fields) -> None:
        """A named stage transition."""

    def seed_done(self, seed: int, value: float, elapsed_s: float = 0.0,
                  shard: Optional[int] = None,
                  worker_pid: Optional[int] = None,
                  resumed: bool = False) -> None:
        """One seed's evaluation finished (or replayed from a journal)."""

    def event(self, kind: str, **fields) -> None:
        """An operational occurrence (fault, retry, degraded route)."""

    def sim_tick(self, sim_hours: float) -> None:
        """The simulated clock advanced (fleet runs measure work in
        sim-hours, not seeds; the phase's ``sim_total_hours`` field
        announces the horizon this progresses toward)."""

    def close(self) -> None:
        """Flush and release the output (end of run)."""


class _RateView(ProgressEmitter):
    """Completed/total and sim-hour windows shared by the two views.

    ``clock`` (default :attr:`CLOCK`) is injectable so tests can drive
    the rate/ETA arithmetic deterministically.
    """

    CLOCK = staticmethod(time.monotonic)

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        total: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock if clock is not None else self.CLOCK
        self.total = total
        self.completed = 0
        self._window: deque[float] = deque(maxlen=RATE_WINDOW)
        self.sim_hours: Optional[float] = None
        self.sim_total_hours: Optional[float] = None
        self._sim_window: deque[tuple[float, float]] = deque(
            maxlen=RATE_WINDOW
        )
        self._last_sim_show = -math.inf

    def _take_phase(self, fields: dict) -> None:
        if fields.get("total") is not None:
            self.total = int(fields["total"])
        if fields.get("sim_total_hours") is not None:
            self.sim_total_hours = float(fields["sim_total_hours"])

    def _take_seed(self) -> float:
        self.completed += 1
        now = self._clock()
        self._window.append(now)
        return now

    def _take_sim(self, sim_hours: float) -> Optional[float]:
        """Record a tick; the clock reading if it should be shown.

        Ticks arrive per clock advance, so they are shown at most every
        :data:`SIM_RENDER_INTERVAL_S` wall seconds, plus the one that
        reaches the horizon.
        """
        self.sim_hours = float(sim_hours)
        now = self._clock()
        self._sim_window.append((now, self.sim_hours))
        done = (self.sim_total_hours is not None
                and self.sim_hours >= self.sim_total_hours)
        if not done and now - self._last_sim_show < SIM_RENDER_INTERVAL_S:
            return None
        self._last_sim_show = now
        return now

    def rate_per_s(self) -> Optional[float]:
        """Moving-average completions per second (None until 2 ticks)."""
        if len(self._window) < 2:
            return None
        span = self._window[-1] - self._window[0]
        if span <= 0.0:
            return None
        return (len(self._window) - 1) / span

    def eta_s(self) -> Optional[float]:
        """Projected seconds to completion (None without rate/total)."""
        rate = self.rate_per_s()
        if rate is None or self.total is None:
            return None
        remaining = max(self.total - self.completed, 0)
        return remaining / rate

    def sim_rate_per_s(self) -> Optional[float]:
        """Moving-average simulated hours per wall second."""
        if len(self._sim_window) < 2:
            return None
        w0, s0 = self._sim_window[0]
        w1, s1 = self._sim_window[-1]
        if w1 <= w0:
            return None
        return (s1 - s0) / (w1 - w0)

    def sim_eta_s(self) -> Optional[float]:
        """Projected wall seconds until the sim horizon."""
        rate = self.sim_rate_per_s()
        if (rate is None or rate <= 0.0 or self.sim_hours is None
                or self.sim_total_hours is None):
            return None
        return max(self.sim_total_hours - self.sim_hours, 0.0) / rate


class TtyProgress(_RateView):
    """A single rewritten status line for humans at a terminal.

    Tracks completed seeds against the announced total (the ``total``
    field of the last ``phase``, or the constructor's), estimates the
    completion rate over a moving window of recent completions and
    projects an ETA from it.  Operational events tick per-kind tallies
    displayed at the end of the line.
    """

    def __init__(self, stream=None, total=None, clock=None) -> None:
        super().__init__(stream, total, clock)
        self.phase_name = ""
        self.last_value: Optional[float] = None
        self.tallies: dict[str, int] = {}
        self._dirty = False

    def phase(self, name: str, **fields) -> None:
        self.phase_name = name
        self._take_phase(fields)
        self._render()

    def sim_tick(self, sim_hours: float) -> None:
        if self._take_sim(sim_hours) is not None:
            self._render()

    def seed_done(self, seed, value, elapsed_s=0.0, shard=None,
                  worker_pid=None, resumed=False) -> None:
        self._take_seed()
        self.last_value = value
        if resumed:
            self.tallies["resumed"] = self.tallies.get("resumed", 0) + 1
        self._render()

    def event(self, kind: str, **fields) -> None:
        root = kind.split(".", 1)[0]
        self.tallies[root] = self.tallies.get(root, 0) + 1
        self._render()

    def render_line(self) -> str:
        """The current status line (without the carriage return)."""
        parts = []
        if self.phase_name:
            parts.append(f"[{self.phase_name}]")
        if self.total is not None:
            parts.append(f"{self.completed}/{self.total}")
        elif self.completed:
            parts.append(f"{self.completed} done")
        rate = self.rate_per_s()
        if rate is not None:
            parts.append(f"{rate:.2f}/s")
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"eta {_format_eta(eta)}")
        if self.sim_hours is not None:
            if self.sim_total_hours is not None:
                parts.append(
                    f"simh {self.sim_hours:.1f}/{self.sim_total_hours:.0f}"
                )
            else:
                parts.append(f"simh {self.sim_hours:.1f}")
            sim_rate = self.sim_rate_per_s()
            if sim_rate is not None:
                parts.append(f"{sim_rate:.1f} simh/s")
            sim_eta = self.sim_eta_s()
            if sim_eta is not None:
                parts.append(f"sim-eta {_format_eta(sim_eta)}")
        if self.last_value is not None:
            parts.append(f"last {self.last_value:.3f}")
        for kind, count in sorted(self.tallies.items()):
            parts.append(f"{kind}={count}")
        return "  ".join(parts)

    def _render(self) -> None:
        line = self.render_line()
        # Pad over the previous line's tail before \r-rewriting it.
        self._stream.write("\r" + line.ljust(79)[:200])
        self._stream.flush()
        self._dirty = True

    def close(self) -> None:
        if self._dirty:
            self._stream.write("\n")
            self._stream.flush()
            self._dirty = False


def _format_eta(seconds: float) -> str:
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.1f}h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds:.0f}s"


class JsonlProgress(_RateView):
    """One JSON object per record -- the machine-readable stream.

    Every line carries ``event`` (``phase`` / ``seed_done`` /
    ``sim_tick`` / the operational kind) and ``t`` (unix seconds);
    ``seed_done`` and ``sim_tick`` lines add the moving-average rate
    and ETA so a consumer needs no windowing of its own.
    """

    CLOCK = staticmethod(time.time)

    def _write(self, payload: dict) -> None:
        self._stream.write(json.dumps(payload) + "\n")
        self._stream.flush()

    def phase(self, name: str, **fields) -> None:
        self._take_phase(fields)
        self._write({"event": "phase", "t": self._clock(), "name": name,
                     **fields})

    def sim_tick(self, sim_hours: float) -> None:
        now = self._take_sim(sim_hours)
        if now is None:
            return
        self._write({
            "event": "sim_tick", "t": now,
            "sim_hours": self.sim_hours,
            "sim_total_hours": self.sim_total_hours,
            "sim_rate_per_s": self.sim_rate_per_s(),
            "sim_eta_s": self.sim_eta_s(),
        })

    def seed_done(self, seed, value, elapsed_s=0.0, shard=None,
                  worker_pid=None, resumed=False) -> None:
        now = self._take_seed()
        self._write({
            "event": "seed_done", "t": now, "seed": int(seed),
            "value": value, "elapsed_s": round(float(elapsed_s), 6),
            "shard": shard, "worker_pid": worker_pid,
            "resumed": bool(resumed), "completed": self.completed,
            "total": self.total, "rate_per_s": self.rate_per_s(),
            "eta_s": self.eta_s(),
        })

    def event(self, kind: str, **fields) -> None:
        self._write({"event": kind, "t": self._clock(), **fields})


class CollectingEmitter(ProgressEmitter):
    """Accumulate the stream in memory (the run store's recording sink).

    ``seed_rows`` holds one dict per *distinct* seed -- a seed replayed
    from a resume journal and then (wrongly) re-run would overwrite,
    not duplicate, so the run store records exactly one row per seed.
    """

    def __init__(self) -> None:
        self.phases: list[dict] = []
        self._seed_rows: dict[int, dict] = {}
        self.event_counts: dict[str, int] = {}
        self.sim_hours: Optional[float] = None
        self.sim_ticks = 0

    def phase(self, name: str, **fields) -> None:
        self.phases.append({"name": name, **fields})

    def seed_done(self, seed, value, elapsed_s=0.0, shard=None,
                  worker_pid=None, resumed=False) -> None:
        self._seed_rows[int(seed)] = {
            "seed": int(seed),
            "value": float(value),
            "elapsed_s": float(elapsed_s),
            "shard": shard,
            "worker_pid": worker_pid,
            "resumed": bool(resumed),
        }

    def event(self, kind: str, **fields) -> None:
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1

    def sim_tick(self, sim_hours: float) -> None:
        self.sim_hours = float(sim_hours)
        self.sim_ticks += 1

    @property
    def seed_rows(self) -> list[dict]:
        """Per-seed rows in seed order."""
        return [self._seed_rows[s] for s in sorted(self._seed_rows)]


class _Compound(ProgressEmitter):
    def __init__(self, emitters) -> None:
        self.emitters = tuple(emitters)

    def phase(self, name: str, **fields) -> None:
        for emitter in self.emitters:
            emitter.phase(name, **fields)

    def seed_done(self, *args, **kwargs) -> None:
        for emitter in self.emitters:
            emitter.seed_done(*args, **kwargs)

    def event(self, kind: str, **fields) -> None:
        for emitter in self.emitters:
            emitter.event(kind, **fields)

    def sim_tick(self, sim_hours: float) -> None:
        for emitter in self.emitters:
            emitter.sim_tick(sim_hours)

    def close(self) -> None:
        for emitter in self.emitters:
            emitter.close()


def compose(*emitters: Optional[ProgressEmitter]) -> Optional[ProgressEmitter]:
    """Fan one stream out to several sinks (``None`` entries dropped)."""
    live = [e for e in emitters if e is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]
    return _Compound(live)


def make_progress(
    mode: Optional[str], stream: Optional[TextIO] = None
) -> Optional[ProgressEmitter]:
    """Build the emitter a ``--progress MODE`` flag asked for.

    ``"tty"`` forces the terminal view, ``"jsonl"`` the machine
    stream, ``"off"``/``None`` nothing, and ``"auto"`` (the CLI
    default) picks the terminal view only when stderr actually is a
    terminal -- so piped and CI runs stay byte-stable.
    """
    if mode in (None, "off", False):
        return None
    if mode == "jsonl":
        return JsonlProgress(stream=stream)
    if mode == "tty":
        return TtyProgress(stream=stream)
    if mode == "auto":
        target = stream if stream is not None else sys.stderr
        if getattr(target, "isatty", lambda: False)():
            return TtyProgress(stream=target)
        return None
    from repro.errors import ConfigurationError

    raise ConfigurationError(
        f"unknown progress mode {mode!r}; choose auto, tty, jsonl or off"
    )


#: The process-global emitter every producer call checks.
_EMITTER: Optional[ProgressEmitter] = None


def set_emitter(emitter: Optional[ProgressEmitter]) -> Optional[ProgressEmitter]:
    """Install (or clear, with ``None``) the global emitter."""
    global _EMITTER
    previous = _EMITTER
    _EMITTER = emitter
    return previous


def get_emitter() -> Optional[ProgressEmitter]:
    """The installed emitter, or ``None``."""
    return _EMITTER


def note_seed_done(seed: int, value: float, elapsed_s: float = 0.0,
                   shard: Optional[int] = None,
                   worker_pid: Optional[int] = None,
                   resumed: bool = False) -> None:
    """Producer hook: one seed finished (no-op without an emitter)."""
    if _EMITTER is None:
        return
    _EMITTER.seed_done(seed, value, elapsed_s=elapsed_s, shard=shard,
                       worker_pid=worker_pid, resumed=resumed)


def note_sim_hours(sim_hours: float) -> None:
    """Producer hook: the simulated clock moved (no-op without an
    emitter).  Fleet event loops call this once per clock advance."""
    if _EMITTER is None:
        return
    _EMITTER.sim_tick(sim_hours)
