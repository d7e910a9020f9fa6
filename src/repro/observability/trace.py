"""Context-manager spans: nested wall-clock timing of pipeline stages.

The attack pipeline is a tree of phases -- an experiment contains
protocol cycles, a cycle contains Condition and Measurement phases, a
Measurement phase contains one capture per route.  A :class:`Span`
records the wall-clock cost of one such stage (via
:func:`time.perf_counter`) and its children, so a finished run yields a
span *tree* mirroring the pipeline's structure.

Tracing is **off by default** and the disabled path is a deliberate
no-op fast path: :func:`span` returns a shared null context manager
without allocating anything, so instrumentation left in hot loops (one
span per capture, hundreds per experiment) costs a single predicate
check per call.  Enable with :func:`enable` (the CLI's ``--trace``
flag) or the ``REPRO_TRACE=1`` environment variable.

A *phase* (``experiment.burn``, ``montecarlo``, ``fleet.campaign``) is
a span opened with :func:`phase`, which also tells the installed
progress sink.  The log event kinds in :data:`MARKERS` leave a
zero-duration marker span (see
:meth:`repro.observability.log.StructuredLogger.event`).

Usage::

    from repro.observability import trace

    trace.enable()
    with trace.span("experiment", experiment="exp1"):
        with trace.phase("experiment.burn", hours=200):
            ...
    print(trace.render_tree())
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Optional

from repro.observability import progress

__all__ = [
    "MARKERS",
    "Span",
    "enable",
    "disable",
    "is_enabled",
    "span",
    "phase",
    "current_span",
    "roots",
    "clear",
    "attach",
    "dump_state",
    "merge_state",
    "tree_as_dicts",
    "render_tree",
]

# Spans time with perf_counter (monotonic, high resolution), but a
# cross-process timeline needs a shared clock.  This pair anchors the
# process's perf_counter domain to the Unix epoch once at import, so
# any span start can be mapped to wall-clock time without paying a
# time() syscall per span.
_ANCHOR_PERF: float = perf_counter()
_ANCHOR_UNIX: float = time.time()

#: Log event kinds that also leave a zero-duration marker span (an
#: instant in the Chrome trace): kind -> marker span name.
MARKERS = {"fault": "fault.inject", "retry": "retry.wait"}


@dataclass
class Span:
    """One timed pipeline stage and its nested children."""

    name: str
    attrs: dict = field(default_factory=dict)
    started_s: float = 0.0
    duration_s: Optional[float] = None
    children: list = field(default_factory=list)
    #: Explicit wall-clock start, only set on spans rebuilt from another
    #: process's dump (whose perf_counter domain is meaningless here).
    started_unix: Optional[float] = None

    def set(self, **attrs) -> None:
        """Attach (or update) attributes on a live span."""
        self.attrs.update(attrs)

    def start_unix(self) -> float:
        """Wall-clock start time (Unix epoch seconds).

        Locally recorded spans map their perf_counter start through the
        module's import-time anchor; spans merged from worker dumps
        carry the worker's wall-clock start directly.
        """
        if self.started_unix is not None:
            return self.started_unix
        return _ANCHOR_UNIX + (self.started_s - _ANCHOR_PERF)

    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.duration_s is not None

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        """Nesting depth of the subtree rooted here (a leaf is 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def to_dict(self) -> dict:
        """JSON-ready representation of the subtree."""
        payload = {
            "name": self.name,
            "duration_s": self.duration_s,
            "started_unix": self.start_unix(),
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output.

        The inverse of :meth:`to_dict` up to the perf_counter start
        (which is process-local and not serialised); the wall-clock
        start survives the round trip via ``started_unix``.
        """
        return cls(
            name=payload["name"],
            attrs=dict(payload.get("attrs", {})),
            duration_s=payload.get("duration_s"),
            children=[
                cls.from_dict(child)
                for child in payload.get("children", [])
            ],
            started_unix=payload.get("started_unix"),
        )


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that pushes/pops one real span on the tracer."""

    __slots__ = ("_span",)

    def __init__(self, sp: Span) -> None:
        self._span = sp

    def __enter__(self) -> Span:
        _stack.append(self._span)
        self._span.started_s = perf_counter()
        return self._span

    def __exit__(self, *exc_info) -> None:
        sp = self._span
        sp.duration_s = perf_counter() - sp.started_s
        popped = _stack.pop()
        if popped is not sp:  # pragma: no cover - indicates misuse
            _stack.append(popped)
        if _stack:
            _stack[-1].children.append(sp)
        else:
            _roots.append(sp)


_enabled: bool = os.environ.get("REPRO_TRACE", "") not in ("", "0", "off")
_stack: list[Span] = []
_roots: list[Span] = []


def enable() -> None:
    """Turn span collection on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn span collection off; already-collected spans are kept."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether spans are currently being collected."""
    return _enabled


def span(name: str, **attrs):
    """A context manager timing one pipeline stage.

    When tracing is disabled this returns a shared null object -- the
    no-op fast path -- so it is safe (and cheap) to leave in hot loops.
    """
    if not _enabled:
        return _NULL_SPAN
    return _ActiveSpan(Span(name=name, attrs=attrs))


def phase(name: str, **attrs):
    """A :func:`span` marking a stage transition; the installed progress
    sink receives ``name`` and ``attrs`` as the ``with`` opens it."""
    emitter = progress.get_emitter()
    if emitter is not None:
        emitter.phase(name, **attrs)
    return span(name, **attrs)


def current_span() -> Optional[Span]:
    """The innermost open span, or ``None`` outside any span."""
    return _stack[-1] if _stack else None


def roots() -> tuple[Span, ...]:
    """All finished top-level spans, oldest first."""
    return tuple(_roots)


def clear() -> None:
    """Drop every collected span (open and finished)."""
    _stack.clear()
    _roots.clear()


def attach(sp: Span) -> None:
    """Graft an already-finished span (tree) into the collected forest.

    The span becomes a child of the innermost open span, or a new root
    if no span is open -- the mechanism by which a parent process
    splices worker span trees into its own under the sweep span that
    spawned them.
    """
    if _stack:
        _stack[-1].children.append(sp)
    else:
        _roots.append(sp)


def dump_state() -> dict:
    """Serialisable dump of the finished span forest for shipping
    across a process boundary.

    The payload records the producing process id so the consumer can
    attribute the spans; fold it into another process's forest with
    :func:`merge_state`.
    """
    return {"pid": os.getpid(), "spans": tree_as_dicts()}


def merge_state(state: dict, **attrs) -> int:
    """Fold a :func:`dump_state` payload into this process's forest.

    Every merged root span is tagged with the dump's ``worker_pid``
    plus any extra ``attrs`` (shard index, seed, ...), and attached
    under the currently open span (see :func:`attach`).  Returns the
    number of root spans merged.
    """
    pid = state.get("pid")
    merged = 0
    for payload in state.get("spans", ()):
        sp = Span.from_dict(payload)
        if pid is not None:
            sp.attrs.setdefault("worker_pid", pid)
        sp.attrs.update(attrs)
        attach(sp)
        merged += 1
    return merged


def tree_as_dicts() -> list[dict]:
    """The finished span forest as JSON-ready dictionaries."""
    return [root.to_dict() for root in _roots]


def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "open"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def render_tree(
    spans: Optional[tuple] = None,
    max_children: int = 6,
) -> str:
    """ASCII rendering of the span forest.

    Sibling lists longer than ``max_children`` are elided (first
    ``max_children`` shown, then a ``... (+N more)`` marker) so a
    200-cycle experiment stays readable.
    """
    lines: list[str] = []

    def emit(sp: Span, indent: int) -> None:
        attrs = ""
        if sp.attrs:
            attrs = " " + " ".join(f"{k}={v}" for k, v in sp.attrs.items())
        lines.append(
            f"{'  ' * indent}{sp.name} [{_format_duration(sp.duration_s)}]"
            f"{attrs}"
        )
        shown = sp.children[:max_children]
        for child in shown:
            emit(child, indent + 1)
        hidden = len(sp.children) - len(shown)
        if hidden > 0:
            total = sum(c.duration_s or 0.0 for c in sp.children[max_children:])
            lines.append(
                f"{'  ' * (indent + 1)}... (+{hidden} more, "
                f"{_format_duration(total)})"
            )

    for root in (roots() if spans is None else spans):
        emit(root, 0)
    return "\n".join(lines)
