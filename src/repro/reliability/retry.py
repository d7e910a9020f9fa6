"""Retry with exponential backoff, deterministic jitter, simulated sleep.

The pipeline's transient failures (capacity misses, preemption notices,
dropped captures -- anything carrying the
:class:`~repro.errors.TransientError` mixin) are retried under a
:class:`RetryPolicy`: exponential backoff from ``base_delay_s`` with
bounded deterministic jitter, capped per-wait at ``max_delay_s`` and in
total at ``max_total_delay_s``, giving up after ``max_attempts``
attempts.

Two deliberate departures from a wall-clock retry loop keep the
simulation fast and reproducible:

* **Simulated sleep.** The backoff delay is *recorded*, never slept:
  it lands in the ``retry_wait_simulated_seconds_total`` counter and on
  the ``retry.wait`` span (``simulated_delay_s``), so profiles and
  chaos reports price the waiting without the process actually idling.
* **Deterministic jitter.** The jitter factor hashes the retry label
  and attempt index (FNV-1a, process-stable) instead of drawing from an
  RNG, so retries neither consume experiment randomness nor vary
  between runs.

Fatal errors (anything not transient) propagate immediately; a
transient error that survives every attempt is re-raised unchanged, so
callers degrade per-route instead of seeing a new exception type.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

from repro.errors import ConfigurationError, TransientError
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.rng import _stable_hash

__all__ = [
    "RetryPolicy",
    "retry_call",
    "get_retry_policy",
    "set_retry_policy",
    "retry_policy",
    "note_retry",
]

_log = get_logger("reliability.retry")

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff knobs for retrying transient errors.

    Attributes:
        max_attempts: total tries, including the first (>= 1).
        base_delay_s: simulated wait before the first retry.
        multiplier: backoff growth factor per further retry.
        max_delay_s: per-wait ceiling.
        jitter: fractional jitter amplitude (0.1 = +/-10%), applied
            deterministically from the retry label and attempt index.
        max_total_delay_s: give up once accumulated simulated waiting
            would exceed this budget.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 8.0
    jitter: float = 0.1
    max_total_delay_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0.0 or self.max_delay_s < 0.0:
            raise ConfigurationError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.max_total_delay_s < 0.0:
            raise ConfigurationError("max_total_delay_s must be >= 0")

    def delay_s(self, attempt: int, label: str = "") -> float:
        """Simulated backoff before retry number ``attempt`` (1-based).

        Deterministic: the jitter factor derives from a stable hash of
        ``(label, attempt)``, so the same retry sequence always waits
        the same simulated amounts.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter:
            unit = (_stable_hash(f"{label}#{attempt}") % 10_000) / 10_000.0
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return delay


#: The process-wide default policy (the CLI/chaos knob).
_default_policy = RetryPolicy()


def get_retry_policy() -> RetryPolicy:
    """The process-wide default retry policy."""
    return _default_policy


def set_retry_policy(policy: RetryPolicy) -> RetryPolicy:
    """Replace the process-wide default policy; returns the previous."""
    global _default_policy
    if not isinstance(policy, RetryPolicy):
        raise ConfigurationError(
            f"expected a RetryPolicy, got {type(policy).__name__}"
        )
    previous = _default_policy
    _default_policy = policy
    return previous


@contextmanager
def retry_policy(policy: RetryPolicy) -> Iterator[RetryPolicy]:
    """Temporarily install a default retry policy."""
    previous = set_retry_policy(policy)
    try:
        yield policy
    finally:
        set_retry_policy(previous)


def note_retry(label: str, attempt: int, delay_s: float,
               error: BaseException, unit: str = "s") -> None:
    """Record one retry: counters and one ``retry`` event.

    Shared by :func:`retry_call` and the few loops (flash-attack
    acquisition, fleet outage RENT requeues) that implement their own
    retry shape but should show up in the same telemetry.

    ``unit`` prices the simulated wait: ``"s"`` (wall-style seconds,
    the default) accumulates into
    ``retry_wait_simulated_seconds_total``; ``"h"`` marks a delay
    denominated in *simulated fleet hours* and lands in
    ``retry_wait_simulated_hours_total`` instead, so event-driven
    campaigns don't pollute the seconds counter with hour-scale waits.
    """
    if unit not in ("s", "h"):
        raise ConfigurationError(
            f"retry unit must be 's' or 'h', got {unit!r}"
        )
    registry.counter(
        "retries_total", "transient-error retries performed"
    ).inc()
    if unit == "h":
        registry.counter(
            "retry_wait_simulated_hours_total",
            "simulated backoff hours accumulated by fleet retries",
        ).inc(delay_s)
        delay_attr = {"simulated_delay_h": round(delay_s, 6)}
    else:
        registry.counter(
            "retry_wait_simulated_seconds_total",
            "simulated backoff seconds accumulated by retries",
        ).inc(delay_s)
        delay_attr = {"simulated_delay_s": round(delay_s, 6)}
    # Simulated: the wait is recorded (a ``retry.wait`` marker), never
    # slept.
    _log.event("retry", label=label, attempt=attempt,
               error=type(error).__name__, **delay_attr)


def retry_call(
    fn: Callable[..., T],
    *args,
    policy: Optional[RetryPolicy] = None,
    label: Optional[str] = None,
    **kwargs,
) -> T:
    """Call ``fn(*args, **kwargs)``, retrying transient failures.

    Only errors carrying the :class:`~repro.errors.TransientError`
    mixin are retried; anything else propagates immediately.  When the
    attempt or total-delay budget runs out, the *original* transient
    error is re-raised so callers can degrade per-route.
    """
    policy = policy or _default_policy
    label = label or getattr(fn, "__name__", "call")
    total_delay = 0.0
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn(*args, **kwargs)
        except TransientError as exc:
            if attempt >= policy.max_attempts:
                _log.warning("retries_exhausted", label=label,
                             attempts=attempt,
                             error=type(exc).__name__)
                raise
            delay = policy.delay_s(attempt, label)
            if total_delay + delay > policy.max_total_delay_s:
                _log.warning("retry_budget_exhausted", label=label,
                             attempts=attempt,
                             simulated_delay_s=round(total_delay, 4))
                raise
            total_delay += delay
            note_retry(label, attempt, delay, exc)
    raise AssertionError("unreachable")  # pragma: no cover
