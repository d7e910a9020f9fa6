"""Seeded, deterministic fault injection.

A :class:`FaultPlan` decides -- reproducibly -- when a *fault site*
fires.  Sites are string names wired into the pipeline's choke points
(``cloud.allocate``, ``cloud.preempt``, ``cloud.evict``,
``sensor.calibrate``, ``sensor.capture``); each site's decisions come
from its own named RNG stream (:class:`~repro.rng.RngFactory`), so the
injection layer never perturbs the experiment's own draws and two runs
under the same plan inject the identical fault sequence.

A site fires either *probabilistically* (each visit draws one uniform
against ``probability``) or on a *schedule* (fire on the listed visit
indices, zero-based); ``max_fires`` caps the total either way.

The hot-path contract mirrors :mod:`repro.observability.trace`: with no
plan installed, :func:`maybe_inject` is a single ``None`` check -- the
PR 2/3 kernels pay one predicate per call site and nothing else.

Usage::

    plan = FaultPlan(seed=7, specs={
        "cloud.allocate": FaultSpec(probability=0.15),
        "cloud.preempt": FaultSpec(schedule=(1, 4)),
    })
    with fault_plan(plan):
        run_experiment2(config)
    assert plan.fires["cloud.allocate"] >= 1
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Type, Union

from repro.errors import ConfigurationError, PersistenceError
from repro.observability import progress as _progress
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.rng import RngFactory

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "maybe_inject",
    "get_fault_plan",
    "set_fault_plan",
    "fault_plan",
    "load_fault_plan",
]

_log = get_logger("reliability.faults")

PathLike = Union[str, Path]

#: The fault sites wired into the pipeline, with what firing raises.
FAULT_SITES = (
    "cloud.allocate",   # Region.allocate        -> CapacityError
    "cloud.preempt",    # F1Instance.run_hours   -> PreemptionError
    "cloud.evict",      # F1Instance.load_image  -> EvictionError
    "sensor.calibrate",  # check_glitch          -> CalibrationGlitchError
    "sensor.capture",   # measure_draws          -> CaptureDropError
)


@dataclass(frozen=True)
class FaultSpec:
    """How one fault site fires.

    Exactly one of ``probability`` (per-visit Bernoulli) or
    ``schedule`` (zero-based visit indices) must be given;
    ``max_fires`` bounds the total number of injections at the site.
    """

    probability: Optional[float] = None
    schedule: tuple = ()
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.probability is None) == (not self.schedule):
            raise ConfigurationError(
                "a FaultSpec needs exactly one of probability or schedule"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if any(int(i) < 0 for i in self.schedule):
            raise ConfigurationError("schedule indices must be >= 0")
        if self.max_fires is not None and self.max_fires < 0:
            raise ConfigurationError(
                f"max_fires must be >= 0, got {self.max_fires}"
            )

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        payload: dict = {}
        if self.probability is not None:
            payload["probability"] = self.probability
        if self.schedule:
            payload["schedule"] = [int(i) for i in self.schedule]
        if self.max_fires is not None:
            payload["max_fires"] = self.max_fires
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Non-object payloads and unknown keys raise
        :class:`~repro.errors.ConfigurationError` naming the problem.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault spec must be an object, got {payload!r}"
            )
        known = {"probability", "schedule", "max_fires"}
        for key in payload:
            if key not in known:
                raise ConfigurationError(
                    f"fault spec has unknown key {key!r}"
                )
        return cls(
            probability=payload.get("probability"),
            schedule=tuple(payload.get("schedule", ())),
            max_fires=payload.get("max_fires"),
        )


class FaultPlan:
    """A seeded set of per-site fault specs plus their firing state.

    The plan owns one named RNG stream per probabilistic site (derived
    from ``seed`` via :class:`~repro.rng.RngFactory`), and counts both
    visits and fires per site -- ``plan.fires`` after a run is the
    injection ledger a chaos report prints.
    """

    def __init__(self, seed: int = 0,
                 specs: Optional[dict] = None) -> None:
        self.seed = int(seed)
        self.specs: dict[str, FaultSpec] = dict(specs or {})
        for site, spec in self.specs.items():
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"site {site!r}: specs must be FaultSpec instances"
                )
        self._rng = RngFactory(self.seed)
        self.visits: dict[str, int] = {}
        self.fires: dict[str, int] = {}

    @property
    def total_fires(self) -> int:
        """Faults injected so far across every site."""
        return sum(self.fires.values())

    def should_fire(self, site: str) -> bool:
        """One visit of ``site``: decide (and record) whether it fires."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        visit = self.visits.get(site, 0)
        self.visits[site] = visit + 1
        fired = self.fires.get(site, 0)
        if spec.max_fires is not None and fired >= spec.max_fires:
            return False
        if spec.probability is not None:
            fire = bool(
                self._rng.stream(site).random() < spec.probability
            )
        else:
            fire = visit in spec.schedule
        if fire:
            self.fires[site] = fired + 1
        return fire

    def to_dict(self) -> dict:
        """JSON-ready representation (specs + seed, not firing state)."""
        return {
            "schema": 1,
            "seed": self.seed,
            "specs": {
                site: spec.to_dict()
                for site, spec in sorted(self.specs.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        if not isinstance(payload, dict) or "specs" not in payload:
            raise ConfigurationError("payload is not a serialised fault plan")
        try:
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"fault plan seed must be an integer: {exc}"
            ) from exc
        raw_specs = payload["specs"]
        if not isinstance(raw_specs, dict):
            raise ConfigurationError(
                f"fault plan 'specs' must be an object mapping site "
                f"names to specs, got {type(raw_specs).__name__}"
            )
        specs: dict[str, FaultSpec] = {}
        for site, spec in raw_specs.items():
            try:
                specs[str(site)] = FaultSpec.from_dict(spec)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"site {site!r}: {exc}"
                ) from exc
            except (TypeError, ValueError, AttributeError) as exc:
                raise ConfigurationError(
                    f"site {site!r}: malformed spec {spec!r} ({exc})"
                ) from exc
        return cls(seed=seed, specs=specs)

    def save(self, path: PathLike) -> Path:
        """Write the plan as JSON (atomically); returns the path."""
        from repro.persistence import atomic_write_text

        target = Path(path)
        atomic_write_text(target, json.dumps(self.to_dict(), indent=1))
        return target


def load_fault_plan(path: PathLike,
                    known_sites: Optional[tuple] = FAULT_SITES) -> FaultPlan:
    """Read a plan back from :meth:`FaultPlan.save` output.

    Every failure mode -- missing/unreadable file, corrupt JSON,
    malformed specs, or (unless ``known_sites=None``) site names the
    pipeline has no injection point for -- raises
    :class:`~repro.errors.PersistenceError` naming the file and the
    offending key, so the CLI reports a one-line error instead of a
    traceback.
    """
    source = Path(path)
    if not source.exists():
        raise PersistenceError(f"no fault plan at {source}")
    try:
        text = source.read_text()
    except OSError as exc:
        raise PersistenceError(
            f"cannot read fault plan {source}: {exc}"
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(
            f"fault plan {source} is corrupt: {exc}"
        ) from exc
    try:
        plan = FaultPlan.from_dict(payload)
    except ConfigurationError as exc:
        raise PersistenceError(f"fault plan {source}: {exc}") from exc
    if known_sites is not None:
        unknown = sorted(set(plan.specs) - set(known_sites))
        if unknown:
            raise PersistenceError(
                f"fault plan {source} names unknown site(s) "
                f"{', '.join(repr(s) for s in unknown)}; known sites: "
                f"{', '.join(known_sites)}"
            )
    return plan


#: The installed plan; ``None`` (the default) keeps every injection
#: point on its no-op fast path.
_ACTIVE: Optional[FaultPlan] = None


def get_fault_plan() -> Optional[FaultPlan]:
    """The currently installed fault plan, or ``None``."""
    return _ACTIVE


def set_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or with ``None`` remove) the process-wide fault plan.

    Returns the previously installed plan so callers can restore it;
    scoped use goes through :func:`fault_plan` instead.
    """
    global _ACTIVE
    if plan is not None and not isinstance(plan, FaultPlan):
        raise ConfigurationError(
            f"expected a FaultPlan or None, got {type(plan).__name__}"
        )
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


@contextmanager
def fault_plan(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Temporarily install a fault plan for the enclosed block."""
    previous = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def maybe_inject(site: str, exc_type: Type[Exception],
                 message: str) -> None:
    """Raise ``exc_type(message)`` if the active plan fires ``site``.

    This is the call every injection point makes.  With no plan
    installed it returns after a single ``None`` check -- the no-op
    fast path the PR 2/3 hot loops rely on.
    """
    plan = _ACTIVE
    if plan is None:
        return
    if not plan.should_fire(site):
        return
    registry.counter(
        "faults_injected_total", "faults injected by the active plan"
    ).inc()
    registry.counter(
        "faults_injected_" + site.replace(".", "_") + "_total",
        f"faults injected at site {site}",
    ).inc()
    with trace.span("fault.inject", site=site,
                    error=exc_type.__name__):
        pass  # zero-duration marker span -> timeline instant event
    _progress.note_event("fault", site=site, error=exc_type.__name__,
                         fires=plan.fires.get(site, 0))
    _log.info("fault_injected", site=site, error=exc_type.__name__,
              fires=plan.fires.get(site, 0))
    raise exc_type(message)
