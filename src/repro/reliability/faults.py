"""Seeded, deterministic fault injection for experiments and the fleet.

One :class:`FaultPlan` models every way the provider can fail, and
decides -- reproducibly -- when each *fault site* fires.  It has two
halves, which share one seed, one ledger and one JSON document:

* **raise sites** (``specs``): string names wired into the eager
  pipeline's choke points (``cloud.allocate``, ``cloud.preempt``,
  ``cloud.evict``, ``sensor.calibrate``, ``sensor.capture``).  A site
  fires either *probabilistically* (each visit draws one uniform
  against ``probability``) or on a *schedule* (fire on the listed
  visit indices, zero-based); ``max_fires`` caps the total either way.
  Experiments read the plan installed with :func:`fault_plan`.
* **fleet sections** for the event-driven campaigns of
  :mod:`repro.cloud.campaigns`, which take the plan as an argument:
  failed/partial release-time ``wipe`` (the paper-relevant fault:
  imperfect scrubbing is exactly what Pentimento reads), region
  ``outages``, preemption ``storms``, board ``retirements`` and thermal
  ``excursions``.

Every decision comes from a named RNG stream of the plan's seed
(:class:`~repro.rng.RngFactory` keys each stream by a hash of its
name), so injection never perturbs the simulation's own draws and two
runs under the same plan inject the identical faults.  Raise sites draw
from one stream per site.  Fleet decisions draw from streams keyed to
*event identity* (``fleet.wipe#victim3``), never to engine iteration
order, and churn-level faults are one pure array transform on the
pre-drawn churn trace; together these keep a campaign bit-identical
across churn engines and batch sizes.

The hot-path contract mirrors :mod:`repro.observability.trace`: with no
plan, :func:`maybe_inject` and every fleet site is a single ``None``
check.

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
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional, Sequence, Type, Union

import numpy as np

from repro.errors import ConfigurationError, PersistenceError
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.rng import RngFactory

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "WipeFaultSpec",
    "OutageWindow",
    "PreemptionStorm",
    "RetirementWave",
    "ThermalExcursion",
    "ExcursionAmbient",
    "FaultPlan",
    "derive_plan_seed",
    "note_fault",
    "maybe_inject",
    "get_fault_plan",
    "set_fault_plan",
    "fault_plan",
    "load_fault_plan",
]

_log = get_logger("reliability.faults")

PathLike = Union[str, Path]

#: Plan document schema marker.
PLAN_SCHEMA = 1

#: Every fault site, mapped to the plan section that drives it.
FAULT_SITES = {
    "cloud.allocate": "specs",     # Region.allocate -> CapacityError
    "cloud.preempt": "specs",      # F1Instance.run_hours -> PreemptionError
    "cloud.evict": "specs",        # F1Instance.load_image -> EvictionError
    "sensor.calibrate": "specs",   # check_glitch -> CalibrationGlitchError
    "sensor.capture": "specs",     # measure_draws -> CaptureDropError
    "fleet.wipe_fail": "wipe",     # WIPE fires, remanence state untouched
    "fleet.wipe_partial": "wipe",  # WIPE scrubs only a random route subset
    "fleet.outage": "outages",     # region dark: a tracked RENT is refused
    "fleet.preempt": "storms",     # storm reclaims a victim tenancy
    "fleet.retire": "retirements",  # board leaves the free pool for good
    "fleet.thermal": "excursions",  # ambient excursion applied to a region
}
_RAISE_SITES = tuple(
    site for site, section in FAULT_SITES.items() if section == "specs"
)


def _as_float(value, what: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigurationError(
            f"{what} must be a finite number, got {value!r}"
        )
    return float(value)


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


def _as_flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(
            f"{what} must be true or false, got {value!r}"
        )
    return value


def _as_indices(value, what: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigurationError(
            f"{what} must be a list of integers, got {value!r}"
        )
    return tuple(_as_int(item, what) for item in value)


#: JSON readers keyed by a plan entry's field annotation.
_READERS = {
    "float": _as_float,
    "Optional[float]": _as_float,
    "int": _as_int,
    "Optional[int]": _as_int,
    "bool": _as_flag,
    "tuple": _as_indices,
}


class _PlanEntry:
    """JSON round trip shared by every frozen plan entry.

    ``to_dict`` omits ``None`` and empty fields; ``from_dict`` reads each
    field by its annotation and raises
    :class:`~repro.errors.ConfigurationError` naming the offending key
    for unknown keys, missing required keys, non-numbers and values
    the entry's own checks reject.
    """

    _WHAT = "entry"

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        payload: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or value == ():
                continue
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: dict, what: Optional[str] = None):
        """Rebuild an entry from :meth:`to_dict` output."""
        what = what or cls._WHAT
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"{what} must be an object, got {payload!r}"
            )
        known = {f.name: f for f in fields(cls)}
        for key in payload:
            if key not in known:
                raise ConfigurationError(f"{what} has unknown key {key!r}")
        kwargs = {}
        for name, f in known.items():
            if name not in payload:
                if f.default is MISSING:
                    raise ConfigurationError(
                        f"{what} is missing required key {name!r}"
                    )
                continue
            value = payload[name]
            if value is not None or not f.type.startswith("Optional"):
                value = _READERS[f.type](value, f"{what} key {name!r}")
            kwargs[name] = value
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{what}: {exc}") from exc


@dataclass(frozen=True)
class FaultSpec(_PlanEntry):
    """How one raise site fires.

    Exactly one of ``probability`` (per-visit Bernoulli) or
    ``schedule`` (zero-based visit indices) must be given;
    ``max_fires`` bounds the total number of injections at the site.
    """

    _WHAT = "fault spec"

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


@dataclass(frozen=True)
class WipeFaultSpec(_PlanEntry):
    """How release-time wipes fail.

    Per victim release one uniform is drawn (keyed to the victim, not
    the engine's iteration order): with ``fail_probability`` the wipe
    silently does nothing, with ``partial_probability`` only a random
    ``scrub_fraction`` of routes is actually cleared and the rest stay
    resident as a residue design.  ``max_fires`` caps total wipe faults.
    """

    _WHAT = "wipe spec"

    fail_probability: float = 0.0
    partial_probability: float = 0.0
    scrub_fraction: float = 0.5
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("fail_probability", "partial_probability",
                     "scrub_fraction"):
            value = getattr(self, name)
            if not 0.0 <= float(value) <= 1.0:
                raise ConfigurationError(
                    f"wipe {name} must be in [0, 1], got {value}"
                )
        if self.fail_probability + self.partial_probability > 1.0:
            raise ConfigurationError(
                "wipe fail_probability + partial_probability must not "
                f"exceed 1, got {self.fail_probability} + "
                f"{self.partial_probability}"
            )
        if self.max_fires is not None and int(self.max_fires) < 0:
            raise ConfigurationError(
                f"wipe max_fires must be >= 0, got {self.max_fires}"
            )


def _check_window(what: str, start_hours: float,
                  duration_hours: float) -> None:
    if start_hours < 0.0:
        raise ConfigurationError(
            f"{what} start_hours must be >= 0, got {start_hours}"
        )
    if duration_hours <= 0.0:
        raise ConfigurationError(
            f"{what} duration_hours must be > 0, got {duration_hours}"
        )


@dataclass(frozen=True)
class OutageWindow(_PlanEntry):
    """A region goes dark for ``[start_hours, start_hours + duration)``.

    Tracked RENTs inside the window are refused (and retried under the
    active :class:`~repro.reliability.retry.RetryPolicy`); with
    ``drop_churn`` background arrivals inside the window never happen
    at all -- the provider's admission queue simply rejects them.
    """

    _WHAT = "outage window"

    start_hours: float
    duration_hours: float
    drop_churn: bool = True

    def __post_init__(self) -> None:
        _check_window("outage", self.start_hours, self.duration_hours)

    @property
    def end_hours(self) -> float:
        return self.start_hours + self.duration_hours


@dataclass(frozen=True)
class PreemptionStorm(_PlanEntry):
    """Spot pressure reclaims victim tenancies at ``start_hours``.

    Each live victim is preempted independently with ``probability``
    (keyed draw per victim).  With ``cut_churn`` background rentals
    spanning the storm instant are truncated to end there, modelling
    fleet-wide reclamation.
    """

    _WHAT = "preemption storm"

    start_hours: float
    probability: float = 1.0
    cut_churn: bool = True

    def __post_init__(self) -> None:
        if self.start_hours < 0.0:
            raise ConfigurationError(
                f"storm start_hours must be >= 0, got {self.start_hours}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"storm probability must be in [0, 1], got "
                f"{self.probability}"
            )


@dataclass(frozen=True)
class RetirementWave(_PlanEntry):
    """``boards`` devices hard-fail out of the free pool at a time."""

    _WHAT = "retirement wave"

    time_hours: float
    boards: int = 1

    def __post_init__(self) -> None:
        if self.time_hours < 0.0:
            raise ConfigurationError(
                f"retirement time_hours must be >= 0, got {self.time_hours}"
            )
        if int(self.boards) < 1:
            raise ConfigurationError(
                f"retirement boards must be >= 1, got {self.boards}"
            )


@dataclass(frozen=True)
class ThermalExcursion(_PlanEntry):
    """Ambient rises by ``delta_k`` kelvin over a window."""

    _WHAT = "thermal excursion"

    start_hours: float
    duration_hours: float
    delta_k: float = 8.0

    def __post_init__(self) -> None:
        _check_window("excursion", self.start_hours, self.duration_hours)

    @property
    def end_hours(self) -> float:
        return self.start_hours + self.duration_hours


class ExcursionAmbient:
    """Wrap an ambient model with additive excursion windows.

    ``at(t)`` stays a pure function of ``t``, so the wrapper is exactly
    as lazy-timeline-safe as the base model: the region timeline can
    evaluate it at any grid, in any order, and get the same kelvin.
    """

    def __init__(self, base, excursions: Sequence[ThermalExcursion]) -> None:
        self.base = base
        self.excursions = tuple(excursions)

    def at(self, hours: float) -> float:
        kelvin = float(self.base.at(hours))
        for exc in self.excursions:
            if exc.start_hours <= hours < exc.end_hours:
                kelvin += exc.delta_k
        return kelvin


#: The fleet's list sections, in document order, with their entry type.
_SECTIONS = (
    ("outages", OutageWindow),
    ("storms", PreemptionStorm),
    ("retirements", RetirementWave),
    ("excursions", ThermalExcursion),
)
_PLAN_KEYS = ("schema", "seed", "specs", "wipe") + tuple(
    key for key, _ in _SECTIONS
)


def derive_plan_seed(plan_seed: int, seed: int) -> int:
    """Fold an experiment or campaign seed into a plan seed.

    Sweeps re-seed the plan per seed with this, so fault streams
    decorrelate across seeds yet stay reproducible from the pair.
    """
    return int(plan_seed) * 1_000_003 + int(seed)


class FaultPlan:
    """A seeded set of fault specs and fleet sections plus their ledger.

    ``visits`` and ``fires`` count per site; ``churn_dropped`` and
    ``churn_truncated`` tally the trace-level effects of outages and
    storms applied by :meth:`transform_churn`.  ``plan.ledger()`` after
    a run is the injection ledger a report prints.
    """

    def __init__(
        self,
        seed: int = 0,
        specs: Optional[dict] = None,
        wipe: Optional[WipeFaultSpec] = None,
        outages: Sequence[OutageWindow] = (),
        storms: Sequence[PreemptionStorm] = (),
        retirements: Sequence[RetirementWave] = (),
        excursions: Sequence[ThermalExcursion] = (),
    ) -> None:
        self.seed = int(seed)
        self.specs: dict[str, FaultSpec] = dict(specs or {})
        for site, spec in self.specs.items():
            if site not in _RAISE_SITES:
                raise ConfigurationError(
                    f"fault plan names unknown site {site!r}; known "
                    f"sites: {', '.join(_RAISE_SITES)}"
                )
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"site {site!r}: specs must be FaultSpec instances"
                )
        if wipe is not None and not isinstance(wipe, WipeFaultSpec):
            raise ConfigurationError(
                f"wipe must be a WipeFaultSpec, got {type(wipe).__name__}"
            )
        self.wipe = wipe
        self.outages = tuple(outages)
        self.storms = tuple(storms)
        self.retirements = tuple(retirements)
        self.excursions = tuple(excursions)
        for name, klass in _SECTIONS:
            for item in getattr(self, name):
                if not isinstance(item, klass):
                    raise ConfigurationError(
                        f"{name} entries must be {klass.__name__} "
                        f"instances, got {type(item).__name__}"
                    )
        self._rng = RngFactory(self.seed)
        self.visits: dict[str, int] = {}
        self.fires: dict[str, int] = {}
        self.churn_dropped = 0
        self.churn_truncated = 0

    # -- ledger -------------------------------------------------------

    @property
    def total_fires(self) -> int:
        """Faults injected so far across every site."""
        return sum(self.fires.values())

    def note_fire(self, site: str, count: int = 1) -> None:
        """Record ``count`` injections at ``site`` in the ledger."""
        self.fires[site] = self.fires.get(site, 0) + int(count)

    def ledger(self) -> dict:
        """Fires per site, plus the churn effects of outages and storms."""
        out = {site: count for site, count in sorted(self.fires.items())}
        if self.outages or self.storms:
            out["churn.dropped_by_outage"] = self.churn_dropped
            out["churn.truncated_by_storm"] = self.churn_truncated
        return out

    # -- raise sites ---------------------------------------------------

    def should_fire(self, site: str) -> bool:
        """One visit of ``site``: decide (and record) whether it fires."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        visit = self.visits.get(site, 0)
        self.visits[site] = visit + 1
        if (spec.max_fires is not None
                and self.fires.get(site, 0) >= spec.max_fires):
            return False
        if spec.probability is not None:
            fire = bool(
                self._rng.stream(site).random() < spec.probability
            )
        else:
            fire = visit in spec.schedule
        if fire:
            self.note_fire(site)
        return fire

    # -- fleet sites: draws keyed to event identity --------------------

    def decide_wipe(self, key: str, n_routes: int):
        """Decide one release's wipe outcome, keyed to ``key``.

        Returns ``(mode, scrubbed)`` where ``mode`` is ``"ok"``,
        ``"failed"`` or ``"partial"`` and ``scrubbed`` is a per-route
        boolean list (``True`` = actually cleared) for partial wipes,
        ``None`` otherwise.  The draw comes from the
        ``fleet.wipe#<key>`` stream, so any engine asking about the
        same release gets the same answer.
        """
        self.visits["fleet.wipe"] = self.visits.get("fleet.wipe", 0) + 1
        spec = self.wipe
        if spec is None:
            return "ok", None
        if spec.max_fires is not None and (
            self.fires.get("fleet.wipe_fail", 0)
            + self.fires.get("fleet.wipe_partial", 0)
        ) >= int(spec.max_fires):
            return "ok", None
        rng = self._rng.stream(f"fleet.wipe#{key}")
        u = float(rng.random())
        if u < spec.fail_probability:
            self.note_fire("fleet.wipe_fail")
            return "failed", None
        if u < spec.fail_probability + spec.partial_probability:
            scrubbed = (
                rng.random(int(n_routes)) < spec.scrub_fraction
            ).tolist()
            self.note_fire("fleet.wipe_partial")
            return "partial", scrubbed
        return "ok", None

    def storm_preempts(self, storm_index: int, key: str) -> bool:
        """Whether storm ``storm_index`` reclaims the tenancy ``key``."""
        storm = self.storms[int(storm_index)]
        self.visits["fleet.preempt"] = (
            self.visits.get("fleet.preempt", 0) + 1
        )
        if storm.probability >= 1.0:
            return True
        stream = self._rng.stream(f"fleet.preempt#s{int(storm_index)}#{key}")
        return bool(stream.random() < storm.probability)

    def retire_positions(self, wave_index: int, available: int,
                         count: int) -> list[int]:
        """Free-pool stack positions wave ``wave_index`` retires.

        Positions are drawn without replacement from the
        ``fleet.retire#<wave>`` stream and returned descending, ready
        for pop-by-index without reindexing.
        """
        count = min(int(count), int(available))
        if count <= 0:
            return []
        stream = self._rng.stream(f"fleet.retire#{int(wave_index)}")
        picks = stream.choice(int(available), size=count, replace=False)
        return sorted((int(p) for p in picks), reverse=True)

    # -- outage geometry ----------------------------------------------

    def in_outage(self, hours: float) -> bool:
        """Whether any outage window covers sim time ``hours``."""
        return self.outage_end(hours) is not None

    def outage_end(self, hours: float) -> Optional[float]:
        """End of the outage covering ``hours``, or ``None``."""
        for window in self.outages:
            if window.start_hours <= hours < window.end_hours:
                return window.end_hours
        return None

    def outage_hours_within(self, horizon_hours: float) -> float:
        """Total dark hours inside ``[0, horizon_hours]``."""
        dark = 0.0
        for window in self.outages:
            lo = max(0.0, window.start_hours)
            hi = min(float(horizon_hours), window.end_hours)
            dark += max(0.0, hi - lo)
        return dark

    # -- trace-level transforms (applied once, pre-engine) ------------

    def transform_churn(self, arrivals, durations,
                        min_rental_hours: float = 1e-9):
        """Apply outage drops and storm truncation to a churn trace.

        Pure array transform on the *pre-drawn* trace -- every churn
        engine replays the transformed arrays, which is what makes
        churn-level faults engine- and batch-invariant.  Returns
        ``(arrivals, durations, dropped, truncated)`` and tallies the
        counts on the plan.
        """
        arrivals = np.asarray(arrivals, dtype=np.float64)
        durations = np.asarray(durations, dtype=np.float64)
        keep = np.ones(arrivals.shape[0], dtype=bool)
        for window in self.outages:
            if window.drop_churn:
                keep &= ~(
                    (arrivals >= window.start_hours)
                    & (arrivals < window.end_hours)
                )
        dropped = int(arrivals.shape[0] - int(keep.sum()))
        arrivals = arrivals[keep]
        durations = durations[keep].copy()
        truncated = 0
        for storm in self.storms:
            if not storm.cut_churn:
                continue
            spans = (
                (arrivals < storm.start_hours)
                & (arrivals + durations > storm.start_hours)
            )
            hit = int(spans.sum())
            if hit:
                truncated += hit
                durations[spans] = np.maximum(
                    storm.start_hours - arrivals[spans], min_rental_hours
                )
        self.churn_dropped += dropped
        self.churn_truncated += truncated
        return arrivals, durations, dropped, truncated

    def wrap_ambient(self, base):
        """Wrap an ambient model with this plan's thermal excursions."""
        if not self.excursions:
            return base
        self.note_fire("fleet.thermal", len(self.excursions))
        return ExcursionAmbient(base, self.excursions)

    # -- lifecycle and persistence ------------------------------------

    def reseeded(self, seed: int) -> "FaultPlan":
        """An unconsumed copy under ``seed``: pristine streams and ledger."""
        return FaultPlan.from_dict(dict(self.to_dict(), seed=int(seed)))

    def to_dict(self) -> dict:
        """JSON-ready representation (not the ledger); empty sections
        are omitted."""
        payload: dict = {"schema": PLAN_SCHEMA, "seed": self.seed}
        if self.specs:
            payload["specs"] = {
                site: spec.to_dict()
                for site, spec in sorted(self.specs.items())
            }
        if self.wipe is not None:
            payload["wipe"] = self.wipe.to_dict()
        for key, _ in _SECTIONS:
            entries = getattr(self, key)
            if entries:
                payload[key] = [entry.to_dict() for entry in entries]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        Unknown keys and malformed entries raise
        :class:`~repro.errors.ConfigurationError` naming the offending
        key, never a raw ``KeyError``/``TypeError``.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"a fault plan must be an object, got {payload!r}"
            )
        for key in payload:
            if key not in _PLAN_KEYS:
                raise ConfigurationError(
                    f"fault plan has unknown key {key!r} (known: "
                    f"{', '.join(_PLAN_KEYS)})"
                )
        schema = payload.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise ConfigurationError(
                f"fault plan has schema {schema!r}; this build reads "
                f"{PLAN_SCHEMA}"
            )
        seed = _as_int(payload.get("seed", 0), "fault plan key 'seed'")
        raw_specs = payload.get("specs", {})
        if not isinstance(raw_specs, dict):
            raise ConfigurationError(
                f"fault plan key 'specs' must be an object mapping site "
                f"names to specs, got {raw_specs!r}"
            )
        sections = {}
        for key, klass in _SECTIONS:
            raw = payload.get(key, [])
            if not isinstance(raw, list):
                raise ConfigurationError(
                    f"fault plan key {key!r} must be a list, got {raw!r}"
                )
            sections[key] = [
                klass.from_dict(item, f"{key}[{index}]")
                for index, item in enumerate(raw)
            ]
        wipe = payload.get("wipe")
        return cls(
            seed=seed,
            specs={
                site: FaultSpec.from_dict(spec, f"site {site!r}")
                for site, spec in raw_specs.items()
            },
            wipe=None if wipe is None else WipeFaultSpec.from_dict(wipe),
            **sections,
        )

    def save(self, path: PathLike) -> Path:
        """Write the plan as JSON (atomically); returns the path."""
        from repro.persistence import atomic_write_text

        target = Path(path)
        atomic_write_text(target, json.dumps(self.to_dict(), indent=1))
        return target


def load_fault_plan(path: PathLike) -> FaultPlan:
    """Read a plan back from :meth:`FaultPlan.save` output.

    Every failure mode -- missing/unreadable file, corrupt JSON, or a
    malformed plan -- raises :class:`~repro.errors.PersistenceError`
    naming the file (and, for malformed plans, the offending key), so
    the CLI reports a one-line error instead of a traceback.
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
        return FaultPlan.from_dict(payload)
    except ConfigurationError as exc:
        raise PersistenceError(f"fault plan {source}: {exc}") from exc


def note_fault(site: str, **attrs) -> None:
    """Record one injected fault: counters and one ``fault`` event.

    ``faults_injected_total`` plus a per-site decomposition; the event
    also leaves the ``fault.inject`` marker span (a Chrome-trace
    instant).
    """
    registry.counter(
        "faults_injected_total", "faults injected by a fault plan"
    ).inc()
    registry.counter(
        "faults_injected_" + site.replace(".", "_") + "_total",
        f"faults injected at site {site}",
    ).inc()
    _log.event("fault", site=site, **attrs)


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

    This is the call every raise site makes.  With no plan installed it
    returns after a single ``None`` check -- the no-op fast path the hot
    loops rely on.
    """
    plan = _ACTIVE
    if plan is None:
        return
    if not plan.should_fire(site):
        return
    note_fault(site, error=exc_type.__name__, fires=plan.fires[site])
    raise exc_type(message)
