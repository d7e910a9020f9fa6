"""Deterministic provider chaos for the event-driven fleet.

PR 5's :class:`~repro.reliability.faults.FaultPlan` stops at the eager
per-experiment paths; this module carries the same discipline into the
million-event campaigns of :mod:`repro.cloud.campaigns`.  A
:class:`FleetFaultPlan` bundles the provider failure modes the paper's
threat model cares about:

* **failed / partial wipes** -- the WIPE event fires but the board's
  remanence state survives, or only a random subset of routes is
  scrubbed (the paper-relevant fault: Pentimento's recovery story is
  exactly what imperfect scrubbing leaks);
* **region outages** -- capacity collapses for a window, queued RENTs
  retry under the existing :class:`~repro.reliability.retry.RetryPolicy`
  backoff (re-priced in simulated hours) or the campaign degrades;
* **preemption storms** -- spot pressure reclaims victim tenancies at a
  chosen instant;
* **device retirement** -- hard failures permanently remove boards from
  the free pool (mass retirement compacts the pool);
* **thermal excursions** -- ambient spikes replayed through the lazy
  region timeline via :class:`ExcursionAmbient`.

Engine invariance is the design constraint that shapes everything here:
the same plan must produce bit-identical campaigns for every
``batch_hours`` of the bulk churn engine and under the test oracles --
the per-event churn replay (``tests/oracles/churn.py``) and the eager
aging walker (``tests/oracles/aging.py``).  Two rules enforce it:

1. Churn-affecting faults (outage arrival drops, storm truncation of
   in-flight rentals) are pure array transforms applied **once** to the
   pre-drawn :class:`~repro.cloud.campaigns.ChurnTrace`, before any
   engine sees it -- every engine then replays the identical trace.
2. Tracked-event faults draw randomness from RNG streams keyed by
   *event identity* (``fleet.wipe#victim3``), never by engine iteration
   order, so the draw is the same no matter which engine, batch size,
   or dispatch interleaving visits the site.

Like :func:`~repro.reliability.faults.maybe_inject`, the no-plan fast
path is a single ``None`` check at each site -- BENCH_fleet's hot loops
pay one predicate and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, PersistenceError
from repro.observability import progress as _progress
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.rng import RngFactory

__all__ = [
    "FLEET_FAULT_SITES",
    "WipeFaultSpec",
    "OutageWindow",
    "PreemptionStorm",
    "RetirementWave",
    "ThermalExcursion",
    "ExcursionAmbient",
    "FleetFaultPlan",
    "load_fleet_fault_plan",
    "default_fleet_chaos_plan",
    "derive_fleet_plan_seed",
    "note_fleet_fault",
]

_log = get_logger("reliability.fleet_chaos")

PathLike = Union[str, Path]

#: Plan file schema marker.
FLEET_PLAN_SCHEMA = 1

#: The fleet fault sites, with what each injection models.
FLEET_FAULT_SITES = (
    "fleet.wipe_fail",     # WIPE fires, remanence state untouched
    "fleet.wipe_partial",  # WIPE scrubs only a random route subset
    "fleet.outage",        # region dark: a tracked RENT is refused
    "fleet.preempt",       # storm reclaims a victim tenancy
    "fleet.retire",        # board leaves the free pool permanently
    "fleet.thermal",       # ambient excursion applied to the region
)


def _require_number(payload: dict, key: str, what: str) -> float:
    """Fetch a numeric field, naming the offending key on failure."""
    if key not in payload:
        raise ConfigurationError(f"{what} is missing required key {key!r}")
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{what} key {key!r} must be a number, got {value!r}"
        )
    return float(value)


@dataclass(frozen=True)
class WipeFaultSpec:
    """How release-time wipes fail.

    Per victim release one uniform is drawn (keyed to the victim, not
    the engine's iteration order): with ``fail_probability`` the wipe
    silently does nothing, with ``partial_probability`` only a random
    ``scrub_fraction`` of routes is actually cleared and the rest stay
    resident as a residue design.  ``max_fires`` caps total wipe faults.
    """

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

    def to_dict(self) -> dict:
        payload: dict = {
            "fail_probability": self.fail_probability,
            "partial_probability": self.partial_probability,
            "scrub_fraction": self.scrub_fraction,
        }
        if self.max_fires is not None:
            payload["max_fires"] = int(self.max_fires)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "WipeFaultSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"wipe spec must be an object, got {payload!r}"
            )
        known = {"fail_probability", "partial_probability",
                 "scrub_fraction", "max_fires"}
        for key in payload:
            if key not in known:
                raise ConfigurationError(f"wipe spec has unknown key {key!r}")
        return cls(
            fail_probability=float(payload.get("fail_probability", 0.0)),
            partial_probability=float(
                payload.get("partial_probability", 0.0)
            ),
            scrub_fraction=float(payload.get("scrub_fraction", 0.5)),
            max_fires=payload.get("max_fires"),
        )


@dataclass(frozen=True)
class OutageWindow:
    """A region goes dark for ``[start_hours, start_hours + duration)``.

    Tracked RENTs inside the window are refused (and retried under the
    active :class:`~repro.reliability.retry.RetryPolicy`); with
    ``drop_churn`` background arrivals inside the window never happen
    at all -- the provider's admission queue simply rejects them.
    """

    start_hours: float
    duration_hours: float
    drop_churn: bool = True

    def __post_init__(self) -> None:
        if self.start_hours < 0.0:
            raise ConfigurationError(
                f"outage start_hours must be >= 0, got {self.start_hours}"
            )
        if self.duration_hours <= 0.0:
            raise ConfigurationError(
                f"outage duration_hours must be > 0, got "
                f"{self.duration_hours}"
            )

    @property
    def end_hours(self) -> float:
        return self.start_hours + self.duration_hours

    def to_dict(self) -> dict:
        return {
            "start_hours": self.start_hours,
            "duration_hours": self.duration_hours,
            "drop_churn": bool(self.drop_churn),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OutageWindow":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"outage window must be an object, got {payload!r}"
            )
        known = {"start_hours", "duration_hours", "drop_churn"}
        for key in payload:
            if key not in known:
                raise ConfigurationError(
                    f"outage window has unknown key {key!r}"
                )
        return cls(
            start_hours=_require_number(payload, "start_hours", "outage"),
            duration_hours=_require_number(
                payload, "duration_hours", "outage"
            ),
            drop_churn=bool(payload.get("drop_churn", True)),
        )


@dataclass(frozen=True)
class PreemptionStorm:
    """Spot pressure reclaims victim tenancies at ``start_hours``.

    Each live victim is preempted independently with ``probability``
    (keyed draw per victim).  With ``cut_churn`` background rentals
    spanning the storm instant are truncated to end there, modelling
    fleet-wide reclamation.
    """

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

    def to_dict(self) -> dict:
        return {
            "start_hours": self.start_hours,
            "probability": self.probability,
            "cut_churn": bool(self.cut_churn),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PreemptionStorm":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"preemption storm must be an object, got {payload!r}"
            )
        known = {"start_hours", "probability", "cut_churn"}
        for key in payload:
            if key not in known:
                raise ConfigurationError(
                    f"preemption storm has unknown key {key!r}"
                )
        return cls(
            start_hours=_require_number(payload, "start_hours", "storm"),
            probability=float(payload.get("probability", 1.0)),
            cut_churn=bool(payload.get("cut_churn", True)),
        )


@dataclass(frozen=True)
class RetirementWave:
    """``boards`` devices hard-fail out of the free pool at a time."""

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

    def to_dict(self) -> dict:
        return {"time_hours": self.time_hours, "boards": int(self.boards)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RetirementWave":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"retirement wave must be an object, got {payload!r}"
            )
        known = {"time_hours", "boards"}
        for key in payload:
            if key not in known:
                raise ConfigurationError(
                    f"retirement wave has unknown key {key!r}"
                )
        return cls(
            time_hours=_require_number(payload, "time_hours", "retirement"),
            boards=int(payload.get("boards", 1)),
        )


@dataclass(frozen=True)
class ThermalExcursion:
    """Ambient rises by ``delta_k`` kelvin over a window."""

    start_hours: float
    duration_hours: float
    delta_k: float = 8.0

    def __post_init__(self) -> None:
        if self.start_hours < 0.0:
            raise ConfigurationError(
                f"excursion start_hours must be >= 0, got "
                f"{self.start_hours}"
            )
        if self.duration_hours <= 0.0:
            raise ConfigurationError(
                f"excursion duration_hours must be > 0, got "
                f"{self.duration_hours}"
            )

    @property
    def end_hours(self) -> float:
        return self.start_hours + self.duration_hours

    def to_dict(self) -> dict:
        return {
            "start_hours": self.start_hours,
            "duration_hours": self.duration_hours,
            "delta_k": self.delta_k,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ThermalExcursion":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"thermal excursion must be an object, got {payload!r}"
            )
        known = {"start_hours", "duration_hours", "delta_k"}
        for key in payload:
            if key not in known:
                raise ConfigurationError(
                    f"thermal excursion has unknown key {key!r}"
                )
        return cls(
            start_hours=_require_number(payload, "start_hours", "excursion"),
            duration_hours=_require_number(
                payload, "duration_hours", "excursion"
            ),
            delta_k=float(payload.get("delta_k", 8.0)),
        )


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


class FleetFaultPlan:
    """A seeded bundle of fleet fault specs plus their firing ledger.

    Randomness comes from per-*identity* streams (one
    :class:`~repro.rng.RngFactory` stream per ``site#key`` pair), so a
    fault decision depends only on which event asks, never on engine
    iteration order -- the engine-invariance contract.

    ``fires`` counts injections per site; ``churn_dropped`` /
    ``churn_truncated`` tally the trace-level effects of outages and
    storms applied by :meth:`transform_churn`.
    """

    def __init__(
        self,
        seed: int = 0,
        wipe: Optional[WipeFaultSpec] = None,
        outages: Sequence[OutageWindow] = (),
        storms: Sequence[PreemptionStorm] = (),
        retirements: Sequence[RetirementWave] = (),
        excursions: Sequence[ThermalExcursion] = (),
    ) -> None:
        self.seed = int(seed)
        if wipe is not None and not isinstance(wipe, WipeFaultSpec):
            raise ConfigurationError(
                f"wipe must be a WipeFaultSpec, got {type(wipe).__name__}"
            )
        for name, seq, klass in (
            ("outages", outages, OutageWindow),
            ("storms", storms, PreemptionStorm),
            ("retirements", retirements, RetirementWave),
            ("excursions", excursions, ThermalExcursion),
        ):
            for item in seq:
                if not isinstance(item, klass):
                    raise ConfigurationError(
                        f"{name} entries must be {klass.__name__} "
                        f"instances, got {type(item).__name__}"
                    )
        self.wipe = wipe
        self.outages = tuple(outages)
        self.storms = tuple(storms)
        self.retirements = tuple(retirements)
        self.excursions = tuple(excursions)
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
        """The complete injection ledger, churn effects included."""
        out = {site: count for site, count in sorted(self.fires.items())}
        out["churn.dropped_by_outage"] = self.churn_dropped
        out["churn.truncated_by_storm"] = self.churn_truncated
        return out

    # -- keyed decisions (engine-invariant) ---------------------------

    def _wipe_fires_remaining(self) -> bool:
        if self.wipe is None or self.wipe.max_fires is None:
            return self.wipe is not None
        fired = (self.fires.get("fleet.wipe_fail", 0)
                 + self.fires.get("fleet.wipe_partial", 0))
        return fired < int(self.wipe.max_fires)

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
        if not self._wipe_fires_remaining():
            return "ok", None
        spec = self.wipe
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
        for window in self.outages:
            if window.start_hours <= hours < window.end_hours:
                return True
        return False

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

        Pure array transform on the *pre-drawn* trace -- both churn
        engines replay the transformed arrays, which is what makes
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

    # -- lifecycle ----------------------------------------------------

    def fresh(self) -> "FleetFaultPlan":
        """An unconsumed copy (pristine RNG streams and ledger)."""
        return FleetFaultPlan.from_dict(self.to_dict())

    def reseeded(self, seed: int) -> "FleetFaultPlan":
        """An unconsumed copy under a different seed (sweep per-seed)."""
        payload = self.to_dict()
        payload["seed"] = int(seed)
        return FleetFaultPlan.from_dict(payload)

    # -- persistence --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready representation (specs + seed, not the ledger)."""
        payload: dict = {"schema": FLEET_PLAN_SCHEMA, "seed": self.seed}
        if self.wipe is not None:
            payload["wipe"] = self.wipe.to_dict()
        if self.outages:
            payload["outages"] = [w.to_dict() for w in self.outages]
        if self.storms:
            payload["storms"] = [s.to_dict() for s in self.storms]
        if self.retirements:
            payload["retirements"] = [r.to_dict() for r in self.retirements]
        if self.excursions:
            payload["excursions"] = [e.to_dict() for e in self.excursions]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetFaultPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        Unknown keys and malformed specs raise
        :class:`~repro.errors.ConfigurationError` naming the offending
        key, never a raw ``KeyError``/``TypeError``.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                "payload is not a serialised fleet fault plan"
            )
        known = {"schema", "seed", "wipe", "outages", "storms",
                 "retirements", "excursions"}
        for key in payload:
            if key not in known:
                raise ConfigurationError(
                    f"fleet fault plan has unknown key {key!r} (known: "
                    f"{', '.join(sorted(known))})"
                )
        schema = payload.get("schema", FLEET_PLAN_SCHEMA)
        if schema != FLEET_PLAN_SCHEMA:
            raise ConfigurationError(
                f"fleet fault plan has schema {schema!r}; this build "
                f"reads {FLEET_PLAN_SCHEMA}"
            )
        try:
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"fleet fault plan seed must be an integer: {exc}"
            ) from exc

        def _sequence(key: str, klass) -> list:
            raw = payload.get(key, ())
            if not isinstance(raw, (list, tuple)):
                raise ConfigurationError(
                    f"fleet fault plan key {key!r} must be a list, got "
                    f"{raw!r}"
                )
            return [klass.from_dict(item) for item in raw]

        wipe = None
        if payload.get("wipe") is not None:
            wipe = WipeFaultSpec.from_dict(payload["wipe"])
        return cls(
            seed=seed,
            wipe=wipe,
            outages=_sequence("outages", OutageWindow),
            storms=_sequence("storms", PreemptionStorm),
            retirements=_sequence("retirements", RetirementWave),
            excursions=_sequence("excursions", ThermalExcursion),
        )

    def save(self, path: PathLike) -> Path:
        """Write the plan as JSON (atomically); returns the path."""
        from repro.persistence import atomic_write_text

        target = Path(path)
        atomic_write_text(target, json.dumps(self.to_dict(), indent=1))
        return target


def load_fleet_fault_plan(path: PathLike) -> FleetFaultPlan:
    """Read a plan back from :meth:`FleetFaultPlan.save` output.

    Every failure mode raises :class:`~repro.errors.PersistenceError`
    naming the file (and, for malformed payloads, the offending key) --
    the CLI prints these as one-line errors instead of tracebacks.
    """
    source = Path(path)
    if not source.exists():
        raise PersistenceError(f"no fleet fault plan at {source}")
    try:
        text = source.read_text()
    except OSError as exc:
        raise PersistenceError(
            f"cannot read fleet fault plan {source}: {exc}"
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(
            f"fleet fault plan {source} is corrupt: {exc}"
        ) from exc
    try:
        return FleetFaultPlan.from_dict(payload)
    except ConfigurationError as exc:
        raise PersistenceError(
            f"fleet fault plan {source}: {exc}"
        ) from exc


def default_fleet_chaos_plan(seed: int = 0) -> FleetFaultPlan:
    """The committed default: every fault family, modest severity.

    2% failed + 5% partial wipes (the paper-relevant leak), one
    region outage window, one half-strength preemption storm, a small
    retirement wave, and one thermal excursion.
    """
    return FleetFaultPlan(
        seed=seed,
        wipe=WipeFaultSpec(
            fail_probability=0.02,
            partial_probability=0.05,
            scrub_fraction=0.5,
        ),
        outages=(OutageWindow(start_hours=90.0, duration_hours=14.0),),
        storms=(PreemptionStorm(start_hours=150.0, probability=0.5),),
        retirements=(RetirementWave(time_hours=60.0, boards=3),),
        excursions=(
            ThermalExcursion(
                start_hours=40.0, duration_hours=24.0, delta_k=8.0
            ),
        ),
    )


def derive_fleet_plan_seed(plan_seed: int, campaign_seed: int) -> int:
    """Fold a campaign seed into a plan seed (sweep per-seed plans).

    Mirrors the chaos sweep's derivation
    (:func:`repro.reliability.chaos.derive_plan_seed`): distinct
    campaign seeds get decorrelated fault streams while staying fully
    reproducible from the pair.
    """
    return int(plan_seed) * 1_000_003 + int(campaign_seed)


def note_fleet_fault(site: str, **attrs) -> None:
    """Record one fleet fault injection: counters, instant span, event.

    The counter pair mirrors :func:`~repro.reliability.faults
    .maybe_inject` (``fleet_faults_injected_total`` plus a per-site
    decomposition); the zero-duration ``fleet.fault`` span becomes a
    Chrome-trace instant event.
    """
    registry.counter(
        "fleet_faults_injected_total",
        "fleet faults injected by the active plan",
    ).inc()
    registry.counter(
        "fleet_faults_injected_" + site.replace(".", "_") + "_total",
        f"fleet faults injected at site {site}",
    ).inc()
    with trace.span("fleet.fault", site=site, **attrs):
        pass  # zero-duration marker span -> timeline instant event
    _progress.note_event("fleet.fault", site=site, **attrs)
    _log.info("fleet_fault_injected", site=site, **attrs)
