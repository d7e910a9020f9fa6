"""Fault injection, fault tolerance and checkpoint/resume.

Three layers, threaded through the whole attack pipeline:

* :mod:`repro.reliability.faults` -- a seeded, deterministic
  :class:`FaultPlan` drives named injection points (allocation misses,
  preemptions, evictions, calibration glitches, dropped captures);
  with no plan installed every site is a single-predicate no-op.
* :mod:`repro.reliability.retry` -- :class:`RetryPolicy` /
  :func:`retry_call`: exponential backoff with deterministic jitter
  and *simulated* (recorded, never slept) waits for anything carrying
  the :class:`~repro.errors.TransientError` mixin.
* :mod:`repro.reliability.checkpoint` -- :class:`SweepJournal`:
  atomic per-seed completion journal behind ``repro sweep --resume``.

:mod:`repro.reliability.chaos` composes them: whole experiments under
a documented fault storm, gated on recovery-accuracy bounds.
:mod:`repro.reliability.fleet_chaos` extends the storm to the
event-driven fleet: a :class:`FleetFaultPlan` injects failed/partial
wipes, region outages, preemption storms, board retirements and
thermal excursions with draws keyed to event identity, so the same
plan produces bit-identical campaigns for any churn batching.
"""

from repro.reliability.chaos import (
    CHAOS_ACCURACY_BOUNDS,
    ChaosReport,
    default_chaos_plan,
    derive_plan_seed,
    run_chaos,
    run_chaos_sweep,
)
from repro.reliability.fleet_chaos import (
    FLEET_FAULT_SITES,
    ExcursionAmbient,
    FleetFaultPlan,
    OutageWindow,
    PreemptionStorm,
    RetirementWave,
    ThermalExcursion,
    WipeFaultSpec,
    default_fleet_chaos_plan,
    derive_fleet_plan_seed,
    load_fleet_fault_plan,
    note_fleet_fault,
)
from repro.reliability.checkpoint import SweepJournal
from repro.reliability.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    fault_plan,
    get_fault_plan,
    load_fault_plan,
    maybe_inject,
    set_fault_plan,
)
from repro.reliability.retry import (
    RetryPolicy,
    get_retry_policy,
    note_retry,
    retry_call,
    retry_policy,
    set_retry_policy,
)

__all__ = [
    "CHAOS_ACCURACY_BOUNDS",
    "ChaosReport",
    "default_chaos_plan",
    "derive_plan_seed",
    "run_chaos",
    "run_chaos_sweep",
    "FLEET_FAULT_SITES",
    "ExcursionAmbient",
    "FleetFaultPlan",
    "OutageWindow",
    "PreemptionStorm",
    "RetirementWave",
    "ThermalExcursion",
    "WipeFaultSpec",
    "default_fleet_chaos_plan",
    "derive_fleet_plan_seed",
    "load_fleet_fault_plan",
    "note_fleet_fault",
    "SweepJournal",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "fault_plan",
    "get_fault_plan",
    "load_fault_plan",
    "maybe_inject",
    "set_fault_plan",
    "RetryPolicy",
    "get_retry_policy",
    "note_retry",
    "retry_call",
    "retry_policy",
    "set_retry_policy",
]
