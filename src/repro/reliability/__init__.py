"""Fault injection, fault tolerance and checkpoint/resume.

Three layers, threaded through the whole attack pipeline:

* :mod:`repro.reliability.faults` -- one seeded, deterministic
  :class:`FaultPlan` drives every fault site: the eager pipeline's raise
  sites (allocation misses, preemptions, evictions, calibration
  glitches, dropped captures) and the event-driven fleet's provider
  failures (failed/partial wipes, region outages, preemption storms,
  board retirements, thermal excursions), with fleet draws keyed to
  event identity so a campaign is bit-identical for any churn
  batching.  With no plan every site is a single-predicate no-op.
* :mod:`repro.reliability.retry` -- :class:`RetryPolicy` /
  :func:`retry_call`: exponential backoff with deterministic jitter
  and *simulated* (recorded, never slept) waits for anything carrying
  the :class:`~repro.errors.TransientError` mixin.
* :mod:`repro.reliability.checkpoint` -- :class:`SweepJournal`:
  atomic per-seed completion journal behind the ``--resume`` of every
  multi-seed sweep (``repro sweep``, ``repro chaos sweep``, ``repro
  fleet --seeds``), all of which run through
  :func:`repro.montecarlo.run_monte_carlo`.

:mod:`repro.reliability.chaos` composes them: whole experiments under
a documented fault storm, gated on recovery-accuracy bounds.  Its
multi-seed form is :func:`repro.montecarlo.experiment_sweep` with a
``fault_plan``.
"""

from repro.reliability.chaos import (
    CHAOS_ACCURACY_BOUNDS,
    ChaosReport,
    default_chaos_plan,
    run_chaos,
)
from repro.reliability.checkpoint import SweepJournal
from repro.reliability.faults import (
    FAULT_SITES,
    ExcursionAmbient,
    FaultPlan,
    FaultSpec,
    OutageWindow,
    PreemptionStorm,
    RetirementWave,
    ThermalExcursion,
    WipeFaultSpec,
    derive_plan_seed,
    fault_plan,
    get_fault_plan,
    load_fault_plan,
    maybe_inject,
    note_fault,
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
    "SweepJournal",
    "FAULT_SITES",
    "ExcursionAmbient",
    "FaultPlan",
    "FaultSpec",
    "OutageWindow",
    "PreemptionStorm",
    "RetirementWave",
    "ThermalExcursion",
    "WipeFaultSpec",
    "fault_plan",
    "get_fault_plan",
    "load_fault_plan",
    "maybe_inject",
    "note_fault",
    "set_fault_plan",
    "RetryPolicy",
    "get_retry_policy",
    "note_retry",
    "retry_call",
    "retry_policy",
    "set_retry_policy",
]
