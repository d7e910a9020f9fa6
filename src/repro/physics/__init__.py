"""Transistor-level BTI physics model.

This package is the substitution for real UltraScale+ silicon: it models
bias temperature instability (BTI) stress and recovery on FPGA routing
transistors with the functional forms from the device-reliability
literature the paper builds on (power-law stress kinetics, stretched
exponential recovery, Arrhenius temperature acceleration, saturation with
device lifetime), calibrated so that the paper's published magnitudes
(Figures 6-8) are reproduced.

Public surface:

* :class:`~repro.physics.kinetics.TrapPool` -- one trap population with
  stress/recovery dynamics;
* :class:`~repro.physics.bti.SegmentBti` -- the persistent analog state of
  one routing segment (two opposing pools);
* :class:`~repro.physics.constants.MechanismParams` and the default
  parameter sets;
* :class:`~repro.physics.variation.ProcessVariation` -- per-device
  manufacturing variation;
* :class:`~repro.physics.aging.WearProfile` -- prior-lifetime wear for
  fresh lab boards vs. aged cloud devices;
* :class:`~repro.physics.pool_array.TrapPoolArray` /
  :class:`~repro.physics.pool_array.SegmentBtiArray` -- the vectorised
  structure-of-arrays aging engine every device runs.  ``SegmentBti``
  and ``TrapPool`` stay the model it is pinned to; the per-segment
  device walk over them is the test oracle ``tests/oracles/aging.py``.
"""

from repro.physics.arrhenius import stress_acceleration, recovery_acceleration
from repro.physics.bti import SegmentBti
from repro.physics.constants import (
    AGE_SUPPRESSION_EXPONENT,
    AGE_SUPPRESSION_HOURS,
    HIGH_POOL,
    LOW_POOL,
    PS_PER_SWITCH_AT_REFERENCE,
    REFERENCE_STRESS_HOURS,
    REFERENCE_TEMPERATURE_K,
    MechanismParams,
    age_suppression,
)
from repro.physics.delay import TransitionDelays
from repro.physics.kinetics import TrapPool
from repro.physics.pool_array import SegmentBtiArray, TrapPoolArray
from repro.physics.variation import ProcessVariation
from repro.physics.aging import WearProfile, NEW_PART, CLOUD_PART

__all__ = [
    "AGE_SUPPRESSION_EXPONENT",
    "AGE_SUPPRESSION_HOURS",
    "CLOUD_PART",
    "HIGH_POOL",
    "LOW_POOL",
    "MechanismParams",
    "NEW_PART",
    "PS_PER_SWITCH_AT_REFERENCE",
    "ProcessVariation",
    "REFERENCE_STRESS_HOURS",
    "REFERENCE_TEMPERATURE_K",
    "SegmentBti",
    "SegmentBtiArray",
    "TransitionDelays",
    "TrapPool",
    "TrapPoolArray",
    "WearProfile",
    "age_suppression",
    "stress_acceleration",
    "recovery_acceleration",
]
