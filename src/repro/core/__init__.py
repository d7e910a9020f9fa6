"""The pentimento attack framework (the paper's contribution).

Orchestrates the calibration / condition / measurement phases over any
execution environment (a local lab bench or a rented cloud instance) and
turns the resulting delta-ps time series back into the victim's bits:

* :mod:`repro.core.bench` -- the lab-bench environment (Experiment 1);
* :mod:`repro.core.phases` / :mod:`repro.core.protocol` -- the phase
  machinery of Section 5.2;
* :mod:`repro.core.classify` -- bit-recovery classifiers for burn-in
  trends (Threat Model 1) and recovery transients (Threat Model 2);
* :mod:`repro.core.threat_model1` / :mod:`repro.core.threat_model2` --
  end-to-end attack orchestration on the cloud platform;
* :mod:`repro.core.metrics` -- bit-error-rate scoring.
"""

from repro.core.bench import LabBench
from repro.core.classify import (
    BurnTrendClassifier,
    MatchedFilterClassifier,
    RecoverySlopeClassifier,
    two_means_split,
)
from repro.core.metrics import RecoveryScore, score_recovery
from repro.core.phases import CalibrationPhase, ConditionPhase, MeasurementPhase
from repro.core.protocol import ConditionMeasureProtocol
from repro.core.threat_model1 import ThreatModel1Attack, ThreatModel1Result
from repro.core.threat_model2 import (
    BoardIdentification,
    ThreatModel2Attack,
    ThreatModel2Result,
)

__all__ = [
    "BoardIdentification",
    "BurnTrendClassifier",
    "CalibrationPhase",
    "ConditionMeasureProtocol",
    "ConditionPhase",
    "LabBench",
    "MatchedFilterClassifier",
    "MeasurementPhase",
    "RecoveryScore",
    "RecoverySlopeClassifier",
    "ThreatModel1Attack",
    "ThreatModel1Result",
    "ThreatModel2Attack",
    "ThreatModel2Result",
    "score_recovery",
    "two_means_split",
]
