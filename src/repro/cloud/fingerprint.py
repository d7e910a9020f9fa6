"""Device fingerprinting through process variation.

Assumption 2 requires the attacker to confirm they re-acquired the
victim's *physical* board.  The platform hides device identities, but
manufacturing variation does not: each die's vector of route delays is
unique and stable.  An attacker who measured a set of probe routes on a
device can later recognise that device by re-measuring the same probes
and correlating -- the "cloud FPGA fingerprinting techniques" the paper
cites for this step.

The fingerprint features are the TDC's mean falling/rising propagation
distances at a *fixed* set of theta values: a pure tenant-visible
observable.  Crucially, when probing a candidate device the attacker
must **replay the reference device's theta values**
(:meth:`~repro.designs.measure.MeasureSession.use_theta_init`) rather
than recalibrate -- per-device calibration re-centres the capture window
and cancels exactly the die-to-die delay differences that identify the
board.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AttackError
from repro.designs.measure import MeasureSession

#: Similarity threshold above which two fingerprints are declared the
#: same die.  Distinct dies differ by whole bins on most probes (delay
#: variation is tens of ps against a 2.8 ps bin), so genuine matches
#: score near 1 and impostors score far below.
MATCH_THRESHOLD = 0.85


@dataclass(frozen=True)
class RouteFingerprint:
    """Per-route (rising, falling) mean distances, in chain bins."""

    route_names: tuple[str, ...]
    features: np.ndarray  # shape (routes, 2)

    def __post_init__(self) -> None:
        if self.features.shape != (len(self.route_names), 2):
            raise AttackError(
                f"feature shape {self.features.shape} does not match "
                f"{len(self.route_names)} routes"
            )


def fingerprint_session(
    session: MeasureSession, repeats: int = 4
) -> RouteFingerprint:
    """Fingerprint the device behind a calibrated measure session.

    Each route is measured ``repeats`` times and the features averaged:
    per-sample jitter scales the feature noise down by sqrt(repeats),
    while the die-identifying delay offsets are deterministic and
    survive the mean.  Measurement is cheap (one bank capture per
    repeat), so a handful of repeats buys a fingerprint stable to small
    fractions of a bin.
    """
    if repeats < 1:
        raise AttackError("repeats must be >= 1")
    names = session.route_names
    features = np.zeros((len(names), 2))
    for _ in range(repeats):
        # Each route owns its generator stream, so measuring the bank
        # per repeat draws what measuring route by route would.
        measurements = session.measure_all()
        for i, name in enumerate(names):
            features[i, 0] += measurements[name].rising_distance
            features[i, 1] += measurements[name].falling_distance
    features /= repeats
    return RouteFingerprint(route_names=tuple(names), features=features)


def match_score(reference: RouteFingerprint, probe: RouteFingerprint) -> float:
    """Similarity in [0, 1] between two fingerprints.

    Computed as an exponential kernel over the mean absolute feature
    distance in bins: identical dies re-measure within fractions of a
    bin; different dies disagree by several bins.
    """
    if reference.route_names != probe.route_names:
        raise AttackError("fingerprints cover different probe routes")
    distance = float(
        np.mean(np.abs(reference.features - probe.features))
    )
    return float(np.exp(-distance / 0.75))


def is_same_device(
    reference: RouteFingerprint,
    probe: RouteFingerprint,
    threshold: float = MATCH_THRESHOLD,
) -> bool:
    """Decision rule over :func:`match_score`."""
    return match_score(reference, probe) >= threshold
