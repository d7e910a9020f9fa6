"""Bit-recovery classifiers.

Turning a route's delta-ps series back into the bit it carried is a
one-dimensional decision problem, but the usable feature differs by
threat model:

* **Threat Model 1** (pre-burn baseline available): the centred series
  drifts *up* for burn 1 and *down* for burn 0, so the late-window mean
  sign recovers the bit (:class:`BurnTrendClassifier`).
* **Threat Model 2** (no baseline; recovery only): the attacker holds
  all routes at 0 and watches.  Former burn-1 routes show a strong
  downward recovery transient; former burn-0 routes stay flat.  The
  robust slope (:class:`RecoverySlopeClassifier`) or the correlation
  with the expected stretched-exponential transient
  (:class:`MatchedFilterClassifier`) separates them.

Thresholds are chosen *unsupervised* wherever the attacker has no
labelled data: :func:`two_means_split` clusters the feature values into
two groups (1-D 2-means, equivalent to Otsu), because a real attacker
knows roughly half the key bits are ones but not which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.analysis.kernel_regression import local_linear_smooth
from repro.analysis.stats import theil_sen_slope
from repro.analysis.timeseries import DeltaPsSeries
from repro.observability.log import get_logger
from repro.observability.metrics import registry

_log = get_logger("core.classify")


def classify_tolerantly(
    series_list: Sequence[DeltaPsSeries],
    classify_bank: Callable[[Sequence[DeltaPsSeries]], dict],
    min_points: int,
    route_status: Optional[dict] = None,
    fallback_bit: int = 0,
) -> dict[str, int]:
    """Classify a route bank, degrading per-route instead of aborting.

    Series too short to yield a feature (measurements dropped past the
    retry budget) are excluded from ``classify_bank``; they -- and any
    route the bank itself could not decide -- fall back to
    ``fallback_bit`` (a guess, reported as such: ``route_status`` gets
    ``"unrecovered"`` for them and the ``routes_unrecovered_total``
    counter advances).  A bank-level :class:`AnalysisError` (e.g. too
    few classifiable routes to cluster) degrades the *whole* bank to
    guesses rather than killing the attack run.
    """
    usable = [s for s in series_list if len(s) >= min_points]
    bits: dict[str, int] = {}
    if usable:
        try:
            bits = dict(classify_bank(usable))
        except AnalysisError as exc:
            _log.warning("bank_classification_degraded", error=str(exc),
                         routes=len(usable))
            bits = {}
    for series in series_list:
        if series.route_name not in bits:
            bits[series.route_name] = fallback_bit
            if route_status is not None:
                route_status[series.route_name] = "unrecovered"
            _log.event("degraded", route=series.route_name,
                       points=len(series))
            registry.counter(
                "routes_unrecovered_total",
                "routes whose bits fell back to the default guess",
            ).inc()
    return bits


def two_means_split(values: Sequence[float]) -> float:
    """Unsupervised 1-D threshold between two clusters (2-means).

    Returns the midpoint between the converged cluster centres.  With a
    single cluster (all features alike) the threshold degenerates to the
    mean, which downstream callers should treat as "no signal".
    """
    data = np.asarray(values, dtype=float).ravel()
    if data.size < 2:
        raise AnalysisError("two_means_split needs >= 2 values")
    lo, hi = float(data.min()), float(data.max())
    if lo == hi:
        return lo
    centre_a, centre_b = lo, hi
    for _ in range(64):
        boundary = (centre_a + centre_b) / 2.0
        group_a = data[data <= boundary]
        group_b = data[data > boundary]
        if group_a.size == 0 or group_b.size == 0:
            break
        new_a, new_b = float(group_a.mean()), float(group_b.mean())
        if math.isclose(new_a, centre_a) and math.isclose(new_b, centre_b):
            break
        centre_a, centre_b = new_a, new_b
    return (centre_a + centre_b) / 2.0


@dataclass(frozen=True)
class BurnTrendClassifier:
    """Threat Model 1: classify by the late-window centred mean.

    ``tail_fraction`` controls how much of the end of the series feeds
    the feature; smoothing suppresses per-measurement noise first.
    """

    tail_fraction: float = 0.25
    smooth: bool = True

    def feature(self, series: DeltaPsSeries) -> float:
        """The classifier's decision feature for one series."""
        if len(series) < 4:
            raise AnalysisError(
                f"route {series.route_name!r}: need >= 4 measurements"
            )
        hours = series.hours_array
        values = series.centered
        if self.smooth and len(series) >= 8:
            values = local_linear_smooth(
                hours, values, bandwidth=max(4.0, float(np.ptp(hours)) / 10.0)
            )
        tail = max(int(len(series) * self.tail_fraction), 1)
        return float(np.mean(values[-tail:]))

    def classify(self, series: DeltaPsSeries) -> int:
        """The recovered bit: positive late drift means burn 1."""
        return 1 if self.feature(series) > 0.0 else 0

    def classify_many(
        self, series_list: Sequence[DeltaPsSeries]
    ) -> dict[str, int]:
        """Recovered bit per route, keyed by route name."""
        return {s.route_name: self.classify(s) for s in series_list}


@dataclass(frozen=True)
class RecoverySlopeClassifier:
    """Threat Model 2: classify by the recovery-window slope.

    Former burn-1 routes recover (slope strongly negative when the
    attacker conditions to 0); former burn-0 routes drift negligibly.
    With ``per_length_groups`` the unsupervised threshold is computed
    within each route-length group, because the recovery magnitude
    scales with length.
    """

    robust: bool = True

    def feature(self, series: DeltaPsSeries) -> float:
        """The classifier's decision feature for one series."""
        if len(series) < 3:
            raise AnalysisError(
                f"route {series.route_name!r}: need >= 3 measurements"
            )
        hours = series.hours_array
        values = series.centered
        if self.robust:
            return theil_sen_slope(hours, values)
        from repro.analysis.stats import ols_slope

        return ols_slope(hours, values)

    def classify_many(
        self,
        series_list: Sequence[DeltaPsSeries],
        conditioned_to: int = 0,
    ) -> dict[str, int]:
        """Unsupervised classification of a bank of routes.

        ``conditioned_to`` is the value the attacker holds during
        recovery; routes whose previous value *differs* from it show the
        transient.  Slopes are normalised by route length before
        clustering so all lengths share one threshold.
        """
        if conditioned_to not in (0, 1):
            raise AnalysisError("conditioned_to must be 0 or 1")
        names = [s.route_name for s in series_list]
        slopes = np.array(
            [
                self.feature(s) / max(s.nominal_delay_ps / 1000.0, 1e-9)
                for s in series_list
            ]
        )
        threshold = two_means_split(slopes)
        # Conditioning to 0 makes former-1 routes fall (more-negative
        # slope cluster = bit 1); conditioning to 1 is the mirror image.
        if conditioned_to == 0:
            bits = [1 if slope <= threshold else 0 for slope in slopes]
        else:
            bits = [0 if slope >= threshold else 1 for slope in slopes]
        return dict(zip(names, bits))


@dataclass(frozen=True)
class NullReferencedSlopeClassifier:
    """Threat Model 2 with a measured null distribution.

    A flash attack leaves the attacker holding several boards, only one
    of which carried the victim.  The others are a gift: probing them
    with the *same* measure/condition interleave yields the exact null
    distribution of recovery-window slopes -- the attacker's own
    conditioning imprint plus measurement noise -- per route and length
    class.  A victim route is declared burn-1 when its slope falls
    ``z_threshold`` null standard deviations below the null mean (for
    conditioning-to-0; mirrored for conditioning-to-1).

    This sidesteps the two failure modes of unsupervised clustering:
    heavily unbalanced secrets (almost-all-zero keys) and noisy short
    routes dragging the global threshold around.
    """

    robust: bool = True
    z_threshold: float = 1.0
    matched_tau_hours: float = 32.0
    matched_beta: float = 0.55

    def _slope(self, series: DeltaPsSeries) -> float:
        """Matched-filter projection onto the expected recovery shape.

        Projecting the centred series onto the high-pool stretched
        exponential uses the whole curve shape, outperforming a raw
        slope for the front-loaded transient.  Falls back to Theil-Sen
        when ``robust`` is disabled explicitly for studies.
        """
        hours = series.hours_array - series.hours_array[0]
        template = (
            np.exp(-((hours / self.matched_tau_hours) ** self.matched_beta))
            - 1.0
        )
        norm = float(np.linalg.norm(template))
        if norm == 0.0:
            raise AnalysisError("degenerate matched-filter template")
        if self.robust:
            # Negated so the feature, like a slope, goes negative for a
            # recovering route.
            return -float(np.dot(series.centered, template)) / norm
        return theil_sen_slope(series.hours_array, series.centered)

    def classify_many(
        self,
        victim_series: Sequence[DeltaPsSeries],
        null_series: Sequence[DeltaPsSeries],
        conditioned_to: int = 0,
    ) -> dict[str, int]:
        """Classify victim routes against per-route null statistics.

        ``null_series`` must cover every victim route name (the null
        boards ran the identical probe, so they do).
        """
        if conditioned_to not in (0, 1):
            raise AnalysisError("conditioned_to must be 0 or 1")
        if not null_series:
            raise AnalysisError("need at least one null board's series")
        null_by_route: dict[str, list[float]] = {}
        for series in null_series:
            null_by_route.setdefault(series.route_name, []).append(
                self._slope(series)
            )
        all_null = [s for slopes in null_by_route.values() for s in slopes]
        global_std = float(np.std(all_null)) if len(all_null) > 1 else 0.0
        bits: dict[str, int] = {}
        for series in victim_series:
            if series.route_name not in null_by_route:
                raise AnalysisError(
                    f"no null reference for route {series.route_name!r}"
                )
            null = np.asarray(null_by_route[series.route_name])
            centre = float(null.mean())
            spread = float(null.std()) if null.size > 1 else global_std
            spread = max(spread, global_std, 1e-9)
            z = (self._slope(series) - centre) / spread
            if conditioned_to == 0:
                bits[series.route_name] = 1 if z < -self.z_threshold else 0
            else:
                bits[series.route_name] = 0 if z > self.z_threshold else 1
        return bits


@dataclass(frozen=True)
class MatchedFilterClassifier:
    """Threat Model 2 alternative: correlate with the expected transient.

    The expected recovery shape is the high-pool stretched exponential;
    its correlation with the centred series is large and positive for
    routes that are actually recovering.
    """

    tau_hours: float = 28.0
    beta: float = 0.55

    def feature(self, series: DeltaPsSeries) -> float:
        """The classifier's decision feature for one series."""
        if len(series) < 4:
            raise AnalysisError(
                f"route {series.route_name!r}: need >= 4 measurements"
            )
        hours = series.hours_array - series.hours_array[0]
        template = np.exp(-((hours / self.tau_hours) ** self.beta)) - 1.0
        template_norm = float(np.linalg.norm(template))
        if template_norm == 0.0:
            raise AnalysisError("degenerate matched-filter template")
        values = series.centered
        # Projection onto the (downward) recovery template, per 1000 ps
        # of route so lengths share a threshold.
        projection = float(np.dot(values, template)) / template_norm
        return projection / max(series.nominal_delay_ps / 1000.0, 1e-9)

    def classify_many(
        self,
        series_list: Sequence[DeltaPsSeries],
        conditioned_to: int = 0,
    ) -> dict[str, int]:
        """Recovered bit per route, keyed by route name."""
        if conditioned_to not in (0, 1):
            raise AnalysisError("conditioned_to must be 0 or 1")
        names = [s.route_name for s in series_list]
        features = np.array([self.feature(s) for s in series_list])
        threshold = two_means_split(features)
        if conditioned_to == 0:
            bits = [1 if f >= threshold else 0 for f in features]
        else:
            bits = [0 if f <= threshold else 1 for f in features]
        return dict(zip(names, bits))
