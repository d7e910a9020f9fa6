"""Sequential extraction: burn in only as long as necessary.

Section 6.2: "The attacker can continue the burn-in process until they
are satisfied that the sensitive values are extracted."  This module
makes that precise with a per-route sequential probability ratio test
(SPRT): after every hourly measurement, each route's accumulated drift
is converted into a log-likelihood ratio between the burn-1 and burn-0
hypotheses; a route *settles* once the ratio clears the error-rate
thresholds, and the attack stops when every route has settled (or a
budget runs out).

Compared to a fixed 200-hour burn, long routes settle within hours and
only the shortest routes consume the budget -- rent time is the
attacker's main cost, so this is the economically rational attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import AnalysisError
from repro.analysis.timeseries import DeltaPsSeries


@dataclass(frozen=True)
class SprtConfig:
    """Error targets and signal model for the sequential test.

    The signal model follows the BTI power law: the expected centred
    level after ``t`` hours of burn is
    ``+/- drift_per_1kps_at_24h * (L/1000) * (t/24)**drift_exponent``.
    A mis-specified amplitude trades settle time against error rate, so
    the default is deliberately conservative (about half a lightly-aged
    cloud device's true drift).

    Attributes:
        alpha: acceptable probability of reading a 0 as a 1.
        beta: acceptable probability of reading a 1 as a 0.
        drift_per_1kps_at_24h: expected |centred drift| at 24 hours per
            1000 ps of route under the true hypothesis.
        drift_exponent: power-law exponent of the drift's growth.
        noise_sigma_ps: per-measurement noise standard deviation.
        min_observations: measurements required before a route may
            settle -- the power-law model expects most of its drift
            early, so without this guard a couple of aligned noise
            samples in the first hours could cross a threshold.
        baseline_samples: measurements averaged into the pre-burn
            baseline.  A single-sample baseline's noise would bias every
            subsequent centred level the same way (a common-mode error
            the test would integrate into a false decision).
    """

    alpha: float = 0.005
    beta: float = 0.005
    drift_per_1kps_at_24h: float = 0.2
    drift_exponent: float = 0.35
    noise_sigma_ps: float = 0.45
    min_observations: int = 5
    baseline_samples: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5 or not 0.0 < self.beta < 0.5:
            raise AnalysisError("error rates must be in (0, 0.5)")
        if self.drift_per_1kps_at_24h <= 0.0 or self.noise_sigma_ps <= 0.0:
            raise AnalysisError("signal model parameters must be positive")
        if not 0.0 < self.drift_exponent <= 1.0:
            raise AnalysisError("drift_exponent must be in (0, 1]")

    def expected_level_ps(
        self, nominal_delay_ps: float, elapsed_hours: float
    ) -> float:
        """Model |centred drift| for a route after a burn interval."""
        if elapsed_hours <= 0.0:
            return 0.0
        return (
            self.drift_per_1kps_at_24h
            * (nominal_delay_ps / 1000.0)
            * (elapsed_hours / 24.0) ** self.drift_exponent
        )

    @property
    def upper_threshold(self) -> float:
        """Log-LR above which the route settles as a 1."""
        return math.log((1.0 - self.beta) / self.alpha)

    @property
    def lower_threshold(self) -> float:
        """Log-LR below which the route settles as a 0."""
        return math.log(self.beta / (1.0 - self.alpha))


@dataclass
class _RunningSums:
    """Sufficient statistics of the marginalised-bias LLR."""

    count: int = 0
    mu: float = 0.0
    y: float = 0.0
    mu_y: float = 0.0

    def add(self, expected: float, observed: float) -> None:
        """Accumulate one (expected, observed) pair."""
        self.count += 1
        self.mu += expected
        self.y += observed
        self.mu_y += expected * observed


@dataclass
class RouteDecision:
    """Evolving SPRT state for one route."""

    route_name: str
    nominal_delay_ps: float
    log_likelihood_ratio: float = 0.0
    settled_bit: Optional[int] = None
    settled_at_hour: Optional[float] = None

    @property
    def settled(self) -> bool:
        """Whether the route has reached a decision."""
        return self.settled_bit is not None


@dataclass
class SequentialExtractor:
    """Per-route SPRT over incoming measurements.

    Feed it each measurement as it arrives (:meth:`update`); consult
    :meth:`all_settled` to decide whether to keep paying for rent time.
    Call :meth:`decisions` at any point for the current best bits (the
    LLR sign breaks ties for unsettled routes).
    """

    config: SprtConfig = field(default_factory=SprtConfig)
    _routes: dict = field(default_factory=dict)
    _baseline_value: dict = field(default_factory=dict)
    _baseline_hour: dict = field(default_factory=dict)
    _last_hour: dict = field(default_factory=dict)
    _observations: dict = field(default_factory=dict)

    def update(
        self,
        route_name: str,
        nominal_delay_ps: float,
        hour: float,
        delta_ps: float,
    ) -> RouteDecision:
        """Ingest one measurement; returns the route's updated state.

        Each measurement's *level* relative to the pre-burn baseline is
        an independent-noise observation of the accumulated drift
        (+/- drift x elapsed hours), so the log-likelihood ratio gains a
        term proportional to ``expected_level x observed_level`` per
        measurement -- the statistic's information grows cubically in
        time, which is why long routes settle within hours.
        """
        state = self._routes.get(route_name)
        if state is None:
            state = RouteDecision(
                route_name=route_name, nominal_delay_ps=nominal_delay_ps
            )
            self._routes[route_name] = state
            self._baseline_value[route_name] = [delta_ps]
            self._baseline_hour[route_name] = [hour]
            self._last_hour[route_name] = hour
            self._observations[route_name] = _RunningSums()
            return state
        if state.settled:
            return state
        if hour <= self._last_hour[route_name]:
            raise AnalysisError(
                f"route {route_name!r}: measurements must move forward"
            )
        self._last_hour[route_name] = hour
        baseline_values = self._baseline_value[route_name]
        if len(baseline_values) < self.config.baseline_samples:
            baseline_values.append(delta_ps)
            self._baseline_hour[route_name].append(hour)
            return state
        baseline = float(np.mean(baseline_values))
        baseline_hour = float(np.mean(self._baseline_hour[route_name]))
        elapsed = hour - baseline_hour
        observed = delta_ps - baseline
        expected = self.config.expected_level_ps(nominal_delay_ps, elapsed)

        # The baseline's residual noise biases *every* centred level the
        # same way, so the hypotheses are level = +/-mu_t + b + eps_t
        # with b ~ N(0, sigma_b^2).  Marginalising b makes the noise
        # equicorrelated; the LLR has the closed form
        #   (2/sigma^2) * (sum(mu*y) - lam * sum(mu) * sum(y)),
        #   lam = sigma_b^2 / (sigma^2 + T*sigma_b^2),
        # whose bias contribution is bounded in T (an un-marginalised
        # level test would integrate b into a guaranteed false decision).
        sums = self._observations[route_name]
        sums.add(expected, observed)
        sigma_sq = self.config.noise_sigma_ps**2
        sigma_b_sq = sigma_sq / len(baseline_values)
        lam = sigma_b_sq / (sigma_sq + sums.count * sigma_b_sq)
        state.log_likelihood_ratio = (2.0 / sigma_sq) * (
            sums.mu_y - lam * sums.mu * sums.y
        )
        if sums.count < self.config.min_observations:
            return state
        if state.log_likelihood_ratio >= self.config.upper_threshold:
            state.settled_bit = 1
            state.settled_at_hour = hour
        elif state.log_likelihood_ratio <= self.config.lower_threshold:
            state.settled_bit = 0
            state.settled_at_hour = hour
        return state

    def update_from_series(self, series: DeltaPsSeries) -> RouteDecision:
        """Replay a whole recorded series through the test."""
        state = None
        for hour, value in zip(series.hours, series.raw_delta_ps):
            state = self.update(
                series.route_name, series.nominal_delay_ps, hour, value
            )
        if state is None:
            raise AnalysisError(f"series {series.route_name!r} is empty")
        return state

    def all_settled(self) -> bool:
        """Whether every tracked route has settled."""
        return bool(self._routes) and all(
            s.settled for s in self._routes.values()
        )

    def settled_fraction(self) -> float:
        """Fraction of tracked routes that have settled."""
        if not self._routes:
            return 0.0
        settled = sum(1 for s in self._routes.values() if s.settled)
        return settled / len(self._routes)

    def decisions(self) -> dict[str, int]:
        """Current best bit per route (LLR sign for unsettled routes)."""
        return {
            name: (
                state.settled_bit
                if state.settled
                else int(state.log_likelihood_ratio > 0.0)
            )
            for name, state in self._routes.items()
        }

    def settle_times(self) -> dict[str, float]:
        """Hours at which each settled route reached a decision."""
        return {
            name: state.settled_at_hour
            for name, state in self._routes.items()
            if state.settled
        }

    def confidence(self, route_name: str) -> float:
        """Posterior probability of the currently-favoured bit."""
        if route_name not in self._routes:
            raise AnalysisError(f"unknown route {route_name!r}")
        llr = self._routes[route_name].log_likelihood_ratio
        posterior_one = 1.0 / (1.0 + math.exp(-np.clip(llr, -500, 500)))
        return max(posterior_one, 1.0 - posterior_one)
