"""Experiment parameterisations.

``paper()`` constructors reproduce the published protocols exactly
(16 routes per length, 200-hour periods, hourly measurement);
``quick()`` constructors shrink routes and hours for tests and smoke
runs while keeping every phase of the protocol intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: The paper's four studied route-delay classes, ps.
PAPER_LENGTH_CLASSES = (1000.0, 2000.0, 5000.0, 10000.0)


def _expand_lengths(lengths: tuple, per_length: int) -> tuple:
    return tuple(
        float(length) for length in lengths for _ in range(per_length)
    )


@dataclass(frozen=True)
class Experiment1Config:
    """Experiment 1 (lab): burn-in then recovery on a new ZCU102."""

    length_classes: tuple = PAPER_LENGTH_CLASSES
    routes_per_length: int = 16
    burn_hours: int = 200
    recovery_hours: int = 200
    oven_celsius: float = 60.0
    measure_every_hours: float = 1.0
    heater_dsps: int = 1150
    seed: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.routes_per_length <= 0:
            raise ConfigurationError("routes_per_length must be positive")
        if self.burn_hours <= 0 or self.recovery_hours < 0:
            raise ConfigurationError("periods must be positive")

    @property
    def route_lengths(self) -> tuple:
        """The full per-route length list the config expands to."""
        return _expand_lengths(self.length_classes, self.routes_per_length)

    @classmethod
    def paper(cls, seed: int = 1) -> "Experiment1Config":
        """The published protocol's parameterisation."""
        return cls(seed=seed)

    @classmethod
    def quick(cls, seed: int = 1) -> "Experiment1Config":
        """A shrunken configuration for tests and smoke runs."""
        return cls(
            routes_per_length=2,
            burn_hours=40,
            recovery_hours=40,
            measure_every_hours=4.0,
            heater_dsps=64,
            seed=seed,
        )


@dataclass(frozen=True)
class Experiment2Config:
    """Experiment 2 (cloud): Threat Model 1 on an aged F1 device.

    ``device_age_mean_hours`` sets the fleet's effective prior wear; the
    paper's devices carry years of deployment (the default), while the
    quick configuration uses lightly-worn devices so the shortened burn
    still produces a classifiable signal.
    """

    length_classes: tuple = PAPER_LENGTH_CLASSES
    routes_per_length: int = 16
    burn_hours: int = 200
    measure_every_hours: float = 1.0
    heater_dsps: int = 3896
    region: str = "eu-west-2"
    fleet_size: int = 4
    device_age_mean_hours: float = 4000.0
    seed: Optional[int] = 2

    @property
    def route_lengths(self) -> tuple:
        """The full per-route length list the config expands to."""
        return _expand_lengths(self.length_classes, self.routes_per_length)

    @classmethod
    def paper(cls, seed: int = 2) -> "Experiment2Config":
        """The published protocol's parameterisation."""
        return cls(seed=seed)

    @classmethod
    def quick(cls, seed: int = 2) -> "Experiment2Config":
        """A shrunken configuration for tests and smoke runs."""
        return cls(
            routes_per_length=2,
            burn_hours=60,
            measure_every_hours=4.0,
            heater_dsps=256,
            fleet_size=2,
            device_age_mean_hours=300.0,
            seed=seed,
        )


@dataclass(frozen=True)
class Experiment3Config:
    """Experiment 3 (cloud): Threat Model 2, recovery-only observation."""

    length_classes: tuple = PAPER_LENGTH_CLASSES
    routes_per_length: int = 16
    victim_burn_hours: int = 200
    recovery_hours: int = 25
    conditioned_to: int = 0
    heater_dsps: int = 3896
    region: str = "eu-west-2"
    fleet_size: int = 3
    device_age_mean_hours: float = 4000.0
    seed: Optional[int] = 3

    def __post_init__(self) -> None:
        if self.conditioned_to not in (0, 1):
            raise ConfigurationError("conditioned_to must be 0 or 1")

    @property
    def route_lengths(self) -> tuple:
        """The full per-route length list the config expands to."""
        return _expand_lengths(self.length_classes, self.routes_per_length)

    @classmethod
    def paper(cls, seed: int = 3) -> "Experiment3Config":
        """The published protocol's parameterisation."""
        return cls(seed=seed)

    @classmethod
    def quick(cls, seed: int = 3) -> "Experiment3Config":
        # The victim keeps the paper's hot (63 W) workload: the junction
        # temperature during the burn is what makes the imprint strong
        # relative to the attacker's own (cold) conditioning imprint.
        """A shrunken configuration for tests and smoke runs."""
        return cls(
            routes_per_length=3,
            victim_burn_hours=100,
            recovery_hours=18,
            fleet_size=2,
            device_age_mean_hours=300.0,
            seed=seed,
        )
