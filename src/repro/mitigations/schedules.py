"""Condition schedules: how a defended design drives its secret routes.

A :class:`ConditionSchedule` yields the Target bitstream to load for
each conditioning epoch.  The unmitigated baseline
(:class:`StaticSchedule`) returns the same image forever -- the secret
sits unchanged, exactly the behaviour the attack exploits.  Each
mitigation perturbs that pattern while preserving the application's
ability to recover its own data (inversion and shuffling are
deterministic and reversible at the receiver; rotation is a protocol-
level key change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.designs.target import TargetDesign, build_target_design
from repro.fabric.bitstream import Bitstream
from repro.fabric.parts import PartDescriptor
from repro.fabric.routing import Route
from repro.rng import SeedLike


class ConditionSchedule:
    """Base: maps a conditioning epoch to the Target image to load."""

    def bitstream_for_epoch(self, epoch: int) -> Bitstream:
        """The Target image for one conditioning epoch."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Human-readable schedule name."""
        return type(self).__name__


@dataclass
class StaticSchedule(ConditionSchedule):
    """No mitigation: the same values sit on the same routes forever."""

    design: TargetDesign

    def bitstream_for_epoch(self, epoch: int) -> Bitstream:
        """The Target image for one conditioning epoch."""
        return self.design.bitstream


@dataclass
class PeriodicInversionSchedule(ConditionSchedule):
    """Invert the data every ``period_epochs`` epochs.

    Both trap pools of every route receive ~50% duty, so the
    differential imprint largely cancels.
    """

    part: PartDescriptor
    routes: Sequence[Route]
    values: Sequence[int]
    period_epochs: int = 1
    heater_dsps: int = 0

    def __post_init__(self) -> None:
        if self.period_epochs <= 0:
            raise ConfigurationError("period_epochs must be positive")
        self._plain = build_target_design(
            self.part, self.routes, self.values,
            heater_dsps=self.heater_dsps, name="mitigated-plain",
        ).bitstream
        self._inverted = build_target_design(
            self.part, self.routes, [1 - v for v in self.values],
            heater_dsps=self.heater_dsps, name="mitigated-inverted",
        ).bitstream

    def bitstream_for_epoch(self, epoch: int) -> Bitstream:
        """The Target image for one conditioning epoch."""
        phase = (epoch // self.period_epochs) % 2
        return self._inverted if phase else self._plain


@dataclass
class ShufflingSchedule(ConditionSchedule):
    """Deterministically permute the bits across routes each epoch.

    The receiver knows the permutation sequence and unshuffles; the
    routes see a pseudorandom bit stream whose long-run duty approaches
    the key's Hamming weight on every route.
    """

    part: PartDescriptor
    routes: Sequence[Route]
    values: Sequence[int]
    seed: SeedLike = 0
    heater_dsps: int = 0
    _cache: dict = field(default_factory=dict)

    def bitstream_for_epoch(self, epoch: int) -> Bitstream:
        """The Target image for one conditioning epoch."""
        if epoch not in self._cache:
            # Deterministic per-epoch permutation from the shared seed.
            seed_value = self.seed if isinstance(self.seed, int) else 0
            rng = np.random.default_rng((seed_value, epoch))
            order = rng.permutation(len(self.values))
            shuffled = [int(self.values[i]) for i in order]
            self._cache[epoch] = build_target_design(
                self.part, self.routes, shuffled,
                heater_dsps=self.heater_dsps,
                name=f"mitigated-shuffle-{epoch}",
            ).bitstream
        return self._cache[epoch]


@dataclass
class KeyRotationSchedule(ConditionSchedule):
    """Replace the secret with a fresh random key every period.

    The attacker at best recovers the *latest* key's imprint mixed with
    all previous ones; the paper notes rotation "is not always
    possible", e.g. for netlist constants.
    """

    part: PartDescriptor
    routes: Sequence[Route]
    initial_values: Sequence[int]
    period_epochs: int = 24
    seed: SeedLike = 0
    heater_dsps: int = 0
    _cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.period_epochs <= 0:
            raise ConfigurationError("period_epochs must be positive")

    def key_for_period(self, period: int) -> list[int]:
        """The key in force during a rotation period."""
        if period == 0:
            return [int(v) for v in self.initial_values]
        seed_value = self.seed if isinstance(self.seed, int) else 0
        rng = np.random.default_rng((seed_value, period))
        return [int(b) for b in rng.integers(0, 2, len(self.initial_values))]

    def bitstream_for_epoch(self, epoch: int) -> Bitstream:
        """The Target image for one conditioning epoch."""
        period = epoch // self.period_epochs
        if period not in self._cache:
            self._cache[period] = build_target_design(
                self.part, self.routes, self.key_for_period(period),
                heater_dsps=self.heater_dsps,
                name=f"mitigated-rotation-{period}",
            ).bitstream
        return self._cache[period]
