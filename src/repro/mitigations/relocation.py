"""Relocation / wear-levelling via partial reconfiguration.

The design periodically moves its sensitive storage to a different
physical route bank ("use partial reconfiguration to move the sensitive
information ... to different locations of the chip").  Each bank
receives only a fraction of the total burn time, so the imprint at any
one location is proportionally weaker -- at the cost, the paper warns,
of spreading (weaker) imprints over more area.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError
from repro.designs.target import build_target_design
from repro.fabric.bitstream import Bitstream
from repro.fabric.geometry import FabricGrid
from repro.fabric.parts import PartDescriptor
from repro.fabric.routing import Route
from repro.mitigations.schedules import ConditionSchedule


def build_relocation_banks(
    grid: FabricGrid,
    lengths_ps: Sequence[float],
    bank_count: int,
    tracks_per_class: int = 12,
) -> list[list[Route]]:
    """``bank_count`` physically disjoint route banks of the same shape.

    Banks share a track allocator, so every bank's routes are disjoint
    from every other bank's.
    """
    if bank_count <= 0:
        raise ConfigurationError("bank_count must be positive")
    banks = []
    from repro.fabric.router import DelayTargetRouter

    router = DelayTargetRouter(grid, tracks_per_class=tracks_per_class)
    n_anchor_cols = min(max((grid.columns - 4) // 2, 1), 16)
    from repro.fabric.geometry import Coordinate

    for bank in range(bank_count):
        order = sorted(range(len(lengths_ps)), key=lambda i: -lengths_ps[i])
        routes: list = [None] * len(lengths_ps)
        for rank, index in enumerate(order):
            anchor = Coordinate((rank % n_anchor_cols) * 2, grid.shell_rows)
            routes[index] = router.route(
                f"bank{bank}-rut[{index}]", anchor, float(lengths_ps[index])
            )
        banks.append(routes)
    return banks


@dataclass
class RelocationSchedule(ConditionSchedule):
    """Rotate the secret between route banks every period."""

    part: PartDescriptor
    banks: Sequence[Sequence[Route]]
    values: Sequence[int]
    period_epochs: int = 24
    heater_dsps: int = 0
    _cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.period_epochs <= 0:
            raise ConfigurationError("period_epochs must be positive")
        if not self.banks:
            raise ConfigurationError("need at least one route bank")
        widths = {len(bank) for bank in self.banks}
        if widths != {len(self.values)}:
            raise ConfigurationError(
                "every bank must match the secret's width"
            )

    def bank_for_epoch(self, epoch: int) -> int:
        """Which route bank hosts the secret during an epoch."""
        return (epoch // self.period_epochs) % len(self.banks)

    def bitstream_for_epoch(self, epoch: int) -> Bitstream:
        """The Target image for one conditioning epoch."""
        bank = self.bank_for_epoch(epoch)
        if bank not in self._cache:
            self._cache[bank] = build_target_design(
                self.part,
                self.banks[bank],
                self.values,
                heater_dsps=self.heater_dsps,
                name=f"mitigated-relocation-{bank}",
            ).bitstream
        return self._cache[bank]
