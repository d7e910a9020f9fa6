"""Device allocation policies.

How a region hands returned devices back out is security-relevant: rapid
LIFO reallocation is what makes Threat Model 2 practical, and the
Section 8.2 mitigation is precisely a *launch rate control* -- holding
returned devices out of the pool so BTI recovery erases the pentimento
before the next tenant arrives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CapacityError, ConfigurationError
from repro.reliability.faults import maybe_inject


class AllocationOrder(enum.Enum):
    """Order in which free devices are handed to new tenants."""

    #: Most recently released first (typical warm-pool behaviour; the
    #: adversary's best case).
    LIFO = "lifo"
    #: Least recently released first.
    FIFO = "fifo"
    #: Uniformly random among free devices.
    RANDOM = "random"


@dataclass(frozen=True)
class AllocationPolicy:
    """A region's allocation behaviour.

    Attributes:
        order: hand-out order among eligible free devices.
        holdback_hours: minimum time a returned device rests before it
            becomes allocatable again (0 disables the mitigation).
    """

    order: AllocationOrder = AllocationOrder.LIFO
    holdback_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.holdback_hours < 0.0:
            raise ConfigurationError(
                f"holdback_hours must be >= 0, got {self.holdback_hours}"
            )

    def admission_check(self, region_name: str) -> None:
        """Admission control at the head of every allocation request.

        An active chaos plan firing fault site ``cloud.allocate``
        raises :class:`~repro.errors.CapacityError` exactly as a
        genuinely empty pool would, before the region touches its free
        list or consumes any allocation randomness -- so a retried
        request replays the clean run's draw sequence.
        """
        maybe_inject(
            "cloud.allocate", CapacityError,
            f"region {region_name!r}: request limit exceeded (injected "
            f"capacity miss)",
        )
