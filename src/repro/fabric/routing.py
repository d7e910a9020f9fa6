"""Routes: physically-placed chains of routing segments.

A :class:`SegmentId` names one physical segment instance on the die (the
same id always refers to the same transistors, across all designs ever
loaded -- this identity is what makes data remanence possible).  A
:class:`Route` is an ordered chain of segment ids plus bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import RoutingError
from repro.fabric.geometry import Coordinate
from repro.fabric.segments import SegmentKind, spec_for

_KIND_ORDINAL = {kind: ordinal for ordinal, kind in enumerate(SegmentKind)}


@dataclass(frozen=True, order=True)
class SegmentId:
    """Identity of one physical routing segment.

    Attributes:
        kind: the wire class.
        origin: tile coordinate where the segment starts.
        track: which of the parallel tracks of this class at the origin.

    The hash is computed once, at construction, from ints only (kind
    ordinal, x, y, track): segment ids key every device's state map,
    and the generated dataclass hash would go through the Python-level
    ``Enum.__hash__`` on every lookup.  An int tuple's hash is not
    salted by ``PYTHONHASHSEED``, so it is the same in every process
    and survives pickling.
    """

    kind: SegmentKind
    origin: Coordinate
    track: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((
            _KIND_ORDINAL[self.kind], self.origin.x, self.origin.y,
            self.track,
        )))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.kind.value}@{self.origin}.{self.track}"


@dataclass(frozen=True)
class Route:
    """An ordered chain of physical segments forming one net's wiring.

    Attributes:
        name: net/route label (e.g. ``"burn[17]"``).
        segments: the ordered segment ids.
        nominal_delay_ps: the sum of library delays (before per-die
            process variation), cached for convenience.
    """

    name: str
    segments: tuple[SegmentId, ...]
    nominal_delay_ps: float = field(default=0.0)

    def __post_init__(self) -> None:
        if not self.segments:
            raise RoutingError(f"route {self.name!r} has no segments")
        if self.nominal_delay_ps == 0.0:
            total = sum(spec_for(seg.kind).delay_ps for seg in self.segments)
            object.__setattr__(self, "nominal_delay_ps", total)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[SegmentId]:
        return iter(self.segments)

    @property
    def switch_count(self) -> int:
        """Total programmable switches along the route."""
        return sum(spec_for(seg.kind).switch_count for seg in self.segments)

    @property
    def endpoints(self) -> tuple[Coordinate, Coordinate]:
        """Origin of the first and of the last segment."""
        return self.segments[0].origin, self.segments[-1].origin


def validate_disjoint(routes: Iterable[Route]) -> None:
    """Raise :class:`RoutingError` if any two routes share a segment.

    Real bitstreams cannot drive one wire from two sources; the builders
    of the Target and Measure designs call this before compiling.
    """
    seen: dict[SegmentId, str] = {}
    for route in routes:
        for segment in route.segments:
            owner = seen.get(segment)
            if owner is not None and owner != route.name:
                raise RoutingError(
                    f"segment {segment} used by both {owner!r} and {route.name!r}"
                )
            seen[segment] = route.name
