"""Routers: delay-targeting serpentine routes and wire compositions.

* :class:`DelayTargetRouter` realises the experiments' "a route with
  1000/2000/5000/10000 ps of delay" specification: it composes wire
  segments (preferring LONG lines, as the vendor router does for long
  connections) into a serpentine chain starting at a given tile, snaking
  within the die, and avoiding segments already claimed by other routes.
* :func:`compose_displacement` gives the wire classes a point-to-point
  connection uses, which the OpenTitan route-length study prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.fabric.geometry import Coordinate, FabricGrid
from repro.fabric.routing import Route, SegmentId
from repro.fabric.segments import SegmentKind, spec_for

#: Wire classes usable for general routing, longest reach first.
_GENERAL_CLASSES = (
    SegmentKind.LONG,
    SegmentKind.QUAD,
    SegmentKind.DOUBLE,
    SegmentKind.SINGLE,
    SegmentKind.LOCAL,
)


def compose_delay(
    target_delay_ps: float, tolerance: float = 0.05
) -> list[SegmentKind]:
    """Choose a segment mix whose nominal delay approximates a target.

    Greedy over wire classes from longest to shortest reach, mirroring
    how physical-design tools build long connections.  Raises
    :class:`RoutingError` if the achievable delay misses the target by
    more than ``tolerance`` (fractional).
    """
    if target_delay_ps <= 0.0:
        raise RoutingError(f"target delay must be positive, got {target_delay_ps}")
    chosen: list[SegmentKind] = []
    remaining = target_delay_ps
    for kind in _GENERAL_CLASSES:
        delay = spec_for(kind).delay_ps
        while remaining >= delay - spec_for(SegmentKind.LOCAL).delay_ps / 2.0:
            chosen.append(kind)
            remaining -= delay
    if not chosen:
        chosen.append(SegmentKind.LOCAL)
        remaining -= spec_for(SegmentKind.LOCAL).delay_ps
    achieved = sum(spec_for(kind).delay_ps for kind in chosen)
    error = abs(achieved - target_delay_ps) / target_delay_ps
    if error > tolerance:
        raise RoutingError(
            f"cannot compose {target_delay_ps} ps within {tolerance:.0%}: "
            f"best achievable {achieved} ps"
        )
    return chosen


class _SerpentineCursor:
    """Walks a serpentine over the die: up a column, over, down the next.

    Horizontal motion bounces off the die edges, so arbitrarily long
    routes stay on-die; physical disjointness between revisited origins
    is handled by track allocation.
    """

    def __init__(self, grid: FabricGrid, anchor: Coordinate) -> None:
        if grid.columns < 2:
            raise RoutingError("serpentine routing needs at least two columns")
        self._grid = grid
        self._x = anchor.x
        self._y = anchor.y
        self._y_dir = 1
        self._x_dir = 1

    def advance(self, span: int) -> Coordinate:
        """Return the next segment origin and step the cursor by ``span``."""
        top = self._grid.rows - 1
        bottom = self._grid.shell_rows
        if self._y_dir > 0 and self._y + span > top:
            self._step_column()
            self._y_dir = -1
        elif self._y_dir < 0 and self._y - span < bottom:
            self._step_column()
            self._y_dir = 1
        origin = Coordinate(self._x, self._y)
        self._y += self._y_dir * span
        return origin

    def _step_column(self) -> None:
        nxt = self._x + self._x_dir
        if not 0 <= nxt < self._grid.columns:
            self._x_dir = -self._x_dir
            nxt = self._x + self._x_dir
        self._x = nxt


@dataclass
class DelayTargetRouter:
    """Builds serpentine routes of a requested nominal delay.

    The router walks up and down a column band starting from the route's
    anchor tile, claiming one segment per step and switching to the next
    column when it reaches the die edge.  A shared ``occupied`` set keeps
    simultaneously-built routes physically disjoint.
    """

    grid: FabricGrid
    tracks_per_class: int = 8
    occupied: set = field(default_factory=set)

    def route(
        self,
        name: str,
        anchor: Coordinate,
        target_delay_ps: float,
        tolerance: float = 0.05,
    ) -> Route:
        """Build a route named ``name`` anchored at ``anchor``.

        The anchor must be user-visible.  The achieved nominal delay is
        within ``tolerance`` of the target.
        """
        self.grid.require_user_visible(anchor)
        kinds = compose_delay(target_delay_ps, tolerance)
        segments: list[SegmentId] = []
        cursor = _SerpentineCursor(self.grid, anchor)
        for kind in kinds:
            span = max(spec_for(kind).span_tiles, 1)
            origin = cursor.advance(span)
            segments.append(self._claim(kind, origin))
        route = Route(name=name, segments=tuple(segments))
        return route

    def _claim(self, kind: SegmentKind, origin: Coordinate) -> SegmentId:
        """Claim a free track of ``kind`` at ``origin``."""
        for track in range(self.tracks_per_class):
            candidate = SegmentId(kind=kind, origin=origin, track=track)
            if candidate not in self.occupied:
                self.occupied.add(candidate)
                return candidate
        raise RoutingError(
            f"all {self.tracks_per_class} tracks of {kind.value} at "
            f"{origin} are occupied"
        )


def compose_displacement(dx: int, dy: int) -> list[SegmentKind]:
    """Segment kinds covering a tile displacement, longest-reach first.

    The greedy longest-first decomposition per axis is what a
    delay-minimising maze route over the uncongested interconnect graph
    produces (longer wire classes cover more tiles per picosecond), plus
    the LOCAL pin hop at each end.
    """
    kinds: list[SegmentKind] = [SegmentKind.LOCAL]
    for distance in (abs(dx), abs(dy)):
        remaining = distance
        for kind in (
            SegmentKind.LONG,
            SegmentKind.QUAD,
            SegmentKind.DOUBLE,
            SegmentKind.SINGLE,
        ):
            span = spec_for(kind).span_tiles
            while remaining >= span:
                kinds.append(kind)
                remaining -= span
    kinds.append(SegmentKind.LOCAL)
    return kinds


def displacement_delay_ps(dx: int, dy: int) -> float:
    """Nominal route delay for a tile displacement."""
    return float(
        sum(spec_for(kind).delay_ps for kind in compose_displacement(dx, dy))
    )

