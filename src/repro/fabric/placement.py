"""Placement: binding cells to fabric sites.

The reproduction needs two placers:

* :class:`FixedPlacer` -- the Target/Measure designs use hand-placed,
  constraint-locked locations (the paper applies "identical routing
  constraints" across both designs), so their builders place explicitly.
* :class:`ClusteredPlacer` -- the OpenTitan study needs a plausible
  module-level placement: each block's cells cluster around a centroid
  with a spread, as a timing-driven placer produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlacementError
from repro.fabric.geometry import Coordinate, FabricGrid, TileType
from repro.fabric.netlist import CellType
from repro.rng import SeedLike, make_rng

#: How many cells of each type fit in one tile (an UltraScale+ CLB has
#: eight LUT/FF pairs and one CARRY8; a DSP tile here stands for a short
#: column stack of DSP48E2 slices, so the paper's 3896-DSP heater fits
#: the scaled-down grid).
SITES_PER_TILE: dict[CellType, int] = {
    CellType.LUT: 8,
    CellType.FLIP_FLOP: 16,
    CellType.CARRY8: 1,
    CellType.DSP48: 14,
    CellType.BRAM: 1,
    CellType.BUFFER: 8,
    CellType.PORT: 32,
    CellType.INVERTER: 8,
}

#: Which tile type hosts each cell type.
TILE_FOR_CELL: dict[CellType, TileType] = {
    CellType.LUT: TileType.CLB,
    CellType.FLIP_FLOP: TileType.CLB,
    CellType.CARRY8: TileType.CLB,
    CellType.BUFFER: TileType.CLB,
    CellType.INVERTER: TileType.CLB,
    CellType.PORT: TileType.CLB,
    CellType.DSP48: TileType.DSP,
    CellType.BRAM: TileType.BRAM,
}


@dataclass(frozen=True)
class Site:
    """One placement site: a tile, a resource class, and a site index."""

    coord: Coordinate
    cell_type: CellType
    index: int


@dataclass
class Placement:
    """A complete cell-to-site assignment for one design."""

    sites: dict[str, Site] = field(default_factory=dict)
    _occupied: set = field(default_factory=set, repr=False)

    def place(self, cell_name: str, site: Site) -> None:
        """Assign a cell to a site; both must be unused."""
        if cell_name in self.sites:
            raise PlacementError(f"cell {cell_name!r} is already placed")
        if site in self._occupied:
            raise PlacementError(f"site {site} is already occupied")
        self.sites[cell_name] = site
        self._occupied.add(site)

    def location_of(self, cell_name: str) -> Coordinate:
        """The tile coordinate a cell occupies."""
        if cell_name not in self.sites:
            raise PlacementError(f"cell {cell_name!r} is not placed")
        return self.sites[cell_name].coord


class FixedPlacer:
    """Places cells at caller-chosen tiles, tracking site occupancy."""

    def __init__(self, grid: FabricGrid) -> None:
        self.grid = grid
        self.placement = Placement()
        self._next_index: dict[tuple[Coordinate, CellType], int] = {}

    def place_at(
        self, cell_name: str, cell_type: CellType, coord: Coordinate
    ) -> Site:
        """Place a cell at the next free site of its type in a tile."""
        self.grid.require_user_visible(coord)
        expected_tile = TILE_FOR_CELL[cell_type]
        if self.grid.tile_type(coord) is not expected_tile:
            raise PlacementError(
                f"cell {cell_name!r} of type {cell_type.value} needs a "
                f"{expected_tile.value} tile, but {coord} is "
                f"{self.grid.tile_type(coord).value}"
            )
        key = (coord, cell_type)
        index = self._next_index.get(key, 0)
        if index >= SITES_PER_TILE[cell_type]:
            raise PlacementError(
                f"tile {coord} has no free {cell_type.value} site"
            )
        self._next_index[key] = index + 1
        site = Site(coord=coord, cell_type=cell_type, index=index)
        self.placement.place(cell_name, site)
        return site

    def nearest_tile(
        self, near: Coordinate, cell_type: CellType, max_radius: int = 48
    ) -> Coordinate:
        """The closest tile with a *free* site for a cell type.

        Searches outward in Manhattan rings, skipping tiles whose sites
        of this type are already exhausted.
        """
        target = TILE_FOR_CELL[cell_type]
        capacity = SITES_PER_TILE[cell_type]
        for radius in range(max_radius + 1):
            for dx in range(-radius, radius + 1):
                dy_mag = radius - abs(dx)
                for dy in {dy_mag, -dy_mag}:
                    coord = near.offset(dx, dy)
                    if (
                        self.grid.is_user_visible(coord)
                        and self.grid.tile_type(coord) is target
                        and self._next_index.get((coord, cell_type), 0) < capacity
                    ):
                        return coord
        raise PlacementError(
            f"no free {target.value} site within radius {max_radius} of {near}"
        )


class ClusteredPlacer:
    """Places each module's cells in a Gaussian cluster around a centroid.

    Mimics the locality of a timing-driven placer: cells of one module
    land near each other, while inter-module nets span the centroid
    distance.  Used to generate the OpenTitan Earl Grey placement.
    """

    def __init__(self, grid: FabricGrid, seed: SeedLike = None) -> None:
        self.grid = grid
        self._fixed = FixedPlacer(grid)
        self._rng = make_rng(seed)

    @property
    def placement(self) -> Placement:
        """The accumulated cell-to-site assignment."""
        return self._fixed.placement

    def place_cluster(
        self,
        cell_names: list[str],
        cell_type: CellType,
        centroid: Coordinate,
        spread_tiles: float,
        max_attempts: int = 64,
    ) -> None:
        """Place cells around ``centroid`` with the given spread."""
        if spread_tiles < 0.0:
            raise PlacementError(f"spread must be >= 0, got {spread_tiles}")
        for name in cell_names:
            site = self._sample_site(cell_type, centroid, spread_tiles, max_attempts)
            self._fixed.placement.place(name, site)

    def _sample_site(
        self,
        cell_type: CellType,
        centroid: Coordinate,
        spread: float,
        max_attempts: int,
    ) -> Site:
        for _ in range(max_attempts):
            dx = int(round(self._rng.normal(0.0, max(spread, 0.01))))
            dy = int(round(self._rng.normal(0.0, max(spread, 0.01))))
            candidate = centroid.offset(dx, dy)
            if not self.grid.is_user_visible(candidate):
                continue
            try:
                tile = self._fixed.nearest_tile(candidate, cell_type, max_radius=6)
            except PlacementError:
                continue
            key = (tile, cell_type)
            index = self._fixed._next_index.get(key, 0)
            if index >= SITES_PER_TILE[cell_type]:
                continue
            self._fixed._next_index[key] = index + 1
            return Site(coord=tile, cell_type=cell_type, index=index)
        raise PlacementError(
            f"could not place a {cell_type.value} near {centroid} "
            f"(spread {spread}) after {max_attempts} attempts"
        )
