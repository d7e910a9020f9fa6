"""Arithmetic-heavy heater circuits.

The Target design surrounds the routes under test with "arrays of logic
performing a pipelined fused multiply-add operation (similar to a
machine learning or lattice cryptography accelerator)", which emulates
realistic surrounding computation and -- deliberately -- heats the die
to accelerate BTI.  Experiment 2's instance uses 3896 DSPs and draws
63 W against the 85 W AWS cap.

Each FMA unit is one DSP48 plus a pipeline register, with toggling
operand/result nets routed locally at the register's tile.

The heater is built as a frozen block: its cells, nets, sites and site
counters are computed in one pass, memoised, and spliced into a design
with bulk dict updates.  The block is exactly what placing the units
one at a time would add (``tests/oracles/designs.py`` keeps that
per-unit builder as the oracle), so its cache key holds everything the
placement reads:

* the grid shape, ``dsp_count``, the keep-out columns and the name
  prefix;
* the design's net count before the heater, because every operand net
  takes local track ``1000 + len(netlist.nets)``;
* the placer's DSP and flip-flop site counters, because the units fill
  the next free DSP site of each tile and put their register on the
  nearest CLB with a free flip-flop site (the route drivers a Target
  design places first take some of those).

Nothing here depends on a seed or a secret, so every Target design of
one shape shares one block.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import FabricError, PlacementError
from repro.fabric.geometry import Coordinate, FabricGrid, TileType
from repro.fabric.netlist import Cell, CellType, Net, NetActivity, Netlist
from repro.fabric.placement import FixedPlacer, SITES_PER_TILE, Site
from repro.fabric.routing import Route, SegmentId
from repro.fabric.segments import SegmentKind

#: A run builds heaters of a handful of shapes (one per experiment
#: configuration); a 3,896-unit block holds about 31k frozen objects,
#: so the cache keeps only the most recent few.
_HEATER_CACHE_MAX = 4

_heater_cache: "OrderedDict[tuple, _HeaterBlock]" = OrderedDict()

#: The placer counters a heater reads and advances.
_HEATER_CELL_TYPES = (CellType.DSP48, CellType.FLIP_FLOP)


@dataclass(frozen=True)
class _HeaterBlock:
    """One heater's netlist and placement additions, in insertion order.

    The dicts are never mutated after the build; splicing copies their
    entries into a design's own dicts.
    """

    cells: dict[str, Cell]
    nets: dict[str, Net]
    sites: dict[str, Site]
    occupied: frozenset[Site]
    #: Final counter of every (tile, cell type) the heater placed into.
    next_index: dict[tuple[Coordinate, CellType], int]


def clear_heater_cache() -> None:
    """Drop every cached heater block (tests and benchmarks)."""
    _heater_cache.clear()


def build_fma_array(
    netlist: Netlist,
    placer: FixedPlacer,
    dsp_count: int,
    avoid_columns: frozenset[int] = frozenset(),
    prefix: str = "fma",
) -> int:
    """Add a pipelined FMA array of ``dsp_count`` units to a netlist.

    Units fill the free DSP sites tile by tile, column-major, skipping
    tiles an earlier design filled and ``avoid_columns`` (the region
    reserved for the routes under test and the Measure design's future
    carry chains -- the Target design's keep-out).  Returns the
    number of units placed; raises :class:`PlacementError`, before
    adding anything, if fewer than ``dsp_count`` DSP sites are
    available.
    """
    if dsp_count < 0:
        raise PlacementError(f"dsp_count must be >= 0, got {dsp_count}")
    if dsp_count == 0:
        return 0
    grid = placer.grid
    avoid_columns = frozenset(avoid_columns)
    net_count = len(netlist.nets)
    counters = frozenset(
        item for item in placer._next_index.items()
        if item[0][1] in _HEATER_CELL_TYPES
    )
    key = (grid.columns, grid.rows, grid.shell_rows, dsp_count,
           avoid_columns, prefix, net_count, counters)
    block = _heater_cache.get(key)
    if block is None:
        block = _build_block(grid, dsp_count, avoid_columns, prefix,
                             net_count, dict(counters))
        _heater_cache[key] = block
        if len(_heater_cache) > _HEATER_CACHE_MAX:
            _heater_cache.popitem(last=False)
    else:
        _heater_cache.move_to_end(key)
    _splice(netlist, placer, block)
    return dsp_count


def _splice(netlist: Netlist, placer: FixedPlacer, block: _HeaterBlock) -> None:
    """Add a block to a design, with the checks a per-unit add makes."""
    if not (netlist.cells.keys().isdisjoint(block.cells)
            and netlist.nets.keys().isdisjoint(block.nets)):
        raise FabricError("heater cell or net names already in the netlist")
    placement = placer.placement
    if not placement.sites.keys().isdisjoint(block.sites):
        raise PlacementError("heater cells are already placed")
    if not placement._occupied.isdisjoint(block.occupied):
        raise PlacementError("heater sites are already occupied")
    netlist.cells.update(block.cells)
    netlist.nets.update(block.nets)
    placement.sites.update(block.sites)
    placement._occupied |= block.occupied
    placer._next_index.update(block.next_index)


def _build_block(
    grid: FabricGrid,
    dsp_count: int,
    avoid_columns: frozenset[int],
    prefix: str,
    net_count: int,
    counters: dict[tuple[Coordinate, CellType], int],
) -> _HeaterBlock:
    """Place ``dsp_count`` units in one pass over the DSP tiles.

    A unit's register goes to the placer's nearest CLB with a free
    flip-flop site.  That tile stays the nearest one until it fills,
    because placing flip-flops only removes free sites, so the search
    runs once per DSP tile and once per filled CLB, not once per unit.
    """
    dsp, ff = CellType.DSP48, CellType.FLIP_FLOP
    dsp_capacity, ff_capacity = SITES_PER_TILE[dsp], SITES_PER_TILE[ff]
    # A private placer over the caller's counters runs the nearest-tile
    # search without touching the caller's placer.
    search = FixedPlacer(grid)
    next_index = search._next_index
    next_index.update(counters)
    cells: dict[str, Cell] = {}
    nets: dict[str, Net] = {}
    sites: dict[str, Site] = {}
    placed = 0
    for coord in grid.user_tiles(TileType.DSP):
        if placed >= dsp_count:
            break
        if coord.x in avoid_columns:
            continue
        first = next_index.get((coord, dsp), 0)
        units = min(dsp_capacity - first, dsp_count - placed)
        if units <= 0:
            continue  # an earlier design filled this tile
        next_index[(coord, dsp)] = first + units
        reg_tile = None
        for offset in range(units):
            if reg_tile is None or next_index[(reg_tile, ff)] >= ff_capacity:
                reg_tile = search.nearest_tile(coord, ff)
            ff_index = next_index.get((reg_tile, ff), 0)
            next_index[(reg_tile, ff)] = ff_index + 1
            name = f"{prefix}{placed}"
            dsp_name, reg_name = f"{name}_dsp", f"{name}_reg"
            cells[dsp_name] = Cell(name=dsp_name, cell_type=dsp)
            cells[reg_name] = Cell(name=reg_name, cell_type=ff)
            sites[dsp_name] = Site(coord=coord, cell_type=dsp,
                                   index=first + offset)
            sites[reg_name] = Site(coord=reg_tile, cell_type=ff,
                                   index=ff_index)
            # Operand and result nets toggle with typical datapath
            # activity.  LOCAL hops are per-pin resources; indexing them
            # by the running net count keeps heater units from sharing
            # segments without consulting the global track allocator.
            track = 1000 + net_count + len(nets)
            nets[f"{name}_op"] = Net(
                name=f"{name}_op", driver=reg_name, sinks=(dsp_name,),
                activity=NetActivity.TOGGLING, duty_high=0.5,
                route=Route(
                    name=f"{name}_op_route",
                    segments=(SegmentId(SegmentKind.LOCAL, reg_tile, track),),
                ),
            )
            nets[f"{name}_acc"] = Net(
                name=f"{name}_acc", driver=dsp_name, sinks=(reg_name,),
                activity=NetActivity.TOGGLING, duty_high=0.5,
            )
            placed += 1
    if placed < dsp_count:
        raise PlacementError(
            f"only {placed} of {dsp_count} requested DSP sites available"
        )
    return _HeaterBlock(
        cells=cells,
        nets=nets,
        sites=sites,
        occupied=frozenset(sites.values()),
        next_index={
            k: v for k, v in next_index.items() if counters.get(k) != v
        },
    )
