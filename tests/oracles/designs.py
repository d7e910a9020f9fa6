"""Reference design builders: the oracles for the heater block and the DRC.

Production builds the Target design's FMA heater as a frozen block
(:func:`repro.designs.arithmetic.build_fma_array`), placed in one pass,
memoised and spliced into the design with bulk dict updates; and the
DRC's combinational graph holds only the cells that touch a
combinational edge.  This module keeps the plain versions those
replaced, so tests can compare against them with ``==``:

* :func:`build_fma_array` -- one unit at a time: add the DSP and its
  register, place each with :meth:`FixedPlacer.place_at`, search the
  nearest free flip-flop site per unit, and take the operand net's
  local track from the running net count.
* :func:`combinational_graph` -- every cell a node, edges driver ->
  sink between combinational cells, as a networkx graph;
* :func:`canonical_cycles` -- ``networkx.simple_cycles`` put in the
  DRC's canonical order, and :func:`combinational_loops`, the loops a
  DRC report must list for a netlist.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import PlacementError
from repro.fabric.geometry import Coordinate, TileType
from repro.fabric.netlist import (
    COMBINATIONAL_TYPES,
    Cell,
    CellType,
    Net,
    NetActivity,
    Netlist,
)
from repro.fabric.placement import FixedPlacer, SITES_PER_TILE
from repro.fabric.routing import Route, SegmentId
from repro.fabric.segments import SegmentKind


def build_fma_array(
    netlist: Netlist,
    placer: FixedPlacer,
    dsp_count: int,
    avoid_columns: frozenset[int] = frozenset(),
    prefix: str = "fma",
) -> int:
    """Add ``dsp_count`` FMA units one at a time (column-major DSPs,
    each tile's free sites only)."""
    if dsp_count < 0:
        raise PlacementError(f"dsp_count must be >= 0, got {dsp_count}")
    placed = 0
    grid = placer.grid
    for coord in grid.user_tiles(TileType.DSP):
        if placed >= dsp_count:
            break
        if coord.x in avoid_columns:
            continue
        used = placer._next_index.get((coord, CellType.DSP48), 0)
        for _ in range(SITES_PER_TILE[CellType.DSP48] - used):
            if placed >= dsp_count:
                break
            _add_fma_unit(netlist, placer, coord, f"{prefix}{placed}")
            placed += 1
    if placed < dsp_count:
        raise PlacementError(
            f"only {placed} of {dsp_count} requested DSP sites available"
        )
    return placed


def _add_fma_unit(
    netlist: Netlist, placer: FixedPlacer, coord: Coordinate, name: str
) -> None:
    """One FMA unit: DSP48 + operand register, with toggling nets."""
    dsp = netlist.add_cell(Cell(name=f"{name}_dsp", cell_type=CellType.DSP48))
    reg = netlist.add_cell(Cell(name=f"{name}_reg", cell_type=CellType.FLIP_FLOP))
    placer.place_at(dsp.name, CellType.DSP48, coord)
    reg_tile = placer.nearest_tile(coord, CellType.FLIP_FLOP)
    placer.place_at(reg.name, CellType.FLIP_FLOP, reg_tile)
    operand_route = Route(
        name=f"{name}_op_route",
        segments=(SegmentId(SegmentKind.LOCAL, reg_tile,
                            track=1000 + len(netlist.nets)),),
    )
    netlist.add_net(
        Net(
            name=f"{name}_op",
            driver=reg.name,
            sinks=(dsp.name,),
            activity=NetActivity.TOGGLING,
            duty_high=0.5,
        ).with_route(operand_route)
    )
    netlist.add_net(
        Net(
            name=f"{name}_acc",
            driver=dsp.name,
            sinks=(reg.name,),
            activity=NetActivity.TOGGLING,
            duty_high=0.5,
        )
    )


def combinational_graph(netlist: Netlist) -> nx.DiGraph:
    """Every cell a node; edges driver -> sink between combinational cells."""
    graph = nx.DiGraph()
    for cell in netlist.cells.values():
        graph.add_node(cell.name)
    for net in netlist.nets.values():
        if netlist.cells[net.driver].cell_type not in COMBINATIONAL_TYPES:
            continue
        for sink in net.sinks:
            if netlist.cells[sink].cell_type in COMBINATIONAL_TYPES:
                graph.add_edge(net.driver, sink)
    return graph


def canonical_cycles(graph: nx.DiGraph) -> tuple[tuple[str, ...], ...]:
    """networkx's simple cycles in the DRC's order: each rotated to
    start at its earliest node (graph node order), then sorted by the
    nodes' positions."""
    position = {node: i for i, node in enumerate(graph)}
    loops = []
    for cycle in nx.simple_cycles(graph):
        first = min(range(len(cycle)), key=lambda i: position[cycle[i]])
        loops.append(tuple(cycle[first:] + cycle[:first]))
    loops.sort(key=lambda loop: [position[node] for node in loop])
    return tuple(loops)


def combinational_loops(netlist: Netlist) -> tuple[tuple[str, ...], ...]:
    """The full graph's cycles, in cell order."""
    return canonical_cycles(combinational_graph(netlist))
