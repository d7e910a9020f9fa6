"""Netlists: cells, nets and their runtime activity.

A design is a set of cells (logic elements) connected by nets.  For the
BTI simulation what matters about a net is its *activity* while the
design runs: a constant logic value (the stress pattern the paper
exploits), toggling activity (the arithmetic-heavy heater circuits), or
undriven.  Net routes bind the activity to physical segments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, FabricError
from repro.fabric.routing import Route


class CellType(enum.Enum):
    """Logic-resource classes a cell can occupy."""

    LUT = "lut"
    FLIP_FLOP = "ff"
    CARRY8 = "carry8"
    DSP48 = "dsp48"
    BRAM = "bram"
    BUFFER = "buf"
    PORT = "port"
    #: A LUT configured as an inverter inside a combinational loop --
    #: included so the DRC has something to catch in ring oscillators.
    INVERTER = "inv"


#: Cell types whose output combinationally depends on their inputs.
COMBINATIONAL_TYPES = frozenset(
    {CellType.LUT, CellType.CARRY8, CellType.BUFFER, CellType.INVERTER}
)


@dataclass(frozen=True)
class Cell:
    """One logic element instance."""

    name: str
    cell_type: CellType

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("cell name must be non-empty")


class NetActivity(enum.Enum):
    """Runtime behaviour of a net while the design executes."""

    #: Held at a constant logic value (see ``Net.static_value``).
    STATIC = "static"
    #: Toggling with some duty cycle (see ``Net.duty_high``).
    TOGGLING = "toggling"
    #: Configured but undriven.
    FLOATING = "floating"


@dataclass(frozen=True)
class Net:
    """One net: a driver, sinks, activity, and (once routed) a route.

    Attributes:
        name: net label.
        driver: driving cell name.
        sinks: driven cell names.
        activity: runtime behaviour class.
        static_value: the held value for STATIC nets (0 or 1).
        duty_high: fraction of time at logic 1 for TOGGLING nets.
        route: physical wiring, populated by the router.
    """

    name: str
    driver: str
    sinks: tuple[str, ...]
    activity: NetActivity = NetActivity.FLOATING
    static_value: Optional[int] = None
    duty_high: float = 0.5
    route: Optional[Route] = None

    def __post_init__(self) -> None:
        if self.activity is NetActivity.STATIC:
            if self.static_value not in (0, 1):
                raise ConfigurationError(
                    f"static net {self.name!r} needs static_value 0 or 1, "
                    f"got {self.static_value!r}"
                )
        if not 0.0 <= self.duty_high <= 1.0:
            raise ConfigurationError(
                f"duty_high must be in [0, 1], got {self.duty_high}"
            )

    def with_route(self, route: Route) -> "Net":
        """A copy of this net bound to a physical route."""
        return Net(
            name=self.name,
            driver=self.driver,
            sinks=self.sinks,
            activity=self.activity,
            static_value=self.static_value,
            duty_high=self.duty_high,
            route=route,
        )

    def with_static_value(self, value: int) -> "Net":
        """A copy of this net holding a different constant value."""
        return Net(
            name=self.name,
            driver=self.driver,
            sinks=self.sinks,
            activity=NetActivity.STATIC,
            static_value=value,
            duty_high=self.duty_high,
            route=self.route,
        )


@dataclass
class Netlist:
    """A design's cells and nets."""

    name: str
    cells: dict[str, Cell] = field(default_factory=dict)
    nets: dict[str, Net] = field(default_factory=dict)

    def add_cell(self, cell: Cell) -> Cell:
        """Register a cell; names must be unique."""
        if cell.name in self.cells:
            raise FabricError(f"duplicate cell name {cell.name!r}")
        self.cells[cell.name] = cell
        return cell

    def add_net(self, net: Net) -> Net:
        """Register a net; driver and sinks must exist."""
        if net.name in self.nets:
            raise FabricError(f"duplicate net name {net.name!r}")
        if net.driver not in self.cells:
            raise FabricError(
                f"net {net.name!r} driven by unknown cell {net.driver!r}"
            )
        for sink in net.sinks:
            if sink not in self.cells:
                raise FabricError(
                    f"net {net.name!r} drives unknown cell {sink!r}"
                )
        self.nets[net.name] = net
        return net

    def combinational_graph(self) -> dict[str, list[str]]:
        """Combinational cell-to-cell dependencies: cell -> successors.

        Edges run driver -> sink, restricted to combinational cell
        types; flip-flops break the path.  Used by the DRC's
        ring-oscillator scan.  Only cells that touch an edge become
        keys (a cell without one is on no cycle), in cell order, so a
        design's sequential logic -- the heater's FF -> DSP -> FF
        units -- never enters the cycle search.  Each cell's successors
        come in net order, each once.
        """
        cells = self.cells
        successors: dict[str, dict[str, None]] = {}
        for net in self.nets.values():
            if cells[net.driver].cell_type not in COMBINATIONAL_TYPES:
                continue
            for sink in net.sinks:
                if cells[sink].cell_type in COMBINATIONAL_TYPES:
                    successors.setdefault(net.driver, {})[sink] = None
                    successors.setdefault(sink, {})
        return {
            name: list(successors[name]) for name in cells if name in successors
        }

    def static_nets(self) -> list[Net]:
        """Nets held at a constant value while the design runs."""
        return [n for n in self.nets.values() if n.activity is NetActivity.STATIC]

    def toggling_nets(self) -> list[Net]:
        """Nets with switching activity while the design runs."""
        return [n for n in self.nets.values() if n.activity is NetActivity.TOGGLING]

    def routed_nets(self) -> list[Net]:
        """Nets that have been bound to physical routes."""
        return [n for n in self.nets.values() if n.route is not None]

    def merge(self, other: "Netlist", prefix: str = "") -> None:
        """Absorb another netlist, optionally prefixing its names."""
        for cell in other.cells.values():
            self.add_cell(Cell(name=prefix + cell.name, cell_type=cell.cell_type))
        for net in other.nets.values():
            renamed = Net(
                name=prefix + net.name,
                driver=prefix + net.driver,
                sinks=tuple(prefix + s for s in net.sinks),
                activity=net.activity,
                static_value=net.static_value,
                duty_high=net.duty_high,
                route=net.route,
            )
            self.add_net(renamed)
