"""Design power estimation.

The cloud provider enforces a power cap (85 W on AWS F1), and power sets
the on-chip temperature through :mod:`repro.fabric.thermal`, which in
turn accelerates BTI -- the paper's Target design deliberately burns
63 W in DSP-heavy arithmetic to heat the die.

The estimate is a simple activity-weighted sum over resources: adequate
because only the total (for the cap and the thermal model) matters here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fabric.netlist import CellType, NetActivity, Netlist

#: Static leakage of the configured die, watts.
STATIC_POWER_WATTS = 3.0

#: Dynamic power per active cell at full toggle rate, watts.
DYNAMIC_POWER_PER_CELL: dict[CellType, float] = {
    CellType.LUT: 0.00035,
    CellType.FLIP_FLOP: 0.0002,
    CellType.CARRY8: 0.0005,
    CellType.DSP48: 0.015,
    CellType.BRAM: 0.004,
    CellType.BUFFER: 0.0002,
    CellType.PORT: 0.0,
    CellType.INVERTER: 0.0008,
}


@dataclass(frozen=True)
class PowerReport:
    """Breakdown of a design's estimated power draw."""

    static_watts: float
    dynamic_watts: float

    @property
    def total_watts(self) -> float:
        """Static plus dynamic power."""
        return self.static_watts + self.dynamic_watts


def estimate_power(netlist: Netlist, activity_factor: float = 1.0) -> PowerReport:
    """Estimate power for a netlist at a global activity scaling.

    Cells driven only by STATIC nets consume no dynamic power; all other
    cells are charged their full per-cell dynamic figure scaled by
    ``activity_factor``.
    """
    if not 0.0 <= activity_factor <= 1.0:
        raise ConfigurationError(
            f"activity_factor must be in [0, 1], got {activity_factor}"
        )
    active: set[str] = set()
    for net in netlist.nets.values():
        if net.activity is NetActivity.TOGGLING:
            active.add(net.driver)
            active.update(net.sinks)
    # Summed in cell order, one addition per active cell.
    dynamic = 0.0
    for name, cell in netlist.cells.items():
        if name in active:
            dynamic += DYNAMIC_POWER_PER_CELL[cell.cell_type]
    return PowerReport(
        static_watts=STATIC_POWER_WATTS,
        dynamic_watts=dynamic * activity_factor,
    )
