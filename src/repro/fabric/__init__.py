"""Simulated UltraScale+-like FPGA fabric.

This package is the substitution for physical FPGA hardware.  It models
the parts of the architecture the paper's attack touches:

* a tile grid with CLB/DSP/BRAM columns (:mod:`repro.fabric.geometry`);
* the programmable-routing segment library -- single/double/quad/long
  wires joined by switch (PIP) transistors (:mod:`repro.fabric.segments`);
* routes as chains of segments, built by a delay-targeting router (the
  experiments specify routes by nominal delay; :mod:`repro.fabric.router`);
* logic resources, netlists, placement (:mod:`repro.fabric.resources`,
  :mod:`repro.fabric.netlist`, :mod:`repro.fabric.placement`);
* compiled bitstreams, including sealed marketplace images
  (:mod:`repro.fabric.bitstream`);
* the provider-side design rule checks (:mod:`repro.fabric.drc`);
* power estimation and the thermal model (:mod:`repro.fabric.power`,
  :mod:`repro.fabric.thermal`);
* :class:`~repro.fabric.device.FpgaDevice` -- one physical die whose
  per-segment BTI state **persists across design loads and wipes**.
"""

from repro.fabric.bitstream import Bitstream, SealedBitstream
from repro.fabric.device import FpgaDevice
from repro.fabric.geometry import Coordinate, FabricGrid, TileType
from repro.fabric.netlist import Cell, CellType, Net, Netlist, NetActivity
from repro.fabric.parts import PartDescriptor, VIRTEX_ULTRASCALE_PLUS, ZYNQ_ULTRASCALE_PLUS
from repro.fabric.router import DelayTargetRouter
from repro.fabric.routing import Route, SegmentId
from repro.fabric.segments import SegmentKind, SEGMENT_LIBRARY

__all__ = [
    "Bitstream",
    "Cell",
    "CellType",
    "Coordinate",
    "DelayTargetRouter",
    "FabricGrid",
    "FpgaDevice",
    "Net",
    "NetActivity",
    "Netlist",
    "PartDescriptor",
    "Route",
    "SEGMENT_LIBRARY",
    "SealedBitstream",
    "SegmentId",
    "SegmentKind",
    "TileType",
    "VIRTEX_ULTRASCALE_PLUS",
    "ZYNQ_ULTRASCALE_PLUS",
]
