"""Tests for netlists, cells, activity, and placement."""

import pytest

from repro.errors import ConfigurationError, FabricError, PlacementError
from repro.fabric.geometry import Coordinate, FabricGrid
from repro.fabric.netlist import Cell, CellType, Net, NetActivity, Netlist
from repro.fabric.placement import (
    SITES_PER_TILE,
    ClusteredPlacer,
    FixedPlacer,
)


def small_netlist():
    netlist = Netlist(name="t")
    netlist.add_cell(Cell("ff1", CellType.FLIP_FLOP))
    netlist.add_cell(Cell("lut1", CellType.LUT))
    return netlist


class TestNetlist:
    def test_duplicate_cell_rejected(self):
        netlist = small_netlist()
        with pytest.raises(FabricError):
            netlist.add_cell(Cell("ff1", CellType.FLIP_FLOP))

    def test_net_with_unknown_driver_rejected(self):
        netlist = small_netlist()
        with pytest.raises(FabricError):
            netlist.add_net(Net("n", driver="ghost", sinks=("lut1",)))

    def test_net_with_unknown_sink_rejected(self):
        netlist = small_netlist()
        with pytest.raises(FabricError):
            netlist.add_net(Net("n", driver="ff1", sinks=("ghost",)))

    def test_static_net_requires_value(self):
        with pytest.raises(ConfigurationError):
            Net("n", driver="a", sinks=(), activity=NetActivity.STATIC)

    def test_static_value_must_be_bit(self):
        with pytest.raises(ConfigurationError):
            Net("n", driver="a", sinks=(), activity=NetActivity.STATIC,
                static_value=2)

    def test_with_static_value_copies(self):
        net = Net("n", driver="a", sinks=("b",),
                  activity=NetActivity.STATIC, static_value=0)
        flipped = net.with_static_value(1)
        assert flipped.static_value == 1
        assert net.static_value == 0

    def test_classification_helpers(self):
        netlist = small_netlist()
        netlist.add_net(Net("s", driver="ff1", sinks=("lut1",),
                            activity=NetActivity.STATIC, static_value=1))
        netlist.add_net(Net("t", driver="ff1", sinks=("lut1",),
                            activity=NetActivity.TOGGLING))
        assert [n.name for n in netlist.static_nets()] == ["s"]
        assert [n.name for n in netlist.toggling_nets()] == ["t"]

    def test_combinational_graph_breaks_at_flip_flops(self):
        netlist = Netlist(name="g")
        netlist.add_cell(Cell("lut_a", CellType.LUT))
        netlist.add_cell(Cell("ff", CellType.FLIP_FLOP))
        netlist.add_cell(Cell("lut_b", CellType.LUT))
        netlist.add_net(Net("n1", driver="lut_a", sinks=("ff",)))
        netlist.add_net(Net("n2", driver="ff", sinks=("lut_b",)))
        assert netlist.combinational_graph() == {}

    def test_combinational_loop_visible_in_graph(self):
        from repro.fabric.drc import combinational_loops

        netlist = Netlist(name="ro")
        netlist.add_cell(Cell("inv", CellType.INVERTER))
        netlist.add_net(Net("loop", driver="inv", sinks=("inv",)))
        graph = netlist.combinational_graph()
        assert graph == {"inv": ["inv"]}
        assert combinational_loops(graph) == (("inv",),)

    def test_merge_with_prefix(self):
        a, b = small_netlist(), small_netlist()
        a.merge(b, prefix="sub_")
        assert "sub_ff1" in a.cells
        assert len(a.cells) == 4


class TestFixedPlacer:
    def _grid(self):
        return FabricGrid(16, 16)

    def test_place_at_fills_sites_in_order(self):
        placer = FixedPlacer(self._grid())
        coord = Coordinate(0, 0)
        s0 = placer.place_at("a", CellType.LUT, coord)
        s1 = placer.place_at("b", CellType.LUT, coord)
        assert (s0.index, s1.index) == (0, 1)

    def test_tile_capacity_enforced(self):
        placer = FixedPlacer(self._grid())
        coord = Coordinate(0, 0)
        for i in range(SITES_PER_TILE[CellType.LUT]):
            placer.place_at(f"c{i}", CellType.LUT, coord)
        with pytest.raises(PlacementError):
            placer.place_at("overflow", CellType.LUT, coord)

    def test_wrong_tile_type_rejected(self):
        placer = FixedPlacer(self._grid())
        clb = Coordinate(0, 0)
        with pytest.raises(PlacementError):
            placer.place_at("d", CellType.DSP48, clb)

    def test_different_cell_types_share_a_tile(self):
        placer = FixedPlacer(self._grid())
        coord = Coordinate(0, 0)
        placer.place_at("lut", CellType.LUT, coord)
        placer.place_at("ff", CellType.FLIP_FLOP, coord)
        placer.place_at("carry", CellType.CARRY8, coord)

    def test_nearest_tile_skips_full_tiles(self):
        placer = FixedPlacer(self._grid())
        first = placer.nearest_tile(Coordinate(0, 0), CellType.CARRY8)
        placer.place_at("c0", CellType.CARRY8, first)
        second = placer.nearest_tile(Coordinate(0, 0), CellType.CARRY8)
        assert second != first

    def test_duplicate_cell_name_rejected(self):
        placer = FixedPlacer(self._grid())
        placer.place_at("a", CellType.LUT, Coordinate(0, 0))
        with pytest.raises(PlacementError):
            placer.place_at("a", CellType.LUT, Coordinate(1, 0))


class TestClusteredPlacer:
    def test_cluster_lands_near_centroid(self):
        grid = FabricGrid(32, 32)
        placer = ClusteredPlacer(grid, seed=5)
        names = [f"c{i}" for i in range(20)]
        centre = Coordinate(16, 16)
        placer.place_cluster(names, CellType.LUT, centre, spread_tiles=2.0)
        distances = [
            placer.placement.location_of(n).manhattan_distance(centre)
            for n in names
        ]
        assert max(distances) < 16
        assert sum(distances) / len(distances) < 8

    def test_negative_spread_rejected(self):
        placer = ClusteredPlacer(FabricGrid(8, 8), seed=1)
        with pytest.raises(PlacementError):
            placer.place_cluster(["a"], CellType.LUT, Coordinate(4, 4), -1.0)
