"""The heater block and the trimmed DRC graph against their oracles.

``build_fma_array`` splices a memoised block into a design; the oracle
in ``tests/oracles/designs.py`` adds the same units one at a time.  The
two must leave equal netlists and placers, in insertion order, and
refuse the same requests.  The DRC's combinational graph keeps only the
cells on a combinational edge; its loops must match the full graph's.
"""

import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.designs import build_route_bank
from repro.designs import arithmetic
from repro.designs.arithmetic import build_fma_array, clear_heater_cache
from repro.errors import FabricError, PlacementError
from repro.fabric.bitstream import Bitstream
from repro.fabric.drc import check_design
from repro.fabric.geometry import Coordinate
from repro.fabric.netlist import Cell, CellType, Net, NetActivity, Netlist
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS, ZYNQ_ULTRASCALE_PLUS
from repro.fabric.placement import FixedPlacer, Placement
from repro.sensor.ro import build_ro_netlist
from tests.oracles import designs as oracle

PARTS = (ZYNQ_ULTRASCALE_PLUS, VIRTEX_ULTRASCALE_PLUS)
# Route endpoints and the cell each places there; DSP48 pre-placements
# make some heater tiles start part-full.
PRE_TYPES = (CellType.FLIP_FLOP, CellType.LUT, CellType.DSP48)


def _design(part, pre_placed):
    """A netlist and placer holding route cells placed as Target does."""
    grid = part.make_grid()
    netlist = Netlist(name="heater-test")
    placer = FixedPlacer(grid)
    for i, (x, y, cell_type) in enumerate(pre_placed):
        near = Coordinate(x % grid.columns,
                          grid.shell_rows + y % (grid.rows - grid.shell_rows))
        name = f"route{i}_{cell_type.value}"
        netlist.add_cell(Cell(name=name, cell_type=cell_type))
        placer.place_at(name, cell_type, placer.nearest_tile(near, cell_type))
        netlist.add_net(Net(name=f"route{i}", driver=name, sinks=(),
                            activity=NetActivity.STATIC, static_value=1))
    return netlist, placer


def _build(builder, part, pre_placed, count, avoid):
    netlist, placer = _design(part, pre_placed)
    try:
        placed = builder(netlist, placer, dsp_count=count, avoid_columns=avoid)
    except PlacementError:
        return None
    return placed, netlist, placer


def _assert_same(got, want):
    placed, netlist, placer = got
    want_placed, want_netlist, want_placer = want
    assert placed == want_placed
    assert list(netlist.cells.items()) == list(want_netlist.cells.items())
    assert list(netlist.nets.items()) == list(want_netlist.nets.items())
    assert (list(placer.placement.sites.items())
            == list(want_placer.placement.sites.items()))
    assert placer.placement._occupied == want_placer.placement._occupied
    assert placer._next_index == want_placer._next_index


class TestHeaterBlock:
    @settings(max_examples=60, deadline=None)
    @given(
        part=st.sampled_from(PARTS),
        count=st.one_of(st.integers(0, 200), st.integers(200, 9000)),
        avoid=st.frozensets(st.integers(0, 63), max_size=12),
        # Route cells crowd the first DSP columns (3 and 11), where the
        # heater starts: they take DSP sites and fill registers' CLBs.
        pre_placed=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 24),
                      st.sampled_from(PRE_TYPES)),
            max_size=40,
        ),
    )
    # A CLB the first DSP tile's registers overflow; a part-full DSP
    # tile; a DSP tile too full for its share of units, which the
    # heater tops up before moving on.
    @example(part=ZYNQ_ULTRASCALE_PLUS, count=30, avoid=frozenset(),
             pre_placed=[(2, 0, CellType.FLIP_FLOP)] * 3)
    @example(part=ZYNQ_ULTRASCALE_PLUS, count=20, avoid=frozenset(),
             pre_placed=[(3, 1, CellType.DSP48)] * 2)
    @example(part=ZYNQ_ULTRASCALE_PLUS, count=30, avoid=frozenset(),
             pre_placed=[(3, 0, CellType.DSP48)])
    def test_block_matches_per_unit_oracle(self, part, count, avoid,
                                           pre_placed):
        want = _build(oracle.build_fma_array, part, pre_placed, count, avoid)
        # The first build may fill the cache, the second must hit it;
        # both must equal the oracle, or both refuse with it.
        for _ in range(2):
            got = _build(build_fma_array, part, pre_placed, count, avoid)
            if want is None:
                assert got is None
            else:
                assert got is not None
                _assert_same(got, want)

    def test_second_heater_skips_full_tiles(self):
        """Two 30-unit heaters on one placer, no keep-out: the second
        tops up the first's part-full DSP tile and skips its full ones."""
        def two_heaters(builder):
            netlist, placer = _design(ZYNQ_ULTRASCALE_PLUS, [])
            placed = builder(netlist, placer, dsp_count=30, prefix="a")
            placed += builder(netlist, placer, dsp_count=30, prefix="b")
            return placed, netlist, placer

        clear_heater_cache()
        got = two_heaters(build_fma_array)
        assert got[0] == 60
        _assert_same(got, two_heaters(oracle.build_fma_array))

    def test_key_holds_the_site_counters(self):
        """Two designs with equal net counts whose route cells take
        different sites near the heater must not share a block."""
        far = [(40, 60, CellType.FLIP_FLOP), (40, 60, CellType.DSP48)]
        near = [(2, 0, CellType.FLIP_FLOP), (3, 1, CellType.DSP48)]
        for pre_placed in (far, near):
            got = _build(build_fma_array, ZYNQ_ULTRASCALE_PLUS, pre_placed,
                         20, frozenset())
            want = _build(oracle.build_fma_array, ZYNQ_ULTRASCALE_PLUS,
                          pre_placed, 20, frozenset())
            _assert_same(got, want)

    def test_target_design_heater_matches_oracle(self, monkeypatch):
        """exp3 --quick's victim: route drivers shift 14 heater sites."""
        from repro.designs import target
        from repro.experiments.config import Experiment3Config

        config = Experiment3Config.quick(seed=1)
        part = VIRTEX_ULTRASCALE_PLUS
        routes = build_route_bank(part.make_grid(), config.route_lengths)
        bits = [1, 0] * (len(routes) // 2)
        block = target.build_target_design(part, routes, bits,
                                           heater_dsps=config.heater_dsps)
        monkeypatch.setattr(target, "build_fma_array",
                            oracle.build_fma_array)
        reference = target.build_target_design(
            part, routes, bits, heater_dsps=config.heater_dsps
        )
        got, want = block.bitstream, reference.bitstream
        assert list(got.netlist.nets.items()) == list(
            want.netlist.nets.items())
        assert list(got.placement.sites.items()) == list(
            want.placement.sites.items())
        assert got.power == want.power

    def test_cache_shares_frozen_objects_and_stays_bounded(self):
        clear_heater_cache()
        first = _build(build_fma_array, ZYNQ_ULTRASCALE_PLUS, [], 20,
                       frozenset())
        second = _build(build_fma_array, ZYNQ_ULTRASCALE_PLUS, [], 20,
                        frozenset())
        assert len(arithmetic._heater_cache) == 1
        assert first[1].nets["fma0_op"] is second[1].nets["fma0_op"]
        assert first[1].nets is not second[1].nets
        for count in range(1, 2 * arithmetic._HEATER_CACHE_MAX + 2):
            _build(build_fma_array, ZYNQ_ULTRASCALE_PLUS, [], count,
                   frozenset())
        assert len(arithmetic._heater_cache) == arithmetic._HEATER_CACHE_MAX

    def test_empty_heater_adds_nothing_and_caches_nothing(self):
        clear_heater_cache()
        placed, netlist, placer = _build(
            build_fma_array, ZYNQ_ULTRASCALE_PLUS, [(3, 3, CellType.LUT)], 0,
            frozenset(),
        )
        assert placed == 0
        assert list(netlist.cells) == ["route0_lut"]
        assert not arithmetic._heater_cache

    def test_cache_empty_at_import(self):
        code = ("import repro.designs.arithmetic as a, repro.experiments; "
                "assert not a._heater_cache")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_name_clash_refused_before_any_change(self):
        netlist, placer = _design(ZYNQ_ULTRASCALE_PLUS, [])
        build_fma_array(netlist, placer, dsp_count=4)
        cells, sites = dict(netlist.cells), dict(placer.placement.sites)
        with pytest.raises(FabricError):
            build_fma_array(netlist, placer, dsp_count=4)
        assert netlist.cells == cells
        assert placer.placement.sites == sites


def _ring_designs():
    """The ring-oscillator designs of the RO and fabric tests, and more."""
    zynq = ZYNQ_ULTRASCALE_PLUS.make_grid()
    designs = [
        build_ro_netlist("probe", build_route_bank(zynq, [5000.0])[0]),
        build_ro_netlist("probe", build_route_bank(zynq, [1000.0])[0]),
    ]
    self_loop = Netlist(name="ro")
    self_loop.add_cell(Cell("inv", CellType.INVERTER))
    self_loop.add_net(Net("loop", driver="inv", sinks=("inv",)))
    designs.append(self_loop)
    broken = Netlist(name="g")
    broken.add_cell(Cell("lut_a", CellType.LUT))
    broken.add_cell(Cell("ff", CellType.FLIP_FLOP))
    broken.add_cell(Cell("lut_b", CellType.LUT))
    broken.add_net(Net("n1", driver="lut_a", sinks=("ff",)))
    broken.add_net(Net("n2", driver="ff", sinks=("lut_b",)))
    designs.append(broken)
    # Several rings, some sharing cells, amid a heater and idle logic.
    mixed = Netlist(name="mixed")
    placer = FixedPlacer(zynq)
    build_fma_array(mixed, placer, dsp_count=30, prefix="pre")
    # Cell names run against their insertion order, so a graph built in
    # any other order than the cells' shows up in the loops.
    names = ["z", "y", "x", "w", "v", "u", "t"]
    for name, kind in zip(names, [CellType.LUT, CellType.BUFFER, CellType.LUT,
                                  CellType.INVERTER, CellType.CARRY8,
                                  CellType.FLIP_FLOP, CellType.LUT]):
        mixed.add_cell(Cell(name, kind))
    for i, (driver, sinks) in enumerate([
        ("x", ("z", "w")), ("z", ("y", "u")), ("y", ("x",)),
        ("w", ("w", "v")), ("v", ("y",)), ("u", ("t",)), ("t", ("t",)),
        ("v", ("z",)),
    ]):
        mixed.add_net(Net(f"m{i}", driver=driver, sinks=sinks))
    build_fma_array(mixed, placer, dsp_count=30, prefix="post",
                    avoid_columns=frozenset({3}))
    designs.append(mixed)
    for i, ro in enumerate(designs[:2]):
        mixed.merge(ro, prefix=f"ro{i}_")
    return designs


class TestTrimmedDrcGraph:
    @pytest.mark.parametrize("index", range(5))
    def test_loops_match_full_graph(self, index):
        netlist = _ring_designs()[index]
        want = tuple(
            tuple(cycle)
            for cycle in nx.simple_cycles(oracle.combinational_graph(netlist))
        )
        report = check_design(Bitstream.compile(netlist, Placement()),
                              ZYNQ_ULTRASCALE_PLUS.make_grid(), 1000.0)
        assert repr(report.combinational_loops) == repr(want)

    def test_sequential_cells_leave_the_graph(self):
        mixed = _ring_designs()[4]
        graph = mixed.combinational_graph()
        assert not any(name.startswith(("pre", "post")) for name in graph)
        full = list(oracle.combinational_graph(mixed))
        assert list(graph) == [name for name in full if name in graph]
        assert list(graph.edges) == list(
            oracle.combinational_graph(mixed).edges)
