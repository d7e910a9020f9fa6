"""Tests for skeleton-free imprint localisation (the future-work module)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AttackError
from repro.core.bench import LabBench
from repro.core.localize import (
    ImprintScanner,
    candidate_segments,
    cluster_imprints,
)
from repro.designs import build_route_bank, build_target_design
from repro.fabric.device import FpgaDevice
from repro.fabric.geometry import Coordinate
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.fabric.routing import SegmentId
from repro.fabric.segments import SegmentKind
from repro.sensor.noise import LAB_NOISE
from repro.units import celsius_to_kelvin


class TestCandidateEnumeration:
    def test_enumerates_requested_window(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        candidates = candidate_segments(grid, columns=[0, 3], tracks=2)
        assert all(s.origin.x in (0, 3) for s in candidates)
        assert all(s.kind is SegmentKind.LONG for s in candidates)
        assert all(s.track in (0, 1) for s in candidates)
        # 64 rows fit 5 LONG spans; 2 columns x 5 positions x 2 tracks.
        assert len(candidates) == 20

    def test_empty_window_rejected(self):
        grid = ZYNQ_ULTRASCALE_PLUS.make_grid()
        with pytest.raises(AttackError):
            candidate_segments(grid, columns=[], tracks=1)


class TestClustering:
    def _segment(self, x, y, track=0):
        return SegmentId(SegmentKind.LONG, Coordinate(x, y), track)

    def test_nearby_segments_cluster(self):
        flagged = [self._segment(0, 0), self._segment(0, 12),
                   self._segment(1, 24)]
        clusters = cluster_imprints(flagged)
        assert len(clusters) == 1
        assert len(clusters[0]) == 3

    def test_distant_segments_split(self):
        flagged = [self._segment(0, 0), self._segment(40, 48)]
        clusters = cluster_imprints(flagged)
        assert len(clusters) == 2

    def test_empty_input(self):
        assert cluster_imprints([]) == []

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12),
                      st.integers(0, 3)),
            max_size=40,
        ),
        adjacency=st.integers(0, 20),
    )
    def test_matches_connected_components(self, points, adjacency):
        """Union-find gives networkx's components, ordered by their
        first segment; inside one, by origin, then by input order
        (networkx's set order, which ties used to follow, is not
        part of the contract)."""
        flagged = [self._segment(x, y, track) for x, y, track in points]
        graph = nx.Graph()
        graph.add_nodes_from(range(len(flagged)))
        graph.add_edges_from(
            (i, j)
            for i, a in enumerate(flagged)
            for j in range(i + 1, len(flagged))
            if a.origin.manhattan_distance(flagged[j].origin) <= adjacency
        )
        want = [
            sorted((flagged[i] for i in sorted(component)),
                   key=lambda s: s.origin)
            for component in nx.connected_components(graph)
        ]
        assert cluster_imprints(flagged, adjacency) == want


class TestScanner:
    @pytest.fixture(scope="class")
    def scanned(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=33)
        bench = LabBench(device)
        routes = build_route_bank(device.grid, [5000.0, 5000.0])
        target = build_target_design(device.part, routes, [1, 0],
                                     heater_dsps=0)
        device.load(target.bitstream)
        device.advance_hours(400.0, celsius_to_kelvin(85.0))
        device.wipe()
        candidates = candidate_segments(device.grid, columns=range(0, 5),
                                        tracks=2)
        # Localisation works per-segment signal, so the scan leans on
        # measurement averaging (16 passes/observation) and a strict
        # threshold against the scan's own one-sided null; the burn here
        # is hot/long enough that every seed realisation separates.
        scanner = ImprintScanner(
            environment=bench, grid=device.grid, noise=LAB_NOISE,
            seed=7, z_threshold=3.5, measurement_passes=16,
        )
        result = scanner.scan(candidates, observation_hours=12)
        return result, set(routes[0].segments), set(routes[1].segments)

    def test_flags_only_burn_one_segments(self, scanned):
        result, burn1, burn0 = scanned
        assert result.flagged_count >= 2
        for segment in result.flagged:
            assert segment in burn1
            assert segment not in burn0

    def test_series_recorded_per_probe(self, scanned):
        result, _, _ = scanned
        assert len(result.series) == len(result.segment_for_probe)
        assert all(len(s) == 13 for s in result.series.values())

    def test_clusters_localise_victim_columns(self, scanned):
        result, burn1, _ = scanned
        victim_columns = {s.origin.x for s in burn1}
        for chain in cluster_imprints(result.flagged):
            assert {s.origin.x for s in chain} <= victim_columns

    def test_too_short_observation_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=34)
        scanner = ImprintScanner(environment=LabBench(device),
                                 grid=device.grid)
        with pytest.raises(AttackError):
            scanner.scan([SegmentId(SegmentKind.LONG, Coordinate(0, 0), 0)],
                         observation_hours=1)

    def test_no_candidates_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=35)
        scanner = ImprintScanner(environment=LabBench(device),
                                 grid=device.grid)
        with pytest.raises(AttackError):
            scanner.scan([], observation_hours=5)
