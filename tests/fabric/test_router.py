"""Tests for delay-targeting routing and wire compositions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.fabric.geometry import Coordinate, FabricGrid
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.fabric.router import (
    DelayTargetRouter,
    compose_delay,
    compose_displacement,
    displacement_delay_ps,
)
from repro.fabric.routing import validate_disjoint
from repro.fabric.segments import SegmentKind, spec_for


class TestComposeDelay:
    @pytest.mark.parametrize("target", [1000, 2000, 5000, 10000])
    def test_paper_lengths_within_tolerance(self, target):
        kinds = compose_delay(float(target))
        achieved = sum(spec_for(k).delay_ps for k in kinds)
        assert abs(achieved - target) / target < 0.05

    def test_small_target(self):
        kinds = compose_delay(50.0, tolerance=0.2)
        assert kinds  # at least a LOCAL hop

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(RoutingError):
            compose_delay(1000.0, tolerance=0.0001)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(RoutingError):
            compose_delay(0.0)

    @given(target=st.floats(min_value=400.0, max_value=20000.0))
    @settings(max_examples=50, deadline=None)
    def test_any_reasonable_target_within_tolerance(self, target):
        # Short targets quantise to the wire classes, so allow 10%.
        kinds = compose_delay(target, tolerance=0.1)
        achieved = sum(spec_for(k).delay_ps for k in kinds)
        assert abs(achieved - target) / target <= 0.1


class TestDelayTargetRouter:
    def _grid(self):
        return ZYNQ_ULTRASCALE_PLUS.make_grid()

    def test_route_stays_on_die(self):
        router = DelayTargetRouter(self._grid())
        route = router.route("r", Coordinate(0, 0), 10000.0)
        for seg in route:
            assert self._grid().contains(seg.origin)

    def test_routes_share_allocator_disjoint(self):
        router = DelayTargetRouter(self._grid())
        routes = [
            router.route(f"r{i}", Coordinate(0, 0), 5000.0) for i in range(8)
        ]
        validate_disjoint(routes)

    def test_track_exhaustion_raises(self):
        router = DelayTargetRouter(self._grid(), tracks_per_class=1)
        router.route("a", Coordinate(0, 0), 1000.0)
        with pytest.raises(RoutingError):
            router.route("b", Coordinate(0, 0), 1000.0)

    def test_shell_anchor_rejected(self):
        from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS

        grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
        router = DelayTargetRouter(grid)
        with pytest.raises(Exception):
            router.route("r", Coordinate(0, 0), 1000.0)  # shell row

    def test_switch_counts_for_paper_lengths(self):
        """The calibration relies on these compositions."""
        router = DelayTargetRouter(self._grid())
        counts = {}
        for i, length in enumerate((1000, 2000, 5000, 10000)):
            route = router.route(f"r{i}", Coordinate(i * 8, 0), float(length))
            counts[length] = route.switch_count
        assert counts[1000] == 6
        assert counts[10000] == 46
        assert counts[2000] < counts[5000] < counts[10000]


class TestDisplacement:
    def test_zero_displacement_is_two_locals(self):
        kinds = compose_displacement(0, 0)
        assert kinds == [SegmentKind.LOCAL, SegmentKind.LOCAL]

    def test_long_first_decomposition(self):
        kinds = compose_displacement(25, 0)
        longs = [k for k in kinds if k is SegmentKind.LONG]
        assert len(longs) == 2  # 25 = 12 + 12 + 1

    def test_delay_monotone_per_long_line_multiple(self):
        # Delay is not globally monotone in tile distance (a 12-tile
        # LONG line is faster than 9 tiles of short wires -- real FPGA
        # behaviour), but adding a LONG line always adds delay.
        for d in range(0, 48, 1):
            assert displacement_delay_ps(d + 12, 0) > displacement_delay_ps(d, 0)

    @given(dx=st.integers(-50, 50), dy=st.integers(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_displacement_covers_distance(self, dx, dy):
        kinds = compose_displacement(dx, dy)
        span = sum(spec_for(k).span_tiles for k in kinds)
        assert span == abs(dx) + abs(dy)
