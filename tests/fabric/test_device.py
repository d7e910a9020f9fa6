"""Tests for the FpgaDevice: the persistence of analog state is the
vulnerability, so these are the most security-relevant invariants in the
code base."""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.campaigns import ChurnModel, FleetScenario, FleetSimulator
from repro.errors import FabricError
from repro.designs import build_route_bank, build_target_design
from repro.fabric.device import FpgaDevice
from repro.fabric.geometry import Coordinate
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS, ZYNQ_ULTRASCALE_PLUS
from repro.fabric.routing import Route, SegmentId
from repro.fabric.segments import SegmentKind
from repro.physics.aging import CLOUD_PART, NEW_PART
from repro.physics.pool_array import SegmentBtiArray
from repro.physics.variation import VariationParams
from repro.units import celsius_to_kelvin
from tests.oracles import fabric as oracle
from tests.oracles.aging import reference_aging

AMBIENT = celsius_to_kelvin(60.0)


def conditioned_device(burn_values=(1, 0), hours=24):
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=7)
    routes = build_route_bank(device.grid, [2000.0] * len(burn_values))
    design = build_target_design(
        device.part, routes, list(burn_values), heater_dsps=0
    )
    device.load(design.bitstream)
    device.advance_hours(float(hours), AMBIENT)
    return device, routes


class TestWipeSemantics:
    def test_wipe_clears_logical_state(self):
        device, _ = conditioned_device()
        assert device.loaded_design is not None
        device.wipe()
        assert device.loaded_design is None

    def test_wipe_preserves_analog_state(self):
        """The central claim of the paper, enforced structurally."""
        device, routes = conditioned_device()
        before = [device.route_delta_ps(r) for r in routes]
        device.wipe()
        after = [device.route_delta_ps(r) for r in routes]
        assert after == before
        assert abs(after[0]) > 0.1  # a real imprint survived

    def test_reload_after_wipe_sees_same_transistors(self):
        device, routes = conditioned_device()
        imprint = device.route_delta_ps(routes[0])
        device.wipe()
        other = build_target_design(
            device.part, routes, [0, 0], heater_dsps=0, name="second-tenant"
        )
        device.load(other.bitstream)
        assert device.route_delta_ps(routes[0]) == pytest.approx(imprint)


class TestLoadLifecycle:
    def test_double_load_rejected(self):
        device, routes = conditioned_device()
        design = build_target_design(
            device.part, routes, [1, 1], heater_dsps=0, name="x"
        )
        with pytest.raises(FabricError):
            device.load(design.bitstream)

    def test_advance_without_design_anneals(self):
        device, routes = conditioned_device(burn_values=(1, 1), hours=50)
        device.wipe()
        before = device.route_delta_ps(routes[0])
        device.advance_hours(100.0, AMBIENT)
        after = device.route_delta_ps(routes[0])
        assert 0.0 <= after < before

    def test_negative_advance_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        with pytest.raises(FabricError):
            device.advance_hours(-1.0, AMBIENT)

    def test_age_accumulates_only_while_powered(self):
        device, _ = conditioned_device(hours=10)
        powered_age = device.effective_age_hours
        device.wipe()
        device.advance_hours(10.0, AMBIENT)
        assert device.effective_age_hours == powered_age

    def test_sim_hours_always_advance(self):
        device, _ = conditioned_device(hours=10)
        device.wipe()
        device.advance_hours(5.0, AMBIENT)
        assert device.sim_hours == pytest.approx(15.0)


class TestBurnDirection:
    def test_burn_values_imprint_with_correct_signs(self):
        device, routes = conditioned_device(burn_values=(1, 0), hours=48)
        assert device.route_delta_ps(routes[0]) > 0.0
        assert device.route_delta_ps(routes[1]) < 0.0

    def test_longer_routes_imprint_more(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=9)
        routes = build_route_bank(device.grid, [1000.0, 10000.0])
        design = build_target_design(device.part, routes, [1, 1], heater_dsps=0)
        device.load(design.bitstream)
        device.advance_hours(48.0, AMBIENT)
        short, long_ = (device.route_delta_ps(r) for r in routes)
        assert long_ > 4.0 * short


class TestWear:
    def test_cloud_devices_have_residual_imprints(self):
        device = FpgaDevice(VIRTEX_ULTRASCALE_PLUS, wear=CLOUD_PART, seed=11)
        routes = build_route_bank(device.grid, [5000.0])
        delta = device.route_delta_ps(routes[0])
        # Residuals are nonzero but small relative to a fresh burn.
        assert delta != 0.0
        assert abs(delta) < 3.0

    def test_new_devices_are_clean(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=12)
        routes = build_route_bank(device.grid, [5000.0])
        assert device.route_delta_ps(routes[0]) == 0.0

    def test_device_ids_unique(self):
        a = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        b = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        assert a.device_id != b.device_id

    def test_info_reports_identity(self):
        device = FpgaDevice(VIRTEX_ULTRASCALE_PLUS, wear=CLOUD_PART, seed=13)
        info = device.info()
        assert info.part_name == "xcvu9p"
        assert info.effective_age_hours > 0.0


class TestAgingKernelEquivalence:
    """The array engine must be bit-identical to the per-segment
    oracle at the device level: same seed, same schedule, same delays."""

    @staticmethod
    def _run_history(wear):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=21)
        routes = build_route_bank(device.grid, [2000.0, 3000.0, 1500.0])
        design = build_target_design(
            device.part, routes, [1, 0, 1], heater_dsps=2
        )
        device.load(design.bitstream)
        device.advance_hours(24.0, AMBIENT)
        device.advance_hours(12.0, AMBIENT + 10.0)
        device.wipe()
        device.advance_hours(8.0, AMBIENT)
        second = build_target_design(
            device.part, routes, [0, 1, 0], heater_dsps=0, name="tenant-2"
        )
        device.load(second.bitstream)
        device.advance_hours(16.0, AMBIENT)
        return [(device.route_delta_ps(r), device.transition_delays(r))
                for r in routes]

    @pytest.mark.parametrize("wear", [NEW_PART, CLOUD_PART],
                             ids=["new", "cloud"])
    def test_kernels_bit_identical_across_tenant_history(self, wear):
        with reference_aging():
            reference = self._run_history(wear)
        assert self._run_history(wear) == reference

    def test_unknown_kernel_rejected(self):
        """The aging kernel is no longer a setting."""
        with pytest.raises(TypeError):
            FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1, aging_kernel="array")

    def test_segment_views_are_stable(self):
        """segment_state returns the same cached
        view object for the same physical segment."""
        device, routes = conditioned_device()
        segment_id = next(iter(routes[0]))
        assert device.segment_state(segment_id) is device.segment_state(
            segment_id
        )

    def test_group_cache_invalidated_by_reload(self):
        """A second tenant's design must not reuse the first design's
        activity grouping."""
        device, routes = conditioned_device(burn_values=(1, 1), hours=24)
        first = device.route_delta_ps(routes[0])
        device.wipe()
        opposite = build_target_design(
            device.part, routes, [0, 0], heater_dsps=0, name="opposite"
        )
        device.load(opposite.bitstream)
        device.advance_hours(24.0, AMBIENT)
        # Holding the opposite value anneals the high pool and stresses
        # the low pool: the imprint must move downward.
        assert device.route_delta_ps(routes[0]) < first


def _one_at_a_time(device, segment_ids):
    """Oracle: draw, register and preload each new segment on its own."""
    return oracle.materialise_one_at_a_time(device, segment_ids)


def _design_segments(design):
    return itertools.chain.from_iterable(
        net.route for net in design.bitstream.netlist.routed_nets()
    )


_POOL_FIELDS = (
    "amplitude_ps", "charge_ps", "equivalent_stress_hours",
    "recovery_elapsed_hours", "recovery_wall_hours",
    "charge_at_release_ps", "recovering",
)


def _assert_same_store(batched, oracle):
    count = len(batched)
    assert len(oracle) == count
    for pool in ("high", "low"):
        for name in _POOL_FIELDS:
            got = getattr(getattr(batched, pool), name)[:count]
            want = getattr(getattr(oracle, pool), name)[:count]
            assert (got == want).all(), f"{pool}.{name}"
    slots = np.arange(count)
    assert (batched.rising_delay_ps(slots)
            == oracle.rising_delay_ps(slots)).all()
    assert (batched.falling_delay_ps(slots)
            == oracle.falling_delay_ps(slots)).all()


def _assert_same_device(batched, oracle):
    assert batched.materialised_segments == oracle.materialised_segments
    assert batched._array_index == oracle._array_index
    _assert_same_store(batched.aging_store, oracle.aging_store)


def _assert_matches_oracle(batched, oracle, traits):
    """Slots, store arrays and both generators equal the oracle's, and
    every ``traits(i)`` the batched store rebuilds equals the oracle's
    drawn ``traits`` (per segment) exactly."""
    _assert_same_device(batched, oracle)
    for name in ("_variation._rng", "_imprint_rng"):
        got, want = batched, oracle
        for attr in name.split("."):
            got, want = getattr(got, attr), getattr(want, attr)
        assert got.bit_generator.state == want.bit_generator.state, name
    assert set(traits) == set(batched._array_index)
    store = batched.aging_store
    for segment_id, index in batched._array_index.items():
        assert store.traits(index) == traits[segment_id], segment_id


_SEGMENT_IDS = st.builds(
    SegmentId,
    kind=st.sampled_from(list(SegmentKind)),
    origin=st.builds(Coordinate, x=st.integers(0, 3), y=st.integers(0, 3)),
    track=st.integers(0, 2),
)


_WEARS = pytest.mark.parametrize(
    "wear", [NEW_PART, CLOUD_PART], ids=["new", "cloud"]
)


class TestBatchedMaterialisation:
    """A request (route read or design load) materialises its new
    segments in one batch; every slot must equal the one-segment-at-a-
    time oracle bit for bit."""

    @staticmethod
    def _routes(device):
        routes = build_route_bank(device.grid, [2000.0, 3000.0, 1500.0])
        # Repeats within one request, plus segments of a second route.
        repeated = Route(
            "repeated",
            routes[0].segments[:4] + routes[0].segments[:2]
            + routes[2].segments[:3] + routes[0].segments[3:5],
        )
        return routes, repeated

    @_WEARS
    def test_route_with_repeated_segment(self, wear):
        batched = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=31)
        oracle = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=31)
        _, repeated = self._routes(batched)
        delta = batched.route_delta_ps(repeated)
        _one_at_a_time(oracle, repeated)
        assert oracle.route_delta_ps(repeated) == delta
        assert batched.materialised_segments == len(set(repeated))
        _assert_same_device(batched, oracle)

    @_WEARS
    def test_route_read_after_load(self, wear):
        batched = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=32)
        oracle = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=32)
        routes, repeated = self._routes(batched)
        design = build_target_design(
            batched.part, routes[:2], [1, 0], heater_dsps=2
        )
        batched.load(design.bitstream)
        delays = batched.transition_delays(repeated)
        _one_at_a_time(oracle, _design_segments(design))
        oracle.load(design.bitstream)
        _one_at_a_time(oracle, repeated)
        assert oracle.transition_delays(repeated) == delays
        _assert_same_device(batched, oracle)
        for device in (batched, oracle):
            device.advance_hours(24.0, AMBIENT)
        for route in routes + [repeated]:
            assert batched.route_delta_ps(route) == oracle.route_delta_ps(
                route
            )
        _assert_same_device(batched, oracle)

    @_WEARS
    def test_shared_store_interleaved_reads(self, wear):
        def fleet():
            store = SegmentBtiArray()
            return [
                FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=seed,
                           bti_store=store)
                for seed in (41, 42)
            ]

        batched, oracle = fleet(), fleet()
        routes, repeated = self._routes(batched[0])
        for route in (routes[0], repeated, routes[1]):
            for b, o in zip(batched, oracle):
                delta = b.route_delta_ps(route)
                _one_at_a_time(o, route)
                assert o.route_delta_ps(route) == delta
        for b, o in zip(batched, oracle):
            _assert_same_device(b, o)

    @pytest.mark.parametrize(
        "wear, preloads", [(NEW_PART, 0), (CLOUD_PART, 1)],
        ids=["new", "cloud"],
    )
    def test_one_preload_per_request(self, wear, preloads, monkeypatch):
        calls = []
        original = SegmentBtiArray.preload_imprint

        def counting(store, indices, *args, **kwargs):
            calls.append(len(indices))
            return original(store, indices, *args, **kwargs)

        monkeypatch.setattr(SegmentBtiArray, "preload_imprint", counting)
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=33)
        routes, repeated = self._routes(device)
        design = build_target_design(
            device.part, routes[:2], [1, 0], heater_dsps=0
        )
        device.load(design.bitstream)
        assert len(calls) == preloads
        device.route_delta_ps(repeated)
        assert len(calls) == 2 * preloads
        device.route_delta_ps(repeated)  # nothing new to materialise
        assert len(calls) == 2 * preloads

    @settings(max_examples=60, deadline=None)
    @given(
        wear=st.sampled_from([NEW_PART, CLOUD_PART]),
        shared=st.booleans(),
        pool=st.lists(_SEGMENT_IDS, min_size=1, max_size=12, unique=True),
        warm=st.lists(st.integers(0, 11), max_size=8),
        neighbour=st.lists(_SEGMENT_IDS, max_size=8),
        picks=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=10),
            min_size=1, max_size=5,
        ),
    )
    def test_batch_read_equals_per_route_reads(
        self, wear, shared, pool, warm, neighbour, picks
    ):
        """One ``route_deltas_ps`` over routes that share and repeat
        segments equals reading them one by one on the one-at-a-time
        oracle -- also after part of the pool is materialised, and with
        a neighbour's slots interleaved in a shared store."""

        def pair():
            store = SegmentBtiArray()
            return [
                FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=seed,
                           bti_store=store if shared else SegmentBtiArray())
                for seed in (71, 72)
            ]

        (batched, other_b), (reference, other_o) = pair(), pair()
        drawn = _one_at_a_time(reference, [pool[i % len(pool)] for i in warm])
        batched._materialise_many(pool[i % len(pool)] for i in warm)
        _one_at_a_time(other_o, neighbour)
        other_b._materialise_many(neighbour)
        routes = [
            Route(f"r{n}", tuple(pool[i % len(pool)] for i in route))
            for n, route in enumerate(picks)
        ]
        deltas = batched.route_deltas_ps(routes)
        want = []
        for route in routes:
            drawn.update(_one_at_a_time(reference, route))
            want.append(reference.route_delta_ps(route))
        assert deltas == want
        assert [batched.route_delta_ps(r) for r in routes] == deltas
        _assert_matches_oracle(batched, reference, drawn)
        _assert_same_device(other_b, other_o)

    @settings(max_examples=40, deadline=None)
    @given(
        wear=st.sampled_from([NEW_PART, CLOUD_PART]),
        pool=st.lists(_SEGMENT_IDS, min_size=1, max_size=12, unique=True),
        warm=st.lists(
            st.lists(st.integers(0, 11), max_size=6), min_size=2, max_size=4,
        ),
        order=st.lists(st.integers(0, 3), min_size=1, max_size=6),
        picks=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=8),
            min_size=1, max_size=4,
        ),
    )
    def test_cross_device_read_equals_reading_each_device(
        self, wear, pool, warm, order, picks
    ):
        """One ``read_route_deltas`` over several devices of a shared
        store -- fresh or partly materialised, some listed twice --
        equals reading each device in turn on the one-at-a-time oracle:
        values, slots, pool arrays and both generators."""

        def fleet():
            store = SegmentBtiArray()
            return [
                FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=80 + n,
                           bti_store=store)
                for n in range(len(warm))
            ]

        batched, reference = fleet(), fleet()
        drawn = [{} for _ in warm]
        for n, picked in enumerate(warm):
            segments = [pool[i % len(pool)] for i in picked]
            batched[n]._materialise_many(segments)
            drawn[n].update(_one_at_a_time(reference[n], segments))
        routes = [
            Route(f"r{n}", tuple(pool[i % len(pool)] for i in route))
            for n, route in enumerate(picks)
        ]
        devices = [n % len(warm) for n in order]
        readings = FpgaDevice.read_route_deltas(
            [batched[n] for n in devices], routes
        )
        want = []
        for n in devices:
            for route in routes:
                drawn[n].update(_one_at_a_time(reference[n], route))
            want.append(reference[n].route_deltas_ps(routes))
        assert readings == want
        for b, o, traits in zip(batched, reference, drawn):
            _assert_matches_oracle(b, o, traits)

    def test_batch_needs_a_shared_store_and_idle_catch_up_no_design(self):
        apart = [FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=seed)
                 for seed in (91, 92)]
        routes, _ = self._routes(apart[0])
        with pytest.raises(FabricError, match="share a store"):
            FpgaDevice.read_route_deltas(apart, routes)
        design = build_target_design(
            apart[0].part, routes[:1], [1], heater_dsps=0
        )
        apart[0].load(design.bitstream)
        with pytest.raises(FabricError, match="design loaded"):
            FpgaDevice.catch_up_idle([(apart[0], [(0.0, 1.0, AMBIENT)])])

    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.floats(0.25, 20.0),
                st.lists(st.integers(0, 7), min_size=1, max_size=6,
                         unique=True),
            ),
            min_size=1, max_size=6,
        ),
        loaded=st.sets(st.integers(0, 7), max_size=2),
    )
    def test_grouped_catch_up_equals_per_board_replay(self, steps, loaded):
        """Boards synced as a batch -- each from its own last-sync time,
        idle ones in one store update per distinct interval, ones
        holding a design on their own -- end where replaying each board
        interval by interval through ``advance_hours`` ends."""
        scenario = FleetScenario(
            devices=8, horizon_hours=200.0, routes=2,
            route_length_ps=3000.0,
            churn=ChurnModel(arrival_rate_per_hour=0.1,
                             mean_rental_hours=5.0),
        )
        grouped, replayed = FleetSimulator(scenario), FleetSimulator(scenario)
        design = build_target_design(
            scenario.part, grouped.routes, [1, 0], heater_dsps=0
        )

        def replay(sim, board, now_hours):
            """Per-board replay: one ``advance_hours`` per interval."""
            dev = sim.fleet.device(board)
            last = sim._synced.get(board)
            if last is None:
                if now_hours > 0.0:
                    dev.advance_hours(now_hours, sim.ambient.at(0.0))
                dev.set_ambient(sim.ambient.at(now_hours))
            else:
                for _, duration, ambient_k in sim._tick_intervals(
                    last, now_hours
                ):
                    dev.advance_hours(duration, ambient_k)
            sim._synced[board] = now_hours
            return dev

        now = 0.0
        for hours, boards in steps:
            now += hours
            devices = grouped.sync_boards(boards, now)
            got = FpgaDevice.read_route_deltas(devices, grouped.routes)
            want = [
                replay(replayed, board, now).route_deltas_ps(replayed.routes)
                for board in boards
            ]
            assert got == want
            for board in set(boards) & loaded:
                for sim in (grouped, replayed):
                    device = sim.fleet.device(board)
                    if device.loaded_design is None:
                        device.load(design.bitstream)
        _assert_same_store(grouped.fleet._store, replayed.fleet._store)
        assert grouped._synced == replayed._synced
        for board, b in grouped.fleet._devices.items():
            o = replayed.fleet.device(board)
            assert b._array_index == o._array_index
            assert b.sim_hours == o.sim_hours
            assert b.junction_k() == o.junction_k()
            assert b.effective_age_hours == o.effective_age_hours

    @_WEARS
    def test_scalar_kernel_matches(self, wear):
        def history():
            device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=34)
            routes, repeated = self._routes(device)
            design = build_target_design(
                device.part, routes[:2], [0, 1], heater_dsps=0
            )
            device.load(design.bitstream)
            first = device.route_delta_ps(repeated)
            device.advance_hours(12.0, AMBIENT)
            reads = [device.route_delta_ps(r) for r in routes + [repeated]]
            return device, first, reads, device.transition_delays(repeated)

        with reference_aging():
            scalar, *scalar_reads = history()
            scalar_segments = scalar.materialised_segments
        array, *array_reads = history()
        assert array_reads == scalar_reads
        assert array.materialised_segments == scalar_segments


_SIGMAS = st.builds(
    VariationParams,
    delay_sigma=st.sampled_from([0.0, 0.008, 0.2]),
    amplitude_sigma=st.sampled_from([0.0, 0.18]),
    asymmetry_sigma_ps=st.sampled_from([0.0, 1.5, 400.0]),
)


class TestBulkDrawOracle:
    """Bulk materialisation equals the scalar draw oracle of
    ``tests/oracles/fabric.py``: slots, pool arrays, delays, rebuilt
    traits and the state of both generators."""

    @staticmethod
    def _pair(wear, variation, shared, seeds=(51, 52)):
        fleet_store = SegmentBtiArray()
        devices = []
        for seed in seeds:
            device = FpgaDevice(
                ZYNQ_ULTRASCALE_PLUS, wear=wear, seed=seed,
                bti_store=fleet_store if shared else SegmentBtiArray(),
            )
            device._variation.params = variation
            devices.append(device)
        return devices

    @settings(max_examples=60, deadline=None)
    @given(
        wear=st.sampled_from([NEW_PART, CLOUD_PART]),
        variation=_SIGMAS,
        shared=st.booleans(),
        requests=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from(["delta", "delays", "state"]),
                st.lists(_SEGMENT_IDS, min_size=1, max_size=30),
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_bulk_equals_oracle(self, wear, variation, shared, requests):
        batched = self._pair(wear, variation, shared)
        reference = self._pair(wear, variation, shared)
        drawn = [{}, {}]
        for which, read, segments in requests:
            b, o = batched[which], reference[which]
            if read == "state":
                segment_id = segments[0]
                drawn[which].update(_one_at_a_time(o, [segment_id]))
                assert (b.segment_state(segment_id).traits
                        == o.segment_state(segment_id).traits)
                continue
            drawn[which].update(_one_at_a_time(o, segments))
            route = Route("request", tuple(segments))
            if read == "delta":
                assert b.route_delta_ps(route) == o.route_delta_ps(route)
            else:
                assert (b.transition_delays(route)
                        == o.transition_delays(route))
        for b, o, traits in zip(batched, reference, drawn):
            _assert_matches_oracle(b, o, traits)

    def test_libm_exp_differs_from_numpy_exp(self):
        """Pinned: this route's lognormal draws include variates where
        numpy's SIMD ``exp`` is an ulp off the C library's, so taking the
        multipliers with ``np.exp`` would break the equality below."""
        batched, = self._pair(CLOUD_PART, VariationParams(), False, (61,))
        reference, = self._pair(CLOUD_PART, VariationParams(), False, (61,))
        route = build_route_bank(batched.grid, [10000.0])[0]
        params = batched._variation.params
        probe = copy.deepcopy(batched._variation._rng)
        normals = probe.standard_normal(3 * len(set(route))).reshape(-1, 3)
        exponents = np.concatenate([
            params.delay_sigma * normals[:, 0],
            params.amplitude_sigma * normals[:, 2],
        ])
        libm = np.array([math.exp(x) for x in exponents.tolist()])
        assert (np.exp(exponents) != libm).any()
        delays = batched.transition_delays(route)
        traits = _one_at_a_time(reference, route)
        assert reference.transition_delays(route) == delays
        _assert_matches_oracle(batched, reference, traits)


class TestThermalCoupling:
    def test_junction_reflects_loaded_power(self):
        device, _ = conditioned_device()
        loaded = device.junction_k()
        device.wipe()
        assert device.junction_k() < loaded

    def test_delays_shift_with_temperature(self):
        device, routes = conditioned_device(hours=1)
        cool = device.transition_delays(routes[0]).rising_ps
        device.set_ambient(AMBIENT + 30.0)
        warm = device.transition_delays(routes[0]).rising_ps
        assert warm > cool

    def test_invalid_ambient_rejected(self):
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=1)
        with pytest.raises(FabricError):
            device.set_ambient(0.0)
