"""Whole-board bank kernels vs. the per-route reference oracles.

A bank of one is pinned to the per-word oracle in
``test_batched_kernel``.  This suite pins whole banks against
:mod:`tests.oracles.sensor`:

* the lockstep calibration scan (``MeasureSession.calibrate``,
  ``find_theta_init_bank``) against a route-by-route loop of the
  sequential one-route scan, bit for bit, **with jitter on** -- every
  route owns an independent generator stream, so batching across routes
  never reorders any route's own draws;
* one stacked ``measure_bank`` call against a route-by-route oracle
  measurement loop, also bit for bit with jitter on;
* the bank geometry primitive (``bank_wavefront_positions``) against
  its per-chain form, including boundary-exact times;
* the bank's Hamming-weight kernel (``resolve_distances``, which reads
  only the taps around each wavefront) against the distances of the
  whole words ``resolve_words`` builds, at edge positions;
* failure parity: an uncalibratable route raises the same
  :class:`CalibrationError` either way and leaves the same partial
  theta_init behind, and the ``sensor.calibrate`` / ``sensor.capture``
  fault sites degrade the production paths and the oracles identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phases import measure_with_recovery
from repro.designs import build_measure_design, build_route_bank
from repro.errors import CalibrationError, SensorError
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.observability.metrics import registry
from repro.reliability.faults import FaultPlan, FaultSpec, fault_plan
from repro.sensor.calibration import find_theta_init, find_theta_init_bank
from repro.sensor.capture import resolve_distances, resolve_words
from repro.sensor.carry_chain import CarryChain, bank_wavefront_positions
from repro.sensor.clocking import PhaseGenerator
from repro.sensor.noise import CLOUD_NOISE, LAB_NOISE, NoiseModel
from repro.sensor.tdc import TunableDualPolarityTdc
from repro.sensor.trace import Polarity
from tests.oracles import sensor as oracle

QUIET = NoiseModel(jitter_ps=0.0, polarity_offset_sigma_ps=0.0,
                   offset_correlation=0.0)

LENGTHS = [1000.0, 2000.0, 5000.0, 1000.0]


def make_session(seed, noise=CLOUD_NOISE, lengths=LENGTHS):
    """A fresh device + loaded Measure design + attached session.

    Called twice with the same seed it produces identical silicon and
    identical per-route generator streams, so two sessions can be
    driven down different code paths and compared bit for bit.
    """
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
    routes = build_route_bank(device.grid, list(lengths))
    design = build_measure_design(device.part, routes)
    device.load(design.bitstream)
    return design.attach(device, noise=noise, seed=seed)


class TestCalibrationBitIdentity:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_lockstep_matches_scalar_scan_with_jitter(self, seed):
        """Same seeds => identical theta_init dicts, jitter and all."""
        scalar = make_session(seed, noise=CLOUD_NOISE)
        batched = make_session(seed, noise=CLOUD_NOISE)
        theta_scalar = oracle.calibrate_sequential(scalar)
        theta_batched = batched.calibrate()
        assert theta_scalar == theta_batched
        assert list(theta_scalar) == list(theta_batched)

    def test_counters_match_scalar_scan(self):
        scalar = make_session(3, noise=LAB_NOISE)
        oracle.calibrate_sequential(scalar)
        snapshot = {
            name: counter.value
            for name, counter in registry.counters.items()
            if name.startswith("calibration")
        }
        registry.reset()
        batched = make_session(3, noise=LAB_NOISE)
        batched.calibrate()
        for name, value in snapshot.items():
            assert registry.counters[name].value == value, name

    def test_function_level_parity_per_route(self):
        """find_theta_init_bank == a loop of the sequential scan, route
        by route, and the one-route find_theta_init agrees with both."""
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
        routes = build_route_bank(device.grid, [1000.0, 5000.0, 2000.0])

        def tdc(i, route):
            return TunableDualPolarityTdc(
                device, route, noise=LAB_NOISE, seed=100 + i
            )

        scalar_results = {
            route.name: oracle.find_theta_init(tdc(i, route))
            for i, route in enumerate(routes)
        }
        one_route = {
            route.name: find_theta_init(tdc(i, route))
            for i, route in enumerate(routes)
        }
        bank_tdcs = {
            route.name: tdc(i, route) for i, route in enumerate(routes)
        }
        assert find_theta_init_bank(bank_tdcs) == scalar_results
        assert one_route == scalar_results


class TestMeasureBankBitIdentity:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_bank_matches_per_route_loop_with_jitter(self, seed):
        scalar = make_session(seed, noise=CLOUD_NOISE)
        batched = make_session(seed, noise=CLOUD_NOISE)
        oracle.calibrate_sequential(scalar)
        batched.calibrate()
        per_route, _ = oracle.measure_bank_sequential(scalar)
        bank, dropped = batched.measure_bank()
        assert dropped == []
        assert list(bank) == list(per_route)
        for name in per_route:
            assert bank[name] == per_route[name]

    def test_measure_all_routes_through_bank(self):
        session = make_session(5, noise=QUIET)
        session.calibrate()
        twin = make_session(5, noise=QUIET)
        twin.calibrate()
        assert session.measure_all() == twin.measure_bank()[0]

    def test_matches_full_oracle_with_jitter(self):
        """The bank against the oracle end to end: sequential scan,
        per-word captures and per-trace reductions."""
        batched = make_session(11, noise=CLOUD_NOISE)
        reference = make_session(11, noise=CLOUD_NOISE)
        theta = batched.calibrate()
        with oracle.reference_sensor():
            assert reference.calibrate() == theta
            expected = reference.measure_all()
        assert batched.measure_all() == expected

    def test_uncalibrated_route_raises_without_recover(self):
        session = make_session(2, noise=QUIET)
        session.calibrate()
        del session.theta_init[session.route_names[1]]
        with pytest.raises(SensorError):
            session.measure_bank()

    def test_uncalibrated_route_drops_with_recover(self):
        session = make_session(2, noise=QUIET)
        session.calibrate()
        missing = session.route_names[1]
        del session.theta_init[missing]
        measurements, dropped = session.measure_bank(recover=True)
        assert dropped == [missing]
        assert set(measurements) == set(session.route_names) - {missing}


class TestBankPrimitives:
    def test_bank_wavefront_matches_per_chain(self):
        """Boundary-exact parity across chains with distinct mismatch."""
        chains = [CarryChain(length=64, nominal_bin_ps=2.8, seed=s)
                  for s in (7, 8, 9)]
        rows = []
        for chain in chains:
            rows.append(np.concatenate([
                np.linspace(-10.0, chain.total_delay_ps + 10.0, 200),
                chain._boundaries,  # exactly on every bin boundary
                [0.0, chain.total_delay_ps],
            ]))
        times = np.stack(rows)
        stacked = bank_wavefront_positions(chains, times)
        assert stacked.shape == times.shape
        for i, chain in enumerate(chains):
            np.testing.assert_array_equal(
                stacked[i], chain.wavefront_positions(times[i])
            )

    def test_bank_wavefront_shape_mismatch_rejected(self):
        chains = [CarryChain(length=64, nominal_bin_ps=2.8, seed=7)]
        with pytest.raises(SensorError):
            bank_wavefront_positions(chains, np.zeros((2, 5)))


def _nudged(values):
    """Each value, or its next float down or up."""
    return st.tuples(
        values, st.sampled_from([None, -np.inf, np.inf])
    ).map(lambda t: t[0] if t[1] is None else float(np.nextafter(*t)))


def _edge_positions(length):
    """Wavefront positions on and around the taps' decision edges:
    integer ``k`` (pass probability 0.5 at tap ``k``), ``k +- 0.4`` (the
    edges of the metastable window), the chain ends, and the float
    neighbours of each."""
    near = st.tuples(
        st.integers(0, length), st.sampled_from([0.0, -0.4, 0.4])
    ).map(lambda t: t[0] + t[1])
    return st.one_of(
        st.floats(0.0, float(length)), _nudged(near)
    ).filter(lambda p: 0.0 <= p <= length)


def _edge_times(chain):
    """Times exactly on a chain's bin boundaries (and one float off),
    at or below zero, and at or beyond the chain's total delay."""
    boundaries = st.sampled_from([float(b) for b in chain._boundaries])
    total = chain.total_delay_ps
    return st.one_of(
        _nudged(boundaries),
        st.floats(-50.0, 0.0),
        st.floats(total, total + 50.0),
    )


class TestWeightKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        length=st.sampled_from([1, 2, 5, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distances_match_whole_words(self, data, length, seed):
        """resolve_distances == the Hamming distance of every whole
        word, for both polarities, uniforms on the pass thresholds
        included."""
        positions = np.array(data.draw(
            st.lists(_edge_positions(length), min_size=1, max_size=24)
        ))
        rng = np.random.default_rng(seed)
        uniforms = rng.random(positions.shape + (length,))
        # Uniforms exactly on (and one float below) the thresholds the
        # edge positions produce, plus the ends of [0, 1).
        specials = np.array([0.0, 0.5, np.nextafter(0.5, 0.0),
                             np.nextafter(1.0, 0.0)])
        pick = rng.random(uniforms.shape) < 0.3
        uniforms[pick] = rng.choice(specials, size=int(pick.sum()))
        distances = resolve_distances(positions, uniforms)
        rising = resolve_words(positions, uniforms, Polarity.RISING)
        falling = resolve_words(positions, uniforms, Polarity.FALLING)
        np.testing.assert_array_equal(
            distances, np.count_nonzero(rising, axis=-1)
        )
        np.testing.assert_array_equal(
            distances, length - np.count_nonzero(falling, axis=-1)
        )

    def test_bank_shape_kept(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0.0, 64.0, (3, 2, 10, 16))
        uniforms = rng.random(positions.shape + (64,))
        distances = resolve_distances(positions, uniforms)
        assert distances.shape == positions.shape
        np.testing.assert_array_equal(
            distances,
            np.count_nonzero(
                resolve_words(positions, uniforms, Polarity.RISING), axis=-1
            ),
        )

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
        length=st.sampled_from([1, 3, 64]),
        width=st.integers(1, 12),
    )
    def test_bank_wavefront_matches_per_chain_at_edges(
        self, data, seeds, length, width
    ):
        """The per-row searchsorted bank lookup == each chain's own
        wavefront_positions on boundaries, at <= 0 and >= total."""
        chains = [CarryChain(length=length, nominal_bin_ps=2.8, seed=s)
                  for s in seeds]
        times = np.array([
            data.draw(st.lists(_edge_times(chain), min_size=width,
                               max_size=width))
            for chain in chains
        ])
        stacked = bank_wavefront_positions(chains, times)
        deeper = bank_wavefront_positions(chains, times[:, np.newaxis])
        for i, chain in enumerate(chains):
            expected = chain.wavefront_positions(times[i])
            np.testing.assert_array_equal(stacked[i], expected)
            np.testing.assert_array_equal(deeper[i, 0], expected)


class TestFailureParity:
    def _uncalibratable_tdcs(self, seed_base):
        """Two healthy routes and a route whose transitions can never
        reach the chain inside the programmable phase range."""
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=22)
        good0, good1, bad = build_route_bank(
            device.grid, [1000.0, 2000.0, 10000.0],
            names=["good0", "good1", "bad"],
        )
        tight_phase = PhaseGenerator(step_ps=2.8, max_ps=504.0)
        tdcs = {}
        for i, route in enumerate((good0, good1)):
            tdcs[route.name] = TunableDualPolarityTdc(
                device, route, noise=LAB_NOISE, seed=seed_base + i
            )
        tdcs[bad.name] = TunableDualPolarityTdc(
            device, bad, noise=LAB_NOISE, seed=seed_base + 9,
            phase=tight_phase,
        )
        return tdcs

    def test_uncalibratable_route_parity(self):
        scalar_tdcs = self._uncalibratable_tdcs(40)
        scalar_results = {}
        scalar_error = None
        try:
            for name, tdc in scalar_tdcs.items():
                scalar_results[name] = oracle.find_theta_init(tdc)
        except (CalibrationError, SensorError) as exc:
            scalar_error = exc
        assert scalar_error is not None

        bank_tdcs = self._uncalibratable_tdcs(40)
        bank_results = {}
        with pytest.raises(type(scalar_error)) as excinfo:
            find_theta_init_bank(bank_tdcs, results=bank_results)
        assert str(excinfo.value) == str(scalar_error)
        # Same partial progress: the healthy routes preceding the
        # failure hold identical thetas either way.
        assert bank_results == scalar_results

    @pytest.mark.parametrize("seed", [7, 19])
    def test_calibration_glitch_degradation_parity(self, seed):
        """Under the sensor.calibrate fault site both orchestrations
        recover/degrade the identical set of routes and store the
        identical thetas: the site stream is consumed per route in bank
        order, retries included, on both paths."""
        spec = {"sensor.calibrate": FaultSpec(probability=0.7)}

        scalar_plan = FaultPlan(seed=seed, specs=spec)
        scalar = make_session(seed, noise=LAB_NOISE)
        with fault_plan(scalar_plan), oracle.reference_sensor():
            theta_scalar = scalar.calibrate()
        scalar_unrecovered = registry.counters.get(
            "calibrations_unrecovered_total"
        )
        scalar_unrecovered = (
            scalar_unrecovered.value if scalar_unrecovered else 0.0
        )

        registry.reset()
        batched_plan = FaultPlan(seed=seed, specs=spec)
        batched = make_session(seed, noise=LAB_NOISE)
        with fault_plan(batched_plan):
            theta_batched = batched.calibrate()
        batched_unrecovered = registry.counters.get(
            "calibrations_unrecovered_total"
        )
        batched_unrecovered = (
            batched_unrecovered.value if batched_unrecovered else 0.0
        )

        assert theta_scalar == theta_batched
        assert scalar_plan.fires == batched_plan.fires
        assert scalar_unrecovered == batched_unrecovered

    def test_capture_drop_degradation_parity(self):
        """Under the sensor.capture fault site the bank pass drops
        exactly the routes the per-route oracle loop would, and measures
        the survivors identically, jitter and all.  A route that drops
        mid-bank takes no row of the bank tensors, so every route's
        generator ends in the oracle's state and the bank counts the
        oracle's capture words."""
        spec = {"sensor.capture": FaultSpec(probability=0.7)}

        scalar = make_session(13, noise=CLOUD_NOISE)
        with oracle.reference_sensor():
            scalar.calibrate()
            registry.reset()
            with fault_plan(FaultPlan(seed=99, specs=spec)):
                scalar_m, scalar_dropped = measure_with_recovery(scalar)
        scalar_words = registry.counter("capture_words_total").value

        batched = make_session(13, noise=CLOUD_NOISE)
        batched.calibrate()
        registry.reset()
        with fault_plan(FaultPlan(seed=99, specs=spec)):
            batched_m, batched_dropped = measure_with_recovery(batched)
        batched_words = registry.counter("capture_words_total").value

        assert scalar_dropped
        assert scalar_dropped == batched_dropped
        assert scalar_m == batched_m
        for name in scalar.route_names:
            assert (
                batched._tdcs[name]._bank._rng.bit_generator.state
                == scalar._tdcs[name]._bank._rng.bit_generator.state
            ), name
        assert scalar_words > 0
        assert batched_words == scalar_words
