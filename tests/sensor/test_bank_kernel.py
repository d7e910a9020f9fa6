"""Whole-board bank kernels vs. the per-route reference oracles.

The batched *trace* kernel is pinned to the per-word oracle in
``test_batched_kernel``.  This suite pins the *routes* axis added on
top of it against :mod:`tests.oracles.sensor`:

* the lockstep calibration scan (``MeasureSession.calibrate``,
  ``find_theta_init_bank``) against the route-by-route
  ``find_theta_init`` loop, bit for bit, **with jitter on** -- every
  route owns an independent generator stream, so batching across routes
  never reorders any route's own draws;
* one stacked ``measure_bank`` call against a ``measure_route`` loop,
  also bit for bit with jitter on;
* the stacked geometry primitives (``bank_wavefront_positions``,
  ``bank_trace_mean_distances``) against their per-chain/per-route
  forms, including boundary-exact times;
* failure parity: an uncalibratable route raises the same
  :class:`CalibrationError` either way and leaves the same partial
  theta_init behind, and the ``sensor.calibrate`` / ``sensor.capture``
  fault sites degrade the production paths and the oracles identically.
"""

import numpy as np
import pytest

from repro.core.phases import measure_with_recovery
from repro.designs import build_measure_design, build_route_bank
from repro.errors import CalibrationError, SensorError
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.observability.metrics import registry
from repro.reliability.faults import FaultPlan, FaultSpec, fault_plan
from repro.sensor.calibration import find_theta_init, find_theta_init_bank
from repro.sensor.carry_chain import CarryChain, bank_wavefront_positions
from repro.sensor.clocking import PhaseGenerator
from repro.sensor.noise import CLOUD_NOISE, LAB_NOISE, NoiseModel
from repro.sensor.postprocess import (
    bank_trace_mean_distances,
    batch_trace_mean_distances,
)
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
        """find_theta_init_bank == a find_theta_init loop, route by route."""
        device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
        routes = build_route_bank(device.grid, [1000.0, 5000.0, 2000.0])
        scalar_results = {}
        bank_tdcs = {}
        for i, route in enumerate(routes):
            scalar_results[route.name] = find_theta_init(
                TunableDualPolarityTdc(device, route, noise=LAB_NOISE,
                                       seed=100 + i)
            )
            bank_tdcs[route.name] = TunableDualPolarityTdc(
                device, route, noise=LAB_NOISE, seed=100 + i
            )
        assert find_theta_init_bank(bank_tdcs) == scalar_results


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

    def test_bank_trace_means_match_per_route(self):
        rng = np.random.default_rng(11)
        words = rng.random((3, 10, 16, 64)) < 0.5
        for polarity in Polarity:
            stacked = bank_trace_mean_distances(words, polarity)
            per_route = np.stack([
                batch_trace_mean_distances(route_words, polarity)
                for route_words in words
            ])
            np.testing.assert_array_equal(stacked, per_route)


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
            with oracle.reference_sensor():
                for name, tdc in scalar_tdcs.items():
                    scalar_results[name] = find_theta_init(tdc)
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
        """Under the sensor.capture fault site the stacked bank pass
        drops exactly the routes the per-route oracle loop would, and
        measures the survivors identically, jitter and all."""
        spec = {"sensor.capture": FaultSpec(probability=0.7)}

        scalar = make_session(13, noise=CLOUD_NOISE)
        with oracle.reference_sensor():
            scalar.calibrate()
            with fault_plan(FaultPlan(seed=99, specs=spec)):
                scalar_m, scalar_dropped = measure_with_recovery(scalar)

        batched = make_session(13, noise=CLOUD_NOISE)
        batched.calibrate()
        with fault_plan(FaultPlan(seed=99, specs=spec)):
            batched_m, batched_dropped = measure_with_recovery(batched)

        assert scalar_dropped
        assert scalar_dropped == batched_dropped
        assert scalar_m == batched_m
