"""Performance benchmark: batched capture, array aging, parallel sweeps.

Run from the repository root (``PYTHONPATH=src python -m pytest
benchmarks/test_bench_perf.py``): the reference side of each comparison
comes from the test oracles in ``tests/oracles/sensor.py`` and
``tests/oracles/aging.py``.  Seven phases, written to
``BENCH_perf.json`` at the repo root:

* **measurement microbench** -- full TDC measurements through the
  per-word reference oracle vs the vectorised batched kernel (the PR 2
  tentpole targets >= 10x here);
* **aging microbench** -- whole-device ``advance_hours`` on a >= 4k
  materialised-segment device on the per-segment aging oracle
  (:func:`reference_aging`) vs the structure-of-arrays engine (the
  array engine targets >= 10x here);
* **end-to-end exp1** -- ``exp1 --quick`` wall time on the reference
  sensor (:func:`reference_sensor`: per-word capture, route-by-route
  calibration and measurement) vs the production sensor, with recovery
  accuracy compared;
* **end-to-end exp2 (aging axis)** -- ``exp2 --quick`` wall time on
  each *aging* path with recovery accuracy compared;
* **end-to-end exp2/exp3 (all axes)** -- ``exp2 --quick`` and
  ``exp3 --quick`` with *everything* on its reference path (the
  reference sensor plus the aging oracle) vs everything fast
  (whole-experiment batching targets >= 5x here);
* **calibration-axis equivalence** -- the lockstep calibration scan
  must reproduce the route-by-route scan's recovery accuracy *exactly*;
* **sweep sharding** -- ``experiment_sweep(jobs=N)`` vs sequential,
  with the bit-identical-result invariant checked.  On single-CPU
  runners ``resolve_jobs`` clamps the request down to the sequential
  path; the bench then *skips* the speedup ratio (a 1-core
  self-comparison is noise, not a benchmark) and records why.

The speed gates (CI fails on them) are deliberately loose -- the
vectorised kernels must not be *slower* than their references -- so
noisy shared runners cannot flake the build; the headline ratios are
recorded for trend tracking rather than asserted.  The tight gates are
accuracy equalities: every reference path here is bit-identical to its
fast path, jitter included, so each pair of accuracies must be equal.
"""

from __future__ import annotations

import json
import os
import platform
from contextlib import ExitStack, nullcontext
from pathlib import Path
from time import perf_counter
from unittest import mock

from repro.designs import build_route_bank, build_target_design
from repro.designs.measure import MeasureSession
from repro.experiments import (
    Experiment1Config,
    Experiment2Config,
    Experiment3Config,
    run_experiment1,
    run_experiment2,
    run_experiment3,
)
from repro.fabric.device import FpgaDevice
from repro.fabric.drc import clear_drc_cache
from repro.fabric.geometry import Coordinate
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS, ZYNQ_ULTRASCALE_PLUS
from repro.fabric.routing import SegmentId
from repro.fabric.segments import SegmentKind
from repro.montecarlo import experiment_sweep, resolve_jobs
from repro.sensor import find_theta_init
from repro.sensor.noise import LAB_NOISE
from repro.sensor.tdc import TunableDualPolarityTdc
from repro.units import celsius_to_kelvin
from tests.oracles import sensor as oracle
from tests.oracles.aging import reference_aging

_TARGET = Path(__file__).resolve().parents[1] / "BENCH_perf.json"

#: Full measurements timed per kernel in the capture microbench.
_MICRO_REPS = 60

#: Whole-device advances timed per kernel in the aging microbench.
_AGING_REPS = 20

#: Materialised segments on the aging-microbench device.
_AGING_SEGMENTS = 4096

_AMBIENT_K = celsius_to_kelvin(35.0)


def _time_measurements(measure_raw, theta, reps):
    for _ in range(5):  # warm caches, allocator, rng dispatch
        measure_raw(theta)
    start = perf_counter()
    for _ in range(reps):
        measure_raw(theta)
    return (perf_counter() - start) / reps


def _build_aging_device():
    """A loaded device with >= _AGING_SEGMENTS materialised segments.

    A hundred mixed-length routed nets give the advance realistic
    activity classes (static-1/static-0/toggling heater); the rest of
    the quota is materialised directly as idle SINGLE segments (routing
    banks top out far below 4k on this grid).
    """
    device = FpgaDevice(VIRTEX_ULTRASCALE_PLUS, seed=33)
    lengths = [1000.0, 2000.0, 5000.0, 10000.0] * 25
    routes = build_route_bank(device.grid, lengths)
    design = build_target_design(
        device.part, routes, [i % 2 for i in range(len(routes))],
        heater_dsps=8,
    )
    device.load(design.bitstream)
    for x in range(device.grid.columns):
        for y in range(device.grid.rows):
            for track in range(4):
                if device.materialised_segments >= _AGING_SEGMENTS:
                    return device
                device.segment_state(
                    SegmentId(SegmentKind.SINGLE, Coordinate(x, y), track)
                )
    return device


def _time_advances(device, reps):
    device.advance_hours(1.0, _AMBIENT_K)  # warm group cache + factors
    start = perf_counter()
    for _ in range(reps):
        device.advance_hours(1.0, _AMBIENT_K)
    return (perf_counter() - start) / reps


def _time_aging(reference):
    """(materialised segments, seconds per advance) on one aging path."""
    with reference_aging() if reference else nullcontext():
        device = _build_aging_device()
        return (device.materialised_segments,
                _time_advances(device, _AGING_REPS))


def _time_exp1(reference):
    config = Experiment1Config.quick()
    with oracle.reference_sensor() if reference else nullcontext():
        best, accuracy = float("inf"), None
        for _ in range(2):
            start = perf_counter()
            result = run_experiment1(config)
            best = min(best, perf_counter() - start)
            accuracy = result.recovery_score.accuracy
    return best, accuracy


def _time_exp2(reference):
    config = Experiment2Config.quick()
    with reference_aging() if reference else nullcontext():
        best, accuracy = float("inf"), None
        for _ in range(2):
            start = perf_counter()
            result = run_experiment2(config)
            best = min(best, perf_counter() - start)
            accuracy = result.recovery_score.accuracy
    return best, accuracy


def _time_quick_all_knobs(run, config_cls, scalar, reps=2):
    """Best-of-``reps`` wall time of one --quick experiment.

    ``scalar=True`` runs everything on its reference path -- the
    reference sensor (per-word capture, route-by-route calibration and
    measurement) and the per-segment aging oracle -- the fully
    unbatched path whole-experiment batching is measured against.  The
    DRC cache is cleared before every rep so each rep pays its own full
    vetting cost (reports are keyed per compile, so reps never share
    entries; clearing just keeps the comparison cold-start honest).
    """
    with ExitStack() as stack:
        if scalar:
            stack.enter_context(oracle.reference_sensor())
            stack.enter_context(reference_aging())
        best, accuracy = float("inf"), None
        for _ in range(reps):
            clear_drc_cache()
            config = config_cls.quick()
            start = perf_counter()
            result = run(config)
            best = min(best, perf_counter() - start)
            accuracy = result.recovery_score.accuracy
    return best, accuracy


def _calibration_axis_accuracy(run, config_cls):
    """Recovery accuracy under each calibration *scan*.

    Capture stays batched on both sides; only the scan changes, from
    the route-by-route oracle to the production lockstep scan.  Each
    route owns its own generator stream, so the two accuracies must be
    equal to the last bit.
    """
    clear_drc_cache()
    with mock.patch.object(
        MeasureSession, "calibrate", oracle.calibrate_sequential
    ):
        sequential = run(config_cls.quick()).recovery_score.accuracy
    clear_drc_cache()
    lockstep = run(config_cls.quick()).recovery_score.accuracy
    return sequential, lockstep


def test_bench_perf(emit):
    device = FpgaDevice(ZYNQ_ULTRASCALE_PLUS, seed=21)
    route = build_route_bank(device.grid, [1000.0])[0]
    tdc = TunableDualPolarityTdc(device, route, noise=LAB_NOISE, seed=1)
    theta = find_theta_init(tdc)

    scalar_s = _time_measurements(
        lambda t: oracle.measure_raw(tdc, t), theta, _MICRO_REPS
    )
    batched_s = _time_measurements(tdc.measure_raw, theta, _MICRO_REPS)
    micro_speedup = scalar_s / batched_s
    words_per_measurement = 2 * 10 * 16  # both polarities
    emit(f"micro: scalar {scalar_s * 1e3:.2f} ms/measurement, "
         f"batched {batched_s * 1e3:.2f} ms/measurement "
         f"({micro_speedup:.1f}x, "
         f"{words_per_measurement / batched_s:,.0f} words/s)")

    scalar_segments, aging_scalar_s = _time_aging(reference=True)
    aging_segments, aging_array_s = _time_aging(reference=False)
    assert scalar_segments == aging_segments
    aging_speedup = aging_scalar_s / aging_array_s
    emit(f"aging ({aging_segments} segments): "
         f"scalar {aging_scalar_s * 1e3:.2f} ms/advance, "
         f"array {aging_array_s * 1e3:.2f} ms/advance "
         f"({aging_speedup:.1f}x, "
         f"{aging_segments / aging_array_s:,.0f} segments/s)")

    e2e_scalar_s, scalar_accuracy = _time_exp1(reference=True)
    e2e_batched_s, batched_accuracy = _time_exp1(reference=False)
    e2e_speedup = e2e_scalar_s / e2e_batched_s
    emit(f"exp1 --quick: scalar {e2e_scalar_s:.2f} s, "
         f"batched {e2e_batched_s:.2f} s ({e2e_speedup:.1f}x), "
         f"accuracy {scalar_accuracy:.3f} -> {batched_accuracy:.3f}")

    exp2_scalar_s, exp2_scalar_accuracy = _time_exp2(reference=True)
    exp2_array_s, exp2_array_accuracy = _time_exp2(reference=False)
    exp2_speedup = exp2_scalar_s / exp2_array_s
    emit(f"exp2 --quick: scalar-aging {exp2_scalar_s:.2f} s, "
         f"array-aging {exp2_array_s:.2f} s ({exp2_speedup:.1f}x), "
         f"accuracy {exp2_scalar_accuracy:.3f} -> {exp2_array_accuracy:.3f}")

    exp2_all_scalar_s, exp2_all_scalar_acc = _time_quick_all_knobs(
        run_experiment2, Experiment2Config, scalar=True
    )
    exp2_all_fast_s, exp2_all_fast_acc = _time_quick_all_knobs(
        run_experiment2, Experiment2Config, scalar=False
    )
    exp2_e2e_speedup = exp2_all_scalar_s / exp2_all_fast_s
    emit(f"exp2 --quick (all knobs): scalar {exp2_all_scalar_s:.2f} s, "
         f"fast {exp2_all_fast_s:.2f} s ({exp2_e2e_speedup:.1f}x), "
         f"accuracy {exp2_all_scalar_acc:.3f} -> {exp2_all_fast_acc:.3f}")

    exp3_scalar_s, exp3_scalar_acc = _time_quick_all_knobs(
        run_experiment3, Experiment3Config, scalar=True
    )
    exp3_fast_s, exp3_fast_acc = _time_quick_all_knobs(
        run_experiment3, Experiment3Config, scalar=False
    )
    exp3_speedup = exp3_scalar_s / exp3_fast_s
    emit(f"exp3 --quick (all knobs): scalar {exp3_scalar_s:.2f} s, "
         f"fast {exp3_fast_s:.2f} s ({exp3_speedup:.1f}x), "
         f"accuracy {exp3_scalar_acc:.3f} -> {exp3_fast_acc:.3f}")

    exp2_seq_scan_acc, exp2_lockstep_acc = _calibration_axis_accuracy(
        run_experiment2, Experiment2Config
    )
    exp3_seq_scan_acc, exp3_lockstep_acc = _calibration_axis_accuracy(
        run_experiment3, Experiment3Config
    )
    emit(f"calibration axis: exp2 {exp2_seq_scan_acc:.3f} == "
         f"{exp2_lockstep_acc:.3f}, exp3 {exp3_seq_scan_acc:.3f} == "
         f"{exp3_lockstep_acc:.3f}")

    seeds = [1, 2, 3, 4]
    # Ask for at least two workers; on single-CPU runners resolve_jobs
    # clamps the request back to the sequential path (oversubscription
    # was measured at 0.89x), and the speedup ratio below is skipped
    # rather than recorded as a meaningless ~1x self-comparison.
    jobs_requested = max(2, min(4, os.cpu_count() or 1))
    jobs_effective = resolve_jobs(jobs_requested, len(seeds))
    start = perf_counter()
    sequential = experiment_sweep("exp1", seeds=seeds, jobs=1)
    sweep_sequential_s = perf_counter() - start
    start = perf_counter()
    sharded = experiment_sweep("exp1", seeds=seeds, jobs=jobs_requested)
    sweep_sharded_s = perf_counter() - start
    if jobs_effective >= 2:
        emit(f"sweep (4 seeds): jobs=1 {sweep_sequential_s:.2f} s, "
             f"jobs={jobs_requested} (effective {jobs_effective}) "
             f"{sweep_sharded_s:.2f} s "
             f"({sweep_sequential_s / sweep_sharded_s:.1f}x)")
    else:
        emit(f"sweep (4 seeds): jobs=1 {sweep_sequential_s:.2f} s; "
             f"jobs={jobs_requested} clamped to 1 on this "
             f"{os.cpu_count()}-cpu host -- speedup gate skipped")

    payload = {
        "suite": "perf",
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "microbench": {
            "scalar_seconds_per_measurement": round(scalar_s, 6),
            "batched_seconds_per_measurement": round(batched_s, 6),
            "speedup": round(micro_speedup, 2),
            "batched_words_per_second": round(
                words_per_measurement / batched_s
            ),
        },
        "aging_microbench": {
            "segments": aging_segments,
            "scalar_seconds_per_advance": round(aging_scalar_s, 6),
            "array_seconds_per_advance": round(aging_array_s, 6),
            "speedup": round(aging_speedup, 2),
            "array_segments_per_second": round(
                aging_segments / aging_array_s
            ),
        },
        "exp1_quick": {
            "scalar_seconds": round(e2e_scalar_s, 3),
            "batched_seconds": round(e2e_batched_s, 3),
            "speedup": round(e2e_speedup, 2),
            "scalar_accuracy": scalar_accuracy,
            "batched_accuracy": batched_accuracy,
        },
        "exp2_quick": {
            "scalar_aging_seconds": round(exp2_scalar_s, 3),
            "array_aging_seconds": round(exp2_array_s, 3),
            "speedup": round(exp2_speedup, 2),
            "scalar_accuracy": exp2_scalar_accuracy,
            "array_accuracy": exp2_array_accuracy,
        },
        "exp2_quick_e2e": {
            "all_scalar_seconds": round(exp2_all_scalar_s, 3),
            "all_fast_seconds": round(exp2_all_fast_s, 3),
            "speedup": round(exp2_e2e_speedup, 2),
            "all_scalar_accuracy": exp2_all_scalar_acc,
            "all_fast_accuracy": exp2_all_fast_acc,
        },
        "exp3_quick": {
            "all_scalar_seconds": round(exp3_scalar_s, 3),
            "all_fast_seconds": round(exp3_fast_s, 3),
            "speedup": round(exp3_speedup, 2),
            "all_scalar_accuracy": exp3_scalar_acc,
            "all_fast_accuracy": exp3_fast_acc,
        },
        "calibration_axis": {
            "exp2_sequential_accuracy": exp2_seq_scan_acc,
            "exp2_lockstep_accuracy": exp2_lockstep_acc,
            "exp3_sequential_accuracy": exp3_seq_scan_acc,
            "exp3_lockstep_accuracy": exp3_lockstep_acc,
        },
        "sweep": {
            "seeds": len(seeds),
            "jobs_requested": jobs_requested,
            "jobs_effective": jobs_effective,
            "sequential_seconds": round(sweep_sequential_s, 3),
            "sharded_seconds": round(sweep_sharded_s, 3),
            "bit_identical": sharded == sequential,
        },
    }
    if jobs_effective >= 2:
        payload["sweep"]["speedup"] = round(
            sweep_sequential_s / sweep_sharded_s, 2
        )
        payload["sweep"]["speedup_gate"] = "enforced"
    else:
        # resolve_jobs clamped the request to the sequential path: the
        # two timings above ran the same code, so a ratio would be
        # measurement noise dressed up as a result.  Record the skip
        # instead of the number.
        payload["sweep"]["speedup_gate"] = "skipped_single_cpu"
    _TARGET.write_text(json.dumps(payload, indent=1))
    emit(f"wrote {_TARGET.name}")

    # Hard gates: the vectorised kernels must never lose to their
    # reference paths, sharding must not change the statistics, and
    # every fast path must agree with its bit-identical reference on
    # recovery for the fixed default seeds.
    assert micro_speedup >= 1.0
    assert aging_speedup > 1.0
    assert aging_segments >= 1000
    assert e2e_speedup >= 1.0
    assert exp2_e2e_speedup >= 1.0
    assert exp3_speedup >= 1.0
    assert sharded == sequential
    assert batched_accuracy == scalar_accuracy
    assert exp2_array_accuracy == exp2_scalar_accuracy
    # The reference sensor is bit-identical to the production sensor
    # (each route owns an independent generator stream, and the capture
    # oracle draws its jitter matrix-first like the batched kernel), so
    # exact equality holds with jitter on.
    assert exp3_fast_acc == exp3_scalar_acc
    assert exp2_lockstep_acc == exp2_seq_scan_acc
    assert exp3_lockstep_acc == exp3_seq_scan_acc
    # Sharding must beat sequential where there is real parallelism to
    # win; on one core the clamp makes the comparison meaningless and
    # the gate is skipped (recorded in the payload above).
    if jobs_effective >= 2:
        assert sweep_sequential_s / sweep_sharded_s > 1.5
