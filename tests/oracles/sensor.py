"""Reference sensor paths: the oracles for the bank kernels.

Production has one sensor path: a route's draws are written in place
(``capture_draws``/``measure_draws``) and resolved by the bank kernels
(:mod:`repro.sensor.bank`) -- ``MeasureSession.measure_bank`` and
``calibrate`` over a whole bank, ``TunableDualPolarityTdc.measure``/
``measure_raw`` and ``find_theta_init`` over a bank of one.  This module
keeps the plain versions they replaced, so tests can compare against
them with ``==``:

* **capture** -- one word at a time.  Each polarity's jitter matrix is
  drawn first, then every word resolves on its own, drawing its
  metastability uniforms from the same stream.  That is the stream
  order of ``capture_draws``, so the oracle and the kernels agree bit
  for bit with jitter on.  :func:`capture` and :func:`capture_batch`
  resolve words straight from a
  :class:`~repro.sensor.capture.CaptureBank`'s stream, with the whole
  tap comparison the bank kernels skip.
* **measurement** -- the per-trace post-processing of Section 5.2 over
  oracle captures, and a route-by-route loop of it for a whole bank.
  Oracle captures count ``capture_words_total`` as the kernels do, so
  the counter can be compared too.
* **calibration** -- the sequential one-route scan
  (:func:`find_theta_init`) over oracle captures, and a route-by-route
  loop of it with per-route retries: the scans the lockstep kernel must
  reproduce.

:func:`reference_sensor` swaps the measurement and session paths into
the library for whole-experiment runs (the perf benchmark's reference
side and the end-to-end equality tests).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.designs.measure import MeasureSession
from repro.errors import (
    CalibrationError,
    CaptureDropError,
    SensorError,
    TransientError,
)
from repro.observability.metrics import registry
from repro.reliability.faults import maybe_inject
from repro.reliability.retry import retry_call
from repro.sensor.calibration import (
    _TARGET_HIGH,
    _TARGET_LOW,
    _default_coarse_ps,
    _default_start_ps,
    check_glitch,
)
from repro.sensor.capture import METASTABLE_WINDOW_BINS, CaptureBank
from repro.sensor.postprocess import trace_mean_distance, traces_mean_distance
from repro.sensor.tdc import (
    TRACES_PER_MEASUREMENT,
    Measurement,
    TunableDualPolarityTdc,
)
from repro.sensor.trace import SAMPLES_PER_TRACE, Polarity, Trace


def capture(
    bank: CaptureBank, position: float, polarity: Polarity
) -> np.ndarray:
    """One capture word for a wavefront at ``position`` elements.

    For a rising launch, taps behind the wavefront read 1 and taps
    ahead read 0; a falling launch is the complement.  Taps within the
    metastable window of the wavefront resolve probabilistically with
    the wavefront's fractional coverage, from ``length`` uniforms drawn
    off the bank's stream.
    """
    if not 0.0 <= position <= bank.length:
        raise SensorError(
            f"position {position} outside chain [0, {bank.length}]"
        )
    taps = np.arange(bank.length, dtype=float)
    # Probability that each tap has seen the transition pass.
    passed = np.clip(
        (position - taps) / METASTABLE_WINDOW_BINS + 0.5, 0.0, 1.0
    )
    resolved = bank.draw_uniforms(()) < passed
    if polarity is Polarity.RISING:
        return resolved
    return ~resolved


def capture_batch(
    bank: CaptureBank, positions: np.ndarray, polarity: Polarity
) -> np.ndarray:
    """Capture words for a whole batch of positions: ``shape + (length,)``.

    The uniforms come from one C-order draw, which consumes the bank's
    stream exactly as :func:`capture` would over the same positions.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.size and (
        positions.min() < 0.0 or positions.max() > bank.length
    ):
        raise SensorError(
            f"batch positions outside chain [0, {bank.length}]"
        )
    taps = np.arange(bank.length, dtype=float)
    passed = np.clip(
        (positions[..., np.newaxis] - taps) / METASTABLE_WINDOW_BINS + 0.5,
        0.0,
        1.0,
    )
    resolved = bank.draw_uniforms(positions.shape) < passed
    if polarity is Polarity.RISING:
        return resolved
    return ~resolved


def sample_word(
    tdc: TunableDualPolarityTdc,
    theta_ps: float,
    polarity: Polarity,
    jitter_ps: float,
) -> np.ndarray:
    """One capture word at one theta, given its pre-drawn jitter.

    The wavefront position is ``theta`` minus the edge's arrival time at
    the chain entry, perturbed by the jitter and the slow
    polarity-asymmetric supply offset.
    """
    theta = tdc.phase.quantise(theta_ps)
    arrival = tdc.generator.arrival_at_chain_ps(polarity)
    offset = tdc._noise.polarity_offset_ps
    arrival += offset if polarity is Polarity.FALLING else -offset
    time_in_chain = theta - (arrival + jitter_ps)
    position = tdc.chain.wavefront_position(max(time_in_chain, 0.0))
    return capture(tdc._bank, position, polarity)


def capture_words(
    tdc: TunableDualPolarityTdc,
    thetas_ps: Sequence[float],
    polarity: Polarity,
    samples: int = SAMPLES_PER_TRACE,
) -> np.ndarray:
    """Per-word oracle of the batched kernel: ``(thetas, samples, chain)``."""
    if samples <= 0:
        raise SensorError(f"samples must be positive, got {samples}")
    if len(thetas_ps) == 0:
        raise SensorError("need at least one theta setting")
    jitter = tdc._noise.sample_jitter_matrix_ps((len(thetas_ps), samples))
    registry.counter(
        "capture_words_total",
        "capture words computed by the batched kernel",
    ).inc(len(thetas_ps) * samples)
    return np.stack([
        np.stack([
            sample_word(tdc, theta, polarity, jitter[i, j])
            for j in range(samples)
        ])
        for i, theta in enumerate(thetas_ps)
    ])


def capture_trace(
    tdc: TunableDualPolarityTdc,
    theta_ps: float,
    polarity: Polarity,
    samples: int = SAMPLES_PER_TRACE,
) -> Trace:
    """One trace of ``samples`` oracle words at a fixed theta."""
    words = capture_words(tdc, [theta_ps], polarity, samples)[0]
    return Trace(polarity=polarity, theta_ps=theta_ps, words=words)


def measure_raw(
    tdc: TunableDualPolarityTdc,
    theta_init_ps: float,
    traces: int = TRACES_PER_MEASUREMENT,
    samples: int = SAMPLES_PER_TRACE,
) -> tuple[Measurement, list[Trace], list[Trace]]:
    """One measurement from oracle captures and per-trace reductions."""
    maybe_inject(
        "sensor.capture", CaptureDropError,
        f"route {tdc.route.name!r}: capture trace dropped in "
        f"flight (injected)",
    )
    tdc._noise.advance_epoch()
    thetas = tdc.phase.steps_down(theta_init_ps, traces)
    rising = [
        Trace(polarity=Polarity.RISING, theta_ps=t, words=w)
        for t, w in zip(
            thetas, capture_words(tdc, thetas, Polarity.RISING, samples)
        )
    ]
    falling = [
        Trace(polarity=Polarity.FALLING, theta_ps=t, words=w)
        for t, w in zip(
            thetas, capture_words(tdc, thetas, Polarity.FALLING, samples)
        )
    ]
    rising_mean = traces_mean_distance(rising)
    falling_mean = traces_mean_distance(falling)
    measurement = Measurement(
        route_name=tdc.route.name,
        theta_init_ps=theta_init_ps,
        rising_distance=rising_mean,
        falling_distance=falling_mean,
        delta_ps=(rising_mean - falling_mean) * tdc.chain.nominal_bin_ps,
    )
    return measurement, rising, falling


def measure(
    tdc: TunableDualPolarityTdc,
    theta_init_ps: float,
    traces: int = TRACES_PER_MEASUREMENT,
    samples: int = SAMPLES_PER_TRACE,
) -> Measurement:
    """:func:`measure_raw` without the traces."""
    return measure_raw(tdc, theta_init_ps, traces, samples)[0]


def find_theta_init(tdc: TunableDualPolarityTdc) -> float:
    """The sequential one-route scan over oracle captures.

    A coarse descent until either transition enters the chain, then a
    fine descent one phase step per probe until both are centred; each
    probe is one rising and then one falling oracle trace.  Counts
    retries and failures as the lockstep scan does, but not
    ``calibrations_total``; log events are not reproduced.
    """
    check_glitch(tdc.route.name)
    coarse = _default_coarse_ps(tdc)
    theta = tdc.phase.quantise(_default_start_ps(tdc))

    def probe(theta_ps: float) -> tuple[float, float]:
        return (
            trace_mean_distance(capture_trace(tdc, theta_ps, Polarity.RISING)),
            trace_mean_distance(
                capture_trace(tdc, theta_ps, Polarity.FALLING)
            ),
        )

    def fail(reason: str) -> CalibrationError:
        registry.counter(
            "calibration_failures_total", "routes that failed calibration"
        ).inc()
        return CalibrationError(f"route {tdc.route.name!r}: {reason}")

    while theta > 0.0:
        rising, falling = probe(theta)
        if rising < float(tdc.chain_length) or falling < float(
            tdc.chain_length
        ):
            break
        theta = max(theta - coarse, 0.0)
    else:
        raise fail("transitions never entered the chain")

    best_theta = None
    fine = tdc.phase.step_ps
    probes = int(2.0 * coarse / fine) + tdc.chain_length
    retries = probes
    for attempt in range(probes):
        rising, falling = probe(theta)
        centre = (rising + falling) / 2.0
        if _TARGET_LOW <= centre <= _TARGET_HIGH and min(rising, falling) > 4.0:
            best_theta = theta
            retries = attempt
            break
        if max(rising, falling) <= _TARGET_LOW:
            retries = attempt
            break
        theta -= fine
        if theta < 0.0:
            retries = attempt
            break
    registry.counter(
        "calibration_retries_total",
        "fine-descent probes re-taken beyond the first per route",
    ).inc(retries)
    if best_theta is None:
        raise fail("could not centre transitions in the capture window")
    return best_theta


def calibrate_sequential(session: MeasureSession) -> dict[str, float]:
    """Route-by-route calibration: the lockstep scan's oracle.

    Each route runs the sequential :func:`find_theta_init` under its own
    retry budget; a glitch past the budget leaves the route
    uncalibrated.  The calibration counters match the lockstep scan's;
    spans and log events are not reproduced.
    """
    for name, tdc in session._tdcs.items():
        try:
            session.theta_init[name] = retry_call(
                find_theta_init, tdc, label=f"sensor.calibrate:{name}",
            )
        except TransientError:
            registry.counter(
                "calibrations_unrecovered_total",
                "routes left uncalibrated past the retry budget",
            ).inc()
            continue
        registry.counter(
            "calibrations_total", "routes calibrated from scratch"
        ).inc()
    return dict(session.theta_init)


def measure_bank_sequential(
    session: MeasureSession, recover: bool = False
) -> tuple[dict[str, Measurement], list[str]]:
    """A route-by-route oracle :func:`measure` loop: ``measure_bank``'s oracle.

    Same contract: without ``recover`` an uncalibrated route raises and
    a capture drop propagates; with it, drops retry per route and
    failing routes land in the returned ``dropped`` list.
    """
    measurements: dict[str, Measurement] = {}
    dropped: list[str] = []
    for name in session.route_names:
        if name not in session.theta_init:
            if not recover:
                raise SensorError(
                    f"route {name!r} is not calibrated; run calibrate() "
                    f"or use_theta_init()"
                )
            dropped.append(name)
            continue
        tdc = session._tdcs[name]
        theta = session.theta_init[name]
        if not recover:
            measurements[name] = measure(tdc, theta)
            continue
        try:
            measurements[name] = retry_call(
                measure, tdc, theta, label=f"sensor.capture:{name}",
            )
        except TransientError:
            dropped.append(name)
    return measurements, dropped


@contextmanager
def reference_sensor() -> Iterator[None]:
    """Run the library on the oracle sensor paths inside the block.

    Every measurement captures word by word and reduces per trace;
    sessions calibrate with the sequential scan route by route and
    measure with an oracle loop.  Outputs equal the production paths'
    bit for bit; only the wall time differs.
    """
    patches = [
        (TunableDualPolarityTdc, "measure",
         lambda self, theta_init_ps, traces=TRACES_PER_MEASUREMENT,
         samples=SAMPLES_PER_TRACE:
         measure(self, theta_init_ps, traces, samples)),
        (TunableDualPolarityTdc, "measure_raw",
         lambda self, theta_init_ps, traces=TRACES_PER_MEASUREMENT,
         samples=SAMPLES_PER_TRACE:
         measure_raw(self, theta_init_ps, traces, samples)),
        (MeasureSession, "calibrate", calibrate_sequential),
        (MeasureSession, "measure_bank", measure_bank_sequential),
    ]
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
