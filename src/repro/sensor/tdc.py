"""The Tunable Dual-Polarity TDC sensor.

Wires together the programmable clocks, transition generator, route
under test, carry chain and capture registers (Figure 3 of the paper)
into a sampling sensor, and implements the measurement procedure of
Section 5.2: ten traces of sixteen samples per polarity with theta
iteratively decreased from theta_init, reduced to one falling-minus-
rising delay estimate in picoseconds.

Every capture runs through one batched kernel: a measurement's jitter
is drawn as one matrix per polarity, its metastability uniforms as one
C-order draw, and the words resolve in one vectorised pass.  The
per-word reference implementation lives with the tests as an oracle
that consumes the generator stream in the same order, so the two agree
bit for bit, jitter and all.

The bank kernels in :mod:`repro.sensor.bank` take the same draws
without resolving them here: :meth:`TunableDualPolarityTdc.capture_draws`
and :meth:`~TunableDualPolarityTdc.measure_draws` write a route's times
and uniforms in place into that route's row of the bank's preallocated
tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import CaptureDropError, SensorError
from repro.fabric.device import FpgaDevice
from repro.fabric.routing import Route
from repro.observability.metrics import registry
from repro.reliability.faults import maybe_inject
from repro.rng import SeedLike, make_rng
from repro.sensor.capture import CaptureBank, resolve_words
from repro.sensor.carry_chain import CarryChain
from repro.sensor.clocking import PhaseGenerator
from repro.sensor.noise import CLOUD_NOISE, NoiseModel, NoiseState
from repro.sensor.postprocess import batch_trace_mean_distances
from repro.sensor.trace import SAMPLES_PER_TRACE, Polarity, Trace
from repro.sensor.transition import TransitionGenerator

#: The paper's measurement depth: "Ten traces are taken from each TDC".
TRACES_PER_MEASUREMENT = 10

@dataclass(frozen=True)
class Measurement:
    """One complete TDC measurement of one route."""

    route_name: str
    theta_init_ps: float
    rising_distance: float
    falling_distance: float
    delta_ps: float

    def __str__(self) -> str:
        return (
            f"Measurement({self.route_name}: delta={self.delta_ps:+.3f} ps, "
            f"rising={self.rising_distance:.2f}, "
            f"falling={self.falling_distance:.2f} bins)"
        )


class TunableDualPolarityTdc:
    """One TDC instance bound to one route under test on one device."""

    def __init__(
        self,
        device: FpgaDevice,
        route: Route,
        noise: NoiseModel = CLOUD_NOISE,
        seed: SeedLike = None,
        phase: Optional[PhaseGenerator] = None,
    ) -> None:
        rng = make_rng(seed)
        self.device = device
        self.route = route
        self.phase = phase or PhaseGenerator(
            step_ps=device.part.carry_bin_ps, max_ps=40000.0
        )
        self.chain = CarryChain(
            length=device.part.tdc_chain_length,
            nominal_bin_ps=device.part.carry_bin_ps,
            seed=rng,
        )
        self.generator = TransitionGenerator(device=device, route=route)
        self._bank = CaptureBank(length=self.chain.length, seed=rng)
        self._noise = NoiseState(noise, seed=rng)

    @property
    def chain_length(self) -> int:
        """Number of carry-chain elements (capture taps)."""
        return self.chain.length

    def capture_draws(
        self,
        thetas_ps: Sequence[float],
        polarity: Polarity,
        samples: int = SAMPLES_PER_TRACE,
        out: tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None),
    ) -> tuple[np.ndarray, np.ndarray]:
        """Materialise one capture batch's random inputs without resolving.

        Returns ``(times_in_chain, uniforms)`` of shapes ``(len(thetas),
        samples)`` and ``(len(thetas), samples, chain_length)``, consuming
        this TDC's generator stream in exactly the order
        :meth:`capture_words` does (jitter matrix, then metastability
        uniforms).  With ``out=(times, uniforms)`` -- C-contiguous arrays
        of those shapes, typically one route's row of a bank tensor --
        both are written in place and returned.
        """
        if samples <= 0:
            raise SensorError(f"samples must be positive, got {samples}")
        if len(thetas_ps) == 0:
            raise SensorError("need at least one theta setting")
        thetas = np.array([self.phase.quantise(t) for t in thetas_ps])
        arrival = self.generator.arrival_at_chain_ps(polarity)
        offset = self._noise.polarity_offset_ps
        arrival += offset if polarity is Polarity.FALLING else -offset
        jitter = self._noise.sample_jitter_matrix_ps((len(thetas), samples))
        times_out, uniforms_out = out
        times_in_chain = np.subtract(
            thetas[:, np.newaxis], arrival + jitter, out=times_out
        )
        uniforms = self._bank.draw_uniforms(
            (len(thetas), samples), out=uniforms_out
        )
        return times_in_chain, uniforms

    def measure_draws(
        self,
        theta_init_ps: float,
        times: np.ndarray,
        uniforms: np.ndarray,
    ) -> None:
        """Write one full measurement's random inputs in place.

        Runs :meth:`measure_raw`'s batched preamble -- capture-drop
        injection check, noise epoch advance, rising then falling draws
        -- without resolving any words, so a bank-level measurement can
        consume each route's stream in sequential order and resolve the
        whole bank in one call.  ``times`` is ``(2, traces, samples)``
        and ``uniforms`` ``(2, traces, samples, chain_length)``, both
        C-contiguous, axis 0 ordered (rising, falling); their shapes set
        the trace and sample counts.  A dropped capture raises before
        anything is drawn or written.
        """
        maybe_inject(
            "sensor.capture", CaptureDropError,
            f"route {self.route.name!r}: capture trace dropped in "
            f"flight (injected)",
        )
        self._noise.advance_epoch()
        _, traces, samples = times.shape
        thetas = self.phase.steps_down(theta_init_ps, traces)
        for index, polarity in enumerate((Polarity.RISING, Polarity.FALLING)):
            self.capture_draws(
                thetas, polarity, samples,
                out=(times[index], uniforms[index]),
            )

    def capture_words(
        self,
        thetas_ps: Sequence[float],
        polarity: Polarity,
        samples: int = SAMPLES_PER_TRACE,
    ) -> np.ndarray:
        """The batched capture kernel: one polarity, many thetas at once.

        Computes every capture word of a measurement in one shot as a
        ``(len(thetas), samples, chain_length)`` boolean tensor: jitter
        is drawn as a single RNG matrix, the wavefront positions resolve
        through one vectorised ``searchsorted`` over the chain
        boundaries, and metastability resolves with one broadcast
        comparison against the pre-drawn uniforms.
        """
        times_in_chain, uniforms = self.capture_draws(
            thetas_ps, polarity, samples
        )
        positions = self.chain.wavefront_positions(
            np.maximum(times_in_chain, 0.0)
        )
        words = resolve_words(positions, uniforms, polarity)
        # One increment per batch, sized in words: the kernel's
        # throughput counter costs O(1) per call, not per word.
        registry.counter(
            "capture_words_total",
            "capture words computed by the batched kernel",
        ).inc(times_in_chain.shape[0] * samples)
        return words

    def capture_trace(
        self,
        theta_ps: float,
        polarity: Polarity,
        samples: int = SAMPLES_PER_TRACE,
    ) -> Trace:
        """One trace: ``samples`` capture words at a fixed theta."""
        words = self.capture_words([theta_ps], polarity, samples)[0]
        return Trace(polarity=polarity, theta_ps=theta_ps, words=words)

    def measure(
        self,
        theta_init_ps: float,
        traces: int = TRACES_PER_MEASUREMENT,
        samples: int = SAMPLES_PER_TRACE,
    ) -> Measurement:
        """One full measurement per the paper's procedure.

        Takes ``traces`` traces per polarity while decreasing theta one
        phase step per trace from ``theta_init_ps`` ("to avoid relying on
        a single trace that could be affected by architectural
        irregularities"), averages the Binary Hamming Distances, and
        converts to picoseconds.
        """
        measurement, _, _ = self.measure_raw(theta_init_ps, traces, samples)
        return measurement

    def measure_raw(
        self,
        theta_init_ps: float,
        traces: int = TRACES_PER_MEASUREMENT,
        samples: int = SAMPLES_PER_TRACE,
    ) -> tuple[Measurement, list[Trace], list[Trace]]:
        """Like :meth:`measure`, but also returns the raw traces.

        Returns ``(measurement, rising_traces, falling_traces)``.  The
        raw capture words are what a hardware deployment would log;
        :mod:`repro.sensor.traceio` archives them so the identical
        post-processing/analysis pipeline can replay either source.
        """
        # Chaos fault site: a dropped capture aborts before the noise
        # epoch advances, so a retried measurement sees exactly the
        # noise sequence the clean run would have.
        maybe_inject(
            "sensor.capture", CaptureDropError,
            f"route {self.route.name!r}: capture trace dropped in "
            f"flight (injected)",
        )
        self._noise.advance_epoch()
        thetas = self.phase.steps_down(theta_init_ps, traces)
        rising_words = self.capture_words(thetas, Polarity.RISING, samples)
        falling_words = self.capture_words(thetas, Polarity.FALLING, samples)
        rising = [
            Trace(polarity=Polarity.RISING, theta_ps=t, words=w)
            for t, w in zip(thetas, rising_words)
        ]
        falling = [
            Trace(polarity=Polarity.FALLING, theta_ps=t, words=w)
            for t, w in zip(thetas, falling_words)
        ]
        # One Hamming pass per polarity serves both the distances and the
        # delta; the reduction order matches delta_ps_from_traces bit for
        # bit (mean over samples per trace, then mean over traces).
        rising_mean = float(
            np.mean(batch_trace_mean_distances(rising_words, Polarity.RISING))
        )
        falling_mean = float(
            np.mean(
                batch_trace_mean_distances(falling_words, Polarity.FALLING)
            )
        )
        delta = (rising_mean - falling_mean) * self.chain.nominal_bin_ps
        measurement = Measurement(
            route_name=self.route.name,
            theta_init_ps=theta_init_ps,
            rising_distance=rising_mean,
            falling_distance=falling_mean,
            delta_ps=delta,
        )
        return measurement, rising, falling
