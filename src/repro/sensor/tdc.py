"""The Tunable Dual-Polarity TDC sensor.

Wires together the programmable clocks, transition generator, route
under test, carry chain and capture registers (Figure 3 of the paper)
into a sampling sensor, and implements the measurement procedure of
Section 5.2: ten traces of sixteen samples per polarity with theta
iteratively decreased from theta_init, reduced to one falling-minus-
rising delay estimate in picoseconds.

There is one path from drawn randomness to a measurement.
:meth:`TunableDualPolarityTdc.capture_draws` and
:meth:`~TunableDualPolarityTdc.measure_draws` draw a route's jitter as
one matrix per polarity and its metastability uniforms as one C-order
draw, written in place into that route's row of a bank's preallocated
tensors; the bank kernels in :mod:`repro.sensor.bank` resolve them.
:meth:`~TunableDualPolarityTdc.measure` is that path over a bank of
one, and :meth:`~TunableDualPolarityTdc.measure_raw` also builds the
whole capture words from the same draws, for the trace archive.  The
per-word reference implementation lives with the tests as an oracle
that consumes the generator stream in the same order, so the two agree
bit for bit, jitter and all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import CaptureDropError, SensorError
from repro.fabric.device import FpgaDevice
from repro.fabric.routing import Route
from repro.reliability.faults import maybe_inject
from repro.rng import SeedLike, make_rng
from repro.sensor.capture import CaptureBank, resolve_words
from repro.sensor.carry_chain import CarryChain
from repro.sensor.clocking import PhaseGenerator
from repro.sensor.noise import CLOUD_NOISE, NoiseModel, NoiseState
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
        this TDC's generator stream in one fixed order: the jitter
        matrix, then the metastability uniforms.  With ``out=(times,
        uniforms)`` -- C-contiguous arrays of those shapes, typically
        one route's row of a bank tensor -- both are written in place
        and returned.
        """
        if samples <= 0:
            raise SensorError(f"samples must be positive, got {samples}")
        if len(thetas_ps) == 0:
            raise SensorError("need at least one theta setting")
        thetas = self.phase.quantise_array(thetas_ps)
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

        The capture-drop injection check, the noise epoch advance, then
        the rising and the falling draws, without resolving any words:
        a bank-level measurement consumes each route's stream in
        sequential order and resolves the whole bank in one call, and
        :meth:`measure` is the same with a bank of one.  ``times`` is
        ``(2, traces, samples)`` and ``uniforms`` ``(2, traces, samples,
        chain_length)``, both C-contiguous, axis 0 ordered (rising,
        falling); their shapes set the trace and sample counts.  A
        dropped capture raises before anything is drawn or written.
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
        return self._measure_one(theta_init_ps, traces, samples)[0]

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
        The words are built from the measurement's own draws, so their
        Hamming distances reduce to exactly the returned measurement.
        """
        measurement, times, uniforms = self._measure_one(
            theta_init_ps, traces, samples
        )
        positions = self.chain.wavefront_positions(np.maximum(times, 0.0))
        thetas = self.phase.steps_down(theta_init_ps, traces)
        rising, falling = (
            [
                Trace(polarity=polarity, theta_ps=theta, words=words)
                for theta, words in zip(
                    thetas,
                    resolve_words(positions[index], uniforms[index], polarity),
                )
            ]
            for index, polarity in enumerate(
                (Polarity.RISING, Polarity.FALLING)
            )
        )
        return measurement, rising, falling

    def _measure_one(
        self, theta_init_ps: float, traces: int, samples: int
    ) -> tuple[Measurement, np.ndarray, np.ndarray]:
        """One measurement as a bank of one: draw, then resolve the bank.

        Returns the measurement with this route's ``(2, traces,
        samples)`` times and matching uniforms.
        """
        from repro.sensor.bank import resolve_bank  # bank imports tdc

        times = np.empty((1, 2, traces, samples))
        uniforms = np.empty(times.shape + (self.chain_length,))
        self.measure_draws(theta_init_ps, times[0], uniforms[0])
        measurement = resolve_bank([self], [theta_init_ps], times, uniforms)
        return measurement[self.route.name], times[0], uniforms[0]
