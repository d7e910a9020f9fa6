"""The interleaved condition/measurement protocol.

Experiments 1 and 2 alternate a one-hour Condition phase with a
sub-minute Measurement phase, repeated for hundreds of hours; Experiment
3 does the same during its 25-hour recovery window.
:class:`ConditionMeasureProtocol` runs that loop over any environment
and accumulates a :class:`~repro.analysis.timeseries.SeriesBundle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import AttackError
from repro.analysis.timeseries import DeltaPsSeries, SeriesBundle
from repro.core.phases import CalibrationPhase, ConditionPhase, MeasurementPhase
from repro.designs.measure import MeasureDesign
from repro.fabric.bitstream import Bitstream
from repro.fabric.routing import Route
from repro.observability import trace
from repro.observability.metrics import registry


@dataclass
class ConditionMeasureProtocol:
    """Hourly condition/measure interleave over one route bank."""

    environment: object
    target_bitstream: Bitstream
    measure_design: MeasureDesign
    routes: Sequence[Route]
    condition_hours_per_cycle: float = 1.0
    calibration: Optional[CalibrationPhase] = None
    bundle: SeriesBundle = field(default_factory=lambda: SeriesBundle("run"))

    def __post_init__(self) -> None:
        if self.condition_hours_per_cycle <= 0.0:
            raise AttackError("condition interval must be positive")
        if self.calibration is None:
            self.calibration = CalibrationPhase(self.measure_design)
        for route in self.routes:
            self.bundle.add(
                DeltaPsSeries(
                    route_name=route.name,
                    nominal_delay_ps=route.nominal_delay_ps,
                )
            )
        self._measurement = MeasurementPhase(
            measure_design=self.measure_design, calibration=self.calibration
        )
        self._clock = 0.0

    def calibrate(self, theta_init: Optional[dict] = None) -> dict:
        """Run (or replay) the Calibration phase.  Call once, up front."""
        session = self.calibration.run(self.environment, theta_init=theta_init)
        return dict(session.theta_init)

    def measure_once(self) -> None:
        """One Measurement phase; records a point per measured route.

        Routes whose measurement stayed failed past the retry budget
        simply contribute no point this pass -- their series end up
        shorter, and classification degrades per-route downstream.
        """
        measurements = self._measurement.run(self.environment)
        for route in self.routes:
            measurement = measurements.get(route.name)
            if measurement is not None:
                self.bundle.series[route.name].append(
                    self._clock, measurement.delta_ps
                )
        self._clock += self.calibration.session.measurement_duration_hours()

    def run_cycles(
        self,
        cycles: int,
        target_for_cycle: Optional[Callable[[int], Bitstream]] = None,
    ) -> SeriesBundle:
        """``cycles`` repetitions of measure-then-condition.

        Measurement leads so that the first recorded point is the
        pre-stress baseline the series are centred on.
        ``target_for_cycle`` lets mitigation schedules substitute a
        different Target image per cycle (inversion, shuffling, key
        rotation); by default every cycle conditions with
        ``self.target_bitstream``.
        """
        if cycles <= 0:
            raise AttackError(f"cycles must be positive, got {cycles}")
        for cycle in range(cycles):
            with trace.span("protocol.cycle", index=cycle, hour=self._clock):
                self.measure_once()
                bitstream = (
                    target_for_cycle(cycle)
                    if target_for_cycle is not None
                    else self.target_bitstream
                )
                ConditionPhase(
                    target_bitstream=bitstream,
                    hours=self.condition_hours_per_cycle,
                ).run(self.environment)
                self._clock += self.condition_hours_per_cycle
            registry.counter(
                "protocol_cycles_total", "condition/measure cycles completed"
            ).inc()
        self.measure_once()
        return self.bundle

    def condition_only(self, hours: float) -> None:
        """An unobserved stress interval (Experiment 3's victim period)."""
        with trace.span("protocol.condition_only", hours=hours):
            ConditionPhase(
                target_bitstream=self.target_bitstream, hours=hours
            ).run(self.environment)
            self._clock += hours
