"""The three experimental phases of Section 5.2.

Each phase is a small callable object over an *environment* -- anything
exposing ``load_image`` / ``run_hours`` / ``attach_sensors`` (both
:class:`~repro.core.bench.LabBench` and
:class:`~repro.cloud.instance.F1Instance` qualify):

* **Calibration** -- load the Measure design, find theta_init per route;
* **Condition** -- load the Target design and let it run (the burn);
* **Measurement** -- load the Measure design and take one measurement of
  every route (fast: "less than a minute").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AttackError
from repro.designs.measure import MeasureDesign, MeasureSession
from repro.fabric.bitstream import Bitstream
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.reliability.retry import retry_call
from repro.rng import SeedLike
from repro.sensor.noise import NoiseModel
from repro.sensor.tdc import Measurement

_log = get_logger("core.phases")


def measure_with_recovery(
    session: MeasureSession,
) -> tuple[dict[str, Measurement], list[str]]:
    """Measure every calibrated route, retrying transient drops.

    Returns ``(measurements, dropped)``: one measurement per route that
    succeeded, plus the names of the routes that stayed unmeasured --
    either never calibrated (an unrecovered glitch upstream) or dropped
    past the retry budget.  Callers degrade per-route: the failed
    routes simply contribute no point this pass.  The whole board is
    one stacked capture call with per-route retry and degradation.
    """
    measurements, dropped = session.measure_bank(recover=True)
    if dropped:
        registry.counter(
            "route_measurements_unrecovered_total",
            "route measurements abandoned past the retry budget",
        ).inc(len(dropped))
        _log.warning("measurement_degraded", dropped=len(dropped),
                     measured=len(measurements))
    return measurements, dropped


@dataclass
class CalibrationPhase:
    """Find (or adopt) theta_init for every route under test.

    One session object persists across all loads of the same Measure
    image: the carry chains land on the same silicon every time, so
    their mismatch and calibration carry over -- "an offset of theta is
    consistent between sensor design loadings".
    """

    measure_design: MeasureDesign
    noise: Optional[NoiseModel] = None
    seed: SeedLike = None
    session: Optional[MeasureSession] = None

    def run(
        self, environment, theta_init: Optional[dict] = None
    ) -> MeasureSession:
        """Load the Measure design and calibrate (or replay theta_init)."""
        with trace.span(
            "phase.calibration",
            routes=len(self.measure_design.routes),
            replayed=theta_init is not None,
        ):
            retry_call(environment.load_image, self.measure_design.bitstream,
                       label="phase.calibration.load")
            self.session = environment.attach_sensors(
                self.measure_design, noise=self.noise, seed=self.seed
            )
            if theta_init is not None:
                self.session.use_theta_init(theta_init)
                registry.counter(
                    "theta_init_replays_total",
                    "calibrations replayed from a-priori theta_init",
                ).inc()
            else:
                self.session.calibrate()
        _log.info("calibration_phase_done",
                  routes=len(self.measure_design.routes),
                  replayed=theta_init is not None)
        return self.session


@dataclass(frozen=True)
class ConditionPhase:
    """Run the Target design for a stress interval."""

    target_bitstream: Bitstream
    hours: float = 1.0

    def run(self, environment) -> None:
        """Execute the phase against an environment."""
        with trace.span("phase.condition", hours=self.hours):
            retry_call(environment.load_image, self.target_bitstream,
                       label="phase.condition.load")
            retry_call(environment.run_hours, self.hours,
                       label="phase.condition.run")
        registry.counter(
            "condition_phases_total", "Condition (stress) phases executed"
        ).inc()
        registry.counter(
            "condition_hours_total", "simulated hours spent conditioning"
        ).inc(self.hours)


@dataclass
class MeasurementPhase:
    """Reload the Measure design and take one measurement of each route."""

    measure_design: MeasureDesign
    calibration: CalibrationPhase
    #: Completed measurement passes (bookkeeping for reports).
    passes: int = field(default=0)

    def run(self, environment) -> dict[str, Measurement]:
        """Execute the phase against an environment."""
        session = self.calibration.session
        if session is None or not session.theta_init:
            raise AttackError("measurement requires a completed calibration")
        with trace.span(
            "phase.measurement", routes=len(self.measure_design.routes)
        ):
            retry_call(environment.load_image, self.measure_design.bitstream,
                       label="phase.measurement.load")
            retry_call(environment.run_hours,
                       session.measurement_duration_hours(),
                       label="phase.measurement.run")
            self.passes += 1
            measurements, _ = measure_with_recovery(session)
        registry.counter(
            "measurement_phases_total", "Measurement phases executed"
        ).inc()
        return measurements
