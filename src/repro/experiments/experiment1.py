"""Experiment 1 (Section 6.1, Figure 6): lab burn-in and recovery.

A factory-new ZCU102 in a 60 C oven.  Hour 0: calibration.  Hours
[0, 200): hourly Condition(X)/Measurement cycles.  Hours [200, 400):
the same with the complemented values (X-bar), inducing recovery.

The result carries the full series bundle plus the summary statistics
the paper reports: the per-length delta-ps magnitude band at the end of
burn-in, and the recovery zero-crossing time of the burn-1 routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.kernel_regression import local_linear_smooth
from repro.analysis.timeseries import SeriesBundle, length_class
from repro.core.bench import LabBench
from repro.core.classify import BurnTrendClassifier
from repro.core.metrics import RecoveryScore, score_recovery
from repro.core.protocol import ConditionMeasureProtocol
from repro.designs import build_measure_design, build_route_bank, build_target_design
from repro.experiments.config import Experiment1Config
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import ZYNQ_ULTRASCALE_PLUS
from repro.fabric.thermal import OvenAmbient
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.physics.aging import NEW_PART
from repro.rng import RngFactory

_log = get_logger("experiments.exp1")


@dataclass(frozen=True)
class Experiment1Result:
    """Everything Figure 6 plots, plus derived statistics."""

    config: Experiment1Config
    bundle: SeriesBundle
    burn_values: tuple
    stress_change_hour: float
    recovery_score: RecoveryScore

    @property
    def route_status(self) -> dict:
        """Per-route recovery status.

        Experiment 1 runs on an undisturbed lab bench, so every route
        with enough measurements classifies; a route is only
        ``"unrecovered"`` if its series came back too short to feature
        (possible under fault injection).
        """
        return {
            name: ("recovered" if len(series) >= 4 else "unrecovered")
            for name, series in self.bundle.series.items()
        }

    def magnitude_band(self, length_ps: float) -> tuple[float, float]:
        """(min, max) |smoothed delta-ps| at the end of burn-in, over the
        routes of one length class -- the numbers quoted per panel."""
        magnitudes = []
        for series in self.bundle:
            if length_class(series.nominal_delay_ps) != length_ps:
                continue
            burn = series.window(0.0, self.stress_change_hour)
            smoothed = local_linear_smooth(
                burn.hours_array, burn.centered, bandwidth=20.0
            )
            magnitudes.append(abs(float(smoothed[-1])))
        if not magnitudes:
            raise ValueError(f"no routes of length {length_ps}")
        return min(magnitudes), max(magnitudes)

    def recovery_crossing_hours(self) -> list[float]:
        """Hours after the stress change at which each burn-1 route's
        smoothed series crosses zero (the paper: 30-50 hours)."""
        crossings = []
        for series in self.bundle:
            if series.burn_value != 1:
                continue
            recovery = series.window(
                self.stress_change_hour, float(series.hours_array[-1])
            )
            if len(recovery) < 4:
                continue
            smoothed = local_linear_smooth(
                recovery.hours_array,
                recovery.raw_array - series.raw_array[0],
                bandwidth=15.0,
            )
            below = np.nonzero(smoothed <= 0.0)[0]
            if below.size:
                crossings.append(
                    float(recovery.hours_array[below[0]] - self.stress_change_hour)
                )
        return crossings


def run_experiment1(
    config: Optional[Experiment1Config] = None,
) -> Experiment1Result:
    """Run the full Experiment 1 protocol and score bit recovery."""
    config = config or Experiment1Config.paper()
    rng = RngFactory(config.seed)

    with trace.span(
        "experiment", experiment="exp1", seed=config.seed,
        routes=len(config.route_lengths),
    ) as root:
        device = FpgaDevice(
            ZYNQ_ULTRASCALE_PLUS, wear=NEW_PART, seed=rng.stream("device")
        )
        bench = LabBench(device, oven=OvenAmbient(config.oven_celsius))

        with trace.span("experiment.build_designs"):
            routes = build_route_bank(device.grid, config.route_lengths)
            burn_values = tuple(
                int(b)
                for b in rng.stream("burn-values").integers(0, 2, len(routes))
            )
            target = build_target_design(
                device.part, routes, burn_values,
                heater_dsps=config.heater_dsps,
            )
            complement = build_target_design(
                device.part,
                routes,
                [1 - b for b in burn_values],
                heater_dsps=config.heater_dsps,
                name="target-complement",
            )
            measure = build_measure_design(device.part, routes)

        protocol = ConditionMeasureProtocol(
            environment=bench,
            target_bitstream=target.bitstream,
            measure_design=measure,
            routes=routes,
            condition_hours_per_cycle=config.measure_every_hours,
        )
        protocol.calibration.seed = rng.stream("sensors")
        protocol.calibrate()

        burn_cycles = int(config.burn_hours / config.measure_every_hours)
        with trace.phase("experiment.burn", hours=config.burn_hours,
                         cycles=burn_cycles):
            protocol.run_cycles(burn_cycles)
        stress_change_hour = protocol._clock

        # Recovery period: condition with the complemented values.
        protocol.target_bitstream = complement.bitstream
        recovery_cycles = int(
            config.recovery_hours / config.measure_every_hours
        )
        if recovery_cycles:
            with trace.phase("experiment.recovery",
                             hours=config.recovery_hours,
                             cycles=recovery_cycles):
                protocol.run_cycles(recovery_cycles)

        bundle = protocol.bundle
        for route, value in zip(routes, burn_values):
            bundle.series[route.name].burn_value = value

        with trace.phase("experiment.classify", routes=len(routes)):
            classifier = BurnTrendClassifier()
            burn_window = {
                name: series.window(0.0, stress_change_hour)
                for name, series in bundle.series.items()
            }
            recovered = {
                name: classifier.classify(series)
                for name, series in burn_window.items()
            }
        truth = {
            route.name: value for route, value in zip(routes, burn_values)
        }
        score = score_recovery(recovered, truth)
        root.set(accuracy=round(score.accuracy, 4))
    registry.counter("experiments_total", "experiment runs completed").inc()
    registry.gauge(
        "recovery_accuracy", "bit-recovery accuracy of the last run"
    ).set(score.accuracy)
    _log.info("experiment_done", experiment="exp1", seed=config.seed,
              accuracy=round(score.accuracy, 4))
    return Experiment1Result(
        config=config,
        bundle=bundle,
        burn_values=burn_values,
        stress_change_hour=stress_change_hour,
        recovery_score=score,
    )
