"""Experiment 3 (Section 6.3, Figure 8): Threat Model 2 on the cloud.

Timeline:

* hours [0, 200): a non-malicious victim rents an F1 instance, loads a
  design whose routes hold the runtime secret X, and computes.  The
  attacker observes nothing and never touches the board.
* hour 200: the victim releases the instance; the provider wipes it.
* hours (200, 225]: the attacker flash-acquires the region, replays
  a-priori theta_init values (calibrated earlier on a board they own),
  and alternates Measurement with Condition-to-0, watching for the
  burn-1 recovery transient.

The recorded series start at hour 200 -- "we have no data about the
FPGA before that point".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.timeseries import SeriesBundle, length_class
from repro.cloud.fleet import build_fleet, cloud_wear_profile
from repro.cloud.provider import CloudProvider
from repro.core.metrics import RecoveryScore, grouped_accuracy, score_recovery
from repro.core.phases import CalibrationPhase
from repro.core.threat_model2 import BoardIdentification, ThreatModel2Attack
from repro.designs import build_measure_design, build_route_bank, build_target_design
from repro.experiments.config import Experiment3Config
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.reliability.retry import retry_call
from repro.rng import RngFactory

_log = get_logger("experiments.exp3")


@dataclass(frozen=True)
class Experiment3Result:
    """Everything Figure 8 plots, plus recovery scoring."""

    config: Experiment3Config
    bundle: SeriesBundle
    burn_values: tuple
    recovery_score: RecoveryScore
    devices_probed: int
    #: Per-route health from the attack (ok / degraded / unrecovered).
    route_status: dict = None
    #: How the attack picked the victim's board (per-board scores, gap
    #: to the runner-up); ``None`` when only one board was probed.
    identification: Optional[BoardIdentification] = None
    #: The label of the probed board that holds the victim's die -- the
    #: truth the identification is scored against.
    victim_board: Optional[str] = None

    def accuracy_by_length(self) -> dict[float, float]:
        """Recovery accuracy per route-length class."""
        groups = {
            s.route_name: length_class(s.nominal_delay_ps) for s in self.bundle
        }
        return grouped_accuracy(self.recovery_score, groups)


def run_experiment3(
    config: Optional[Experiment3Config] = None,
) -> Experiment3Result:
    """Run the full Experiment 3 protocol on the simulated cloud."""
    config = config or Experiment3Config.paper()
    rng = RngFactory(config.seed)

    with trace.span(
        "experiment", experiment="exp3", seed=config.seed,
        routes=len(config.route_lengths),
    ) as root:
        provider = CloudProvider(seed=rng.stream("provider"))
        fleet = build_fleet(
            VIRTEX_ULTRASCALE_PLUS,
            size=config.fleet_size,
            wear=cloud_wear_profile(config.device_age_mean_hours),
            seed=rng.stream("fleet"),
        )
        provider.create_region(config.region, fleet)

        with trace.span("experiment.build_designs"):
            grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
            routes = build_route_bank(grid, config.route_lengths)
            burn_values = tuple(
                int(b)
                for b in rng.stream("burn-values").integers(0, 2, len(routes))
            )
            victim_design = build_target_design(
                VIRTEX_ULTRASCALE_PLUS,
                routes,
                burn_values,
                heater_dsps=config.heater_dsps,
                name="victim-workload",
            )
            measure_design = build_measure_design(
                VIRTEX_ULTRASCALE_PLUS, routes
            )

        # --- Attacker's prior calibration, on a board they rent themselves
        # (theta_init transfers across boards of the same part).
        calibration_instance = retry_call(
            provider.rent, config.region, "attacker-calib",
            label="cloud.rent",
        )
        calibration = CalibrationPhase(
            measure_design, seed=rng.stream("calib")
        )
        session = calibration.run(calibration_instance)
        theta_init = dict(session.theta_init)
        provider.release(calibration_instance)

        # --- Victim period: unobserved 200-hour burn.
        with trace.phase(
            "experiment.victim_burn", hours=config.victim_burn_hours
        ):
            victim = retry_call(provider.rent, config.region, "victim",
                                label="cloud.rent")
            retry_call(victim.load_image, victim_design.bitstream,
                       label="exp3.victim_load")
            for _ in range(config.victim_burn_hours):
                provider.advance(1.0)
            victim_device = victim.device.device_id
            provider.release(victim)  # the provider wipes the board here

        # --- Attack period.
        attack = ThreatModel2Attack(
            provider=provider,
            region=config.region,
            routes=routes,
            theta_init=theta_init,
            conditioned_to=config.conditioned_to,
            seed=config.seed,
        )
        with trace.phase(
            "experiment.attack", recovery_hours=config.recovery_hours
        ):
            result = attack.run(recovery_hours=config.recovery_hours)

        truth = {
            route.name: value for route, value in zip(routes, burn_values)
        }
        for name, series in result.bundle.series.items():
            series.burn_value = truth[name]
        score = score_recovery(result.recovered_bits, truth)
        victim_board = None
        if result.identification is not None:
            victim_board = next(
                (label for label, device
                 in result.identification.devices.items()
                 if device == victim_device),
                None,
            )
        root.set(accuracy=round(score.accuracy, 4),
                 devices_probed=result.devices_probed)
    registry.counter("experiments_total", "experiment runs completed").inc()
    registry.gauge(
        "recovery_accuracy", "bit-recovery accuracy of the last run"
    ).set(score.accuracy)
    _log.info("experiment_done", experiment="exp3", seed=config.seed,
              accuracy=round(score.accuracy, 4),
              devices_probed=result.devices_probed)
    return Experiment3Result(
        config=config,
        bundle=result.bundle,
        burn_values=burn_values,
        recovery_score=score,
        devices_probed=result.devices_probed,
        route_status=dict(result.route_status),
        identification=result.identification,
        victim_board=victim_board,
    )
