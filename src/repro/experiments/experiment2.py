"""Experiment 2 (Section 6.2, Figure 7): Threat Model 1 on the cloud.

The attacker publishes a (maliciously constructed) AFI whose routes hold
the Type A secret X, rents an aged F1 instance in eu-west-2, and
interleaves burn-in with measurement for 200 hours.  Compared to the lab
run the device is years old and the ambient is uncontrolled, so the
observed magnitudes are roughly an order of magnitude smaller and
noisier -- but X remains recoverable from the drift signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.kernel_regression import local_linear_smooth
from repro.analysis.timeseries import SeriesBundle, length_class
from repro.cloud.fleet import build_fleet, cloud_wear_profile
from repro.cloud.marketplace import Marketplace
from repro.cloud.provider import CloudProvider
from repro.core.metrics import RecoveryScore, grouped_accuracy, score_recovery
from repro.core.threat_model1 import ThreatModel1Attack
from repro.designs import build_route_bank, build_target_design
from repro.experiments.config import Experiment2Config
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.rng import RngFactory

_log = get_logger("experiments.exp2")


@dataclass(frozen=True)
class Experiment2Result:
    """Everything Figure 7 plots, plus recovery scoring."""

    config: Experiment2Config
    bundle: SeriesBundle
    burn_values: tuple
    recovery_score: RecoveryScore
    #: Per-route health from the attack (ok / degraded / unrecovered).
    route_status: dict = None

    def magnitude_band(self, length_ps: float) -> tuple[float, float]:
        """(min, max) |smoothed delta-ps| at the end of burn-in per class."""
        magnitudes = []
        for series in self.bundle:
            if length_class(series.nominal_delay_ps) != length_ps:
                continue
            smoothed = local_linear_smooth(
                series.hours_array, series.centered, bandwidth=25.0
            )
            magnitudes.append(abs(float(smoothed[-1])))
        if not magnitudes:
            raise ValueError(f"no routes of length {length_ps}")
        return min(magnitudes), max(magnitudes)

    def accuracy_by_length(self) -> dict[float, float]:
        """Recovery accuracy per route-length class."""
        groups = {
            s.route_name: length_class(s.nominal_delay_ps) for s in self.bundle
        }
        return grouped_accuracy(self.recovery_score, groups)


def run_experiment2(
    config: Optional[Experiment2Config] = None,
) -> Experiment2Result:
    """Run the full Experiment 2 protocol on the simulated cloud."""
    config = config or Experiment2Config.paper()
    rng = RngFactory(config.seed)

    with trace.span(
        "experiment", experiment="exp2", seed=config.seed,
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
        marketplace = Marketplace()

        # The attacker authors the AFI, so they know its skeleton and can
        # leave the sensing region uninitialised (Threat Model 1's setting).
        with trace.phase("experiment.build_designs",
                         routes=len(config.route_lengths)):
            grid = VIRTEX_ULTRASCALE_PLUS.make_grid()
            routes = build_route_bank(grid, config.route_lengths)
            burn_values = tuple(
                int(b)
                for b in rng.stream("burn-values").integers(0, 2, len(routes))
            )
            target = build_target_design(
                VIRTEX_ULTRASCALE_PLUS,
                routes,
                burn_values,
                heater_dsps=config.heater_dsps,
                name="marketplace-accelerator",
            )
        listing = marketplace.publish(
            target.bitstream,
            publisher="attacker-shell-co",
            description="FMA acceleration library",
            public_skeleton=True,
        )

        attack = ThreatModel1Attack(
            provider=provider,
            marketplace=marketplace,
            afi_id=listing.afi_id,
            region=config.region,
            seed=rng.stream("sensors"),
        )
        with trace.phase("experiment.attack", burn_hours=config.burn_hours):
            result = attack.run(
                burn_hours=config.burn_hours,
                measure_every_hours=config.measure_every_hours,
            )

        bundle = result.bundle
        truth = {
            route.name: value for route, value in zip(routes, burn_values)
        }
        for name, series in bundle.series.items():
            series.burn_value = truth[name]
        score = score_recovery(result.recovered_bits, truth)
        root.set(accuracy=round(score.accuracy, 4))
    registry.counter("experiments_total", "experiment runs completed").inc()
    registry.gauge(
        "recovery_accuracy", "bit-recovery accuracy of the last run"
    ).set(score.accuracy)
    _log.info("experiment_done", experiment="exp2", seed=config.seed,
              accuracy=round(score.accuracy, 4))
    return Experiment2Result(
        config=config,
        bundle=bundle,
        burn_values=burn_values,
        recovery_score=score,
        route_status=dict(result.route_status),
    )
