"""Threat Model 1: proprietary design data extraction.

The attacker rents a marketplace AFI whose bitstream is sealed, knows
its route skeleton (Assumption 1), and wants the constants baked into
it.  Following Section 2's six steps:

1. rent an F1 instance;
2. measure the target routes pre-burn (the baseline the series are
   centred on);
3. deploy the victim AFI;
4. let it execute, burning its constants into the routes;
5. interleave measurement passes with further burn-in;
6. classify each route's drift to recover the constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AttackError
from repro.analysis.timeseries import SeriesBundle
from repro.cloud.marketplace import Marketplace
from repro.cloud.provider import CloudProvider
from repro.core.classify import BurnTrendClassifier, classify_tolerantly
from repro.core.phases import CalibrationPhase, MeasurementPhase
from repro.designs.measure import build_measure_design
from repro.fabric.bitstream import DesignSkeleton
from repro.observability import trace
from repro.reliability.retry import retry_call
from repro.rng import SeedLike


@dataclass(frozen=True)
class ThreatModel1Result:
    """Outcome of a Threat Model 1 run."""

    recovered_bits: dict[str, int]
    bundle: SeriesBundle
    burn_hours: float
    #: Per-route recovery status: ``"ok"`` (full series), ``"degraded"``
    #: (some measurement passes lost past the retry budget) or
    #: ``"unrecovered"`` (too little data -- the bit is a guess).
    route_status: dict[str, str] = field(default_factory=dict)


def _note_pass(measurements: dict, route_status: dict) -> dict:
    """Mark routes a measurement pass lost as degraded; pass through."""
    for name in route_status:
        if name not in measurements and route_status[name] == "ok":
            route_status[name] = "degraded"
    return measurements


@dataclass
class ThreatModel1Attack:
    """End-to-end Type A (design data) extraction.

    Attributes:
        provider: the cloud platform.
        marketplace: where the victim AFI is listed.
        afi_id: the listing under attack.
        skeleton: the design skeleton (Assumption 1); fetched from the
            marketplace automatically when the publisher's sources are
            public.
        region: region to rent in.
        tenant: attacker's account name.
    """

    provider: CloudProvider
    marketplace: Marketplace
    afi_id: str
    region: str
    skeleton: Optional[DesignSkeleton] = None
    tenant: str = "attacker"
    seed: SeedLike = None
    classifier: BurnTrendClassifier = field(default_factory=BurnTrendClassifier)

    def run(
        self,
        burn_hours: int = 200,
        measure_every_hours: float = 1.0,
    ) -> ThreatModel1Result:
        """Execute the attack and recover the AFI's static net values."""
        if burn_hours <= 0:
            raise AttackError(f"burn_hours must be positive, got {burn_hours}")
        skeleton = self.skeleton or self.marketplace.skeleton_of(self.afi_id)
        # Target the constant-driven nets (Type A data); the skeleton
        # reveals which nets those are, never their values.
        routes = skeleton.static_routes()
        if not routes:
            routes = [skeleton.route_for(name) for name in skeleton.net_names]
        route_status = {route.name: "ok" for route in routes}
        instance = retry_call(self.provider.rent, self.region, self.tenant,
                              label="cloud.rent")
        try:
            part = instance.device.part
            measure_design = build_measure_design(
                part, routes, name=f"tm1-measure-{self.afi_id}"
            )
            calibration = CalibrationPhase(measure_design, seed=self.seed)
            measurement = MeasurementPhase(
                measure_design=measure_design, calibration=calibration
            )

            # Steps 1-2: pre-burn-in calibration and baseline.
            calibration.run(instance)
            bundle = SeriesBundle(label=f"tm1-{self.afi_id}")
            from repro.analysis.timeseries import DeltaPsSeries

            for route in routes:
                bundle.add(
                    DeltaPsSeries(
                        route_name=route.name,
                        nominal_delay_ps=route.nominal_delay_ps,
                    )
                )
            clock = 0.0
            for route_name, m in _note_pass(
                measurement.run(instance), route_status
            ).items():
                bundle.series[route_name].append(clock, m.delta_ps)

            # Steps 3-5: interleave AFI execution with measurement.
            listing = self.marketplace.listing(self.afi_id)
            cycles = int(round(burn_hours / measure_every_hours))
            for cycle in range(cycles):
                with trace.span("tm1.cycle", index=cycle, hour=clock):
                    retry_call(instance.load_image, listing.image,
                               label="tm1.load_target")
                    retry_call(instance.run_hours, measure_every_hours,
                               label="tm1.burn")
                    clock += measure_every_hours
                    measurements = _note_pass(
                        measurement.run(instance), route_status
                    )
                    for route_name, m in measurements.items():
                        bundle.series[route_name].append(clock, m.delta_ps)
                    clock += calibration.session.measurement_duration_hours()

            # Step 6: classify the drift into bits; routes whose series
            # came back too thin degrade to a guessed 0 instead of
            # aborting the whole extraction.
            recovered = classify_tolerantly(
                list(bundle), self.classifier.classify_many,
                min_points=4, route_status=route_status,
            )
        finally:
            self.provider.release(instance)
        return ThreatModel1Result(
            recovered_bits=recovered, bundle=bundle,
            burn_hours=float(burn_hours), route_status=route_status,
        )

    def run_until_confident(
        self,
        max_hours: int = 200,
        measure_every_hours: float = 1.0,
        sprt: Optional["SprtConfig"] = None,
    ) -> ThreatModel1Result:
        """Sequential variant: stop when every bit has settled.

        Section 6.2: "The attacker can continue the burn-in process
        until they are satisfied that the sensitive values are
        extracted."  Runs the same interleave but feeds every
        measurement into a per-route SPRT
        (:class:`~repro.core.sequential.SequentialExtractor`) and
        releases the instance as soon as all routes settle -- long
        routes settle within hours, so the attacker's rent bill shrinks
        dramatically against a fixed 200-hour burn.
        """
        from repro.core.sequential import SequentialExtractor, SprtConfig

        if max_hours <= 0:
            raise AttackError(f"max_hours must be positive, got {max_hours}")
        skeleton = self.skeleton or self.marketplace.skeleton_of(self.afi_id)
        routes = skeleton.static_routes()
        if not routes:
            routes = [skeleton.route_for(name) for name in skeleton.net_names]
        extractor = SequentialExtractor(config=sprt or SprtConfig())
        route_status = {route.name: "ok" for route in routes}
        instance = retry_call(self.provider.rent, self.region, self.tenant,
                              label="cloud.rent")
        try:
            part = instance.device.part
            measure_design = build_measure_design(
                part, routes, name=f"tm1-seq-measure-{self.afi_id}"
            )
            calibration = CalibrationPhase(measure_design, seed=self.seed)
            measurement = MeasurementPhase(
                measure_design=measure_design, calibration=calibration
            )
            calibration.run(instance)
            bundle = SeriesBundle(label=f"tm1-seq-{self.afi_id}")
            from repro.analysis.timeseries import DeltaPsSeries

            for route in routes:
                bundle.add(
                    DeltaPsSeries(
                        route_name=route.name,
                        nominal_delay_ps=route.nominal_delay_ps,
                    )
                )
            clock = 0.0
            for route_name, m in _note_pass(
                measurement.run(instance), route_status
            ).items():
                bundle.series[route_name].append(clock, m.delta_ps)
                route = bundle.series[route_name]
                extractor.update(
                    route_name, route.nominal_delay_ps, clock, m.delta_ps
                )
            listing = self.marketplace.listing(self.afi_id)
            cycles = int(round(max_hours / measure_every_hours))
            for cycle in range(cycles):
                with trace.span("tm1.cycle", index=cycle, hour=clock):
                    retry_call(instance.load_image, listing.image,
                               label="tm1.load_target")
                    retry_call(instance.run_hours, measure_every_hours,
                               label="tm1.burn")
                    clock += measure_every_hours
                    for route_name, m in _note_pass(
                        measurement.run(instance), route_status
                    ).items():
                        bundle.series[route_name].append(clock, m.delta_ps)
                        route = bundle.series[route_name]
                        extractor.update(
                            route_name, route.nominal_delay_ps, clock,
                            m.delta_ps,
                        )
                    clock += calibration.session.measurement_duration_hours()
                if extractor.all_settled():
                    break
            recovered = extractor.decisions()
            for route in routes:
                if route.name not in recovered:
                    # No data ever reached the SPRT for this route:
                    # report a guessed 0 rather than aborting.
                    recovered[route.name] = 0
                    route_status[route.name] = "unrecovered"
        finally:
            self.provider.release(instance)
        return ThreatModel1Result(
            recovered_bits=recovered, bundle=bundle, burn_hours=clock,
            route_status=route_status,
        )
