"""Threat Model 2: confidential user data extraction.

The attacker targets a *previous tenant* of a cloud FPGA.  Per Section
2's steps: the victim runs their design (burning their runtime data into
the routes), releases the device, and the provider wipes it.  The
attacker then

4. re-acquires the relinquished physical device (flash attack: exhaust
   the region's free stock, so the victim's board is guaranteed to be
   among the holdings);
5. loads a Measure design over the victim's route skeleton on **every**
   held board, replaying a-priori theta_init values (calibrated once on
   any same-part board -- the attacker never saw *this* board pre-burn);
6. alternates Measurement with Condition-to-0 for ~25 hours on all
   boards in lockstep (they are independent hardware), identifies the
   victim's board as the one showing recovery transients, and classifies
   each route's transient into the victim's bits.

Conditioning to logical 0 is the paper's choice "motivated by the
results in Experiment 1": the burn-1 imprint recovers fastest, giving
the largest detectable transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import AttackError
from repro.analysis.timeseries import DeltaPsSeries, SeriesBundle
from repro.cloud.colocation import FlashAttack
from repro.cloud.instance import F1Instance
from repro.cloud.provider import CloudProvider
from repro.core.classify import (
    NullReferencedSlopeClassifier,
    RecoverySlopeClassifier,
    classify_tolerantly,
)
from repro.core.phases import measure_with_recovery
from repro.designs.measure import MeasureSession, build_measure_design
from repro.designs.target import build_target_design
from repro.fabric.routing import Route
from repro.observability import trace
from repro.observability.metrics import registry
from repro.reliability.retry import retry_call
from repro.rng import RngFactory, SeedLike


@dataclass(frozen=True)
class BoardIdentification:
    """Why a flash-attack haul's board was taken as the victim's.

    Attributes:
        scores: identification score per board label, in probe order
            (see :func:`_board_scores`; the highest wins).
        devices: the physical die behind each board label.
        chosen: the label of the board taken as the victim's.
        gap: the chosen board's score minus the runner-up's -- how
            clearly it won.
    """

    scores: dict[str, float]
    devices: dict[str, int]
    chosen: str
    gap: float


@dataclass(frozen=True)
class ThreatModel2Result:
    """Outcome of a Threat Model 2 run."""

    recovered_bits: dict[str, int]
    bundle: SeriesBundle
    recovery_hours: float
    devices_probed: int
    all_bundles: tuple = ()
    #: Per-route recovery status: ``"ok"``, ``"degraded"`` (points lost
    #: past the retry budget) or ``"unrecovered"`` (bit is a guess).
    route_status: dict[str, str] = field(default_factory=dict)
    #: How the victim's board was picked; ``None`` when only one board
    #: was probed.
    identification: Optional[BoardIdentification] = None


@dataclass
class _BoardProbe:
    """Per-board sensing state during the lockstep recovery window."""

    instance: F1Instance
    session: MeasureSession
    bundle: SeriesBundle


@dataclass
class ThreatModel2Attack:
    """End-to-end Type B (user data) extraction.

    Attributes:
        provider: the cloud platform.
        region: region the victim computed in.
        routes: the victim design's route skeleton (Assumption 1).
        theta_init: a-priori per-route calibration, captured on any
            board of the same part.
        conditioned_to: value the attacker holds during the recovery
            window (0 per the paper's analysis).
    """

    provider: CloudProvider
    region: str
    routes: Sequence[Route]
    theta_init: dict[str, float]
    conditioned_to: int = 0
    tenant: str = "attacker"
    seed: SeedLike = None
    #: Measurement passes averaged per hourly point.  The paper measures
    #: once per hour, but measurement costs under a minute and the
    #: attacker owns the board for the full hour -- averaging a few
    #: passes is a free noise reduction (sqrt(passes)).
    measurement_passes: int = 4
    classifier: RecoverySlopeClassifier = field(
        default_factory=RecoverySlopeClassifier
    )

    def run(
        self,
        recovery_hours: int = 25,
        instances: Optional[Sequence[F1Instance]] = None,
    ) -> ThreatModel2Result:
        """Execute the recovery-side attack.

        With ``instances=None`` a flash attack first exhausts the
        region; all acquired boards are probed in lockstep and the one
        with the strongest transient is taken as the victim's.  Passing
        instances skips acquisition (e.g. when the attacker already
        confirmed the board by fingerprint).
        """
        if self.conditioned_to not in (0, 1):
            raise AttackError("conditioned_to must be 0 or 1")
        if recovery_hours < 3:
            raise AttackError("need at least 3 hourly points to see a trend")
        flash = None
        if instances is None:
            flash = FlashAttack(
                provider=self.provider,
                region_name=self.region,
                tenant=self.tenant,
            )
            instances = flash.acquire_all()
        self._route_status = {route.name: "ok" for route in self.routes}
        try:
            probes = self._arm_boards(instances)
            self._lockstep_recovery(probes, recovery_hours)
        finally:
            if flash is not None:
                flash.release_except(None)
        bundles = tuple(probe.bundle for probe in probes)
        identification = None
        if len(bundles) > 1:
            scores = _board_scores(bundles, self.conditioned_to)
            best = bundles[int(np.argmax(scores))]
            ranked = sorted(scores, reverse=True)
            identification = BoardIdentification(
                scores={b.label: s for b, s in zip(bundles, scores)},
                devices={
                    probe.bundle.label: probe.instance.device.device_id
                    for probe in probes
                },
                chosen=best.label,
                gap=ranked[0] - ranked[1],
            )
            # The other flash-acquired boards ran the identical probe
            # without victim data: a measured null distribution.  Null
            # series too thin to yield a slope (their measurements were
            # dropped past the retry budget) are left out of the
            # reference; victim routes without any usable reference
            # degrade to a guess instead of aborting.
            null_series = [
                s for b in bundles if b is not best
                for s in b if len(s) >= 3
            ]
            covered = {s.route_name for s in null_series}
            recovered = classify_tolerantly(
                list(best),
                lambda usable: NullReferencedSlopeClassifier().classify_many(
                    [s for s in usable if s.route_name in covered],
                    null_series, conditioned_to=self.conditioned_to,
                ),
                min_points=3, route_status=self._route_status,
            )
        else:
            best = bundles[0]
            recovered = classify_tolerantly(
                list(best),
                lambda usable: self.classifier.classify_many(
                    usable, conditioned_to=self.conditioned_to
                ),
                min_points=3, route_status=self._route_status,
            )
        return ThreatModel2Result(
            recovered_bits=recovered,
            bundle=best,
            recovery_hours=float(recovery_hours),
            devices_probed=len(bundles),
            all_bundles=bundles,
            route_status=dict(self._route_status),
            identification=identification,
        )

    def _arm_boards(self, instances: Sequence[F1Instance]) -> list:
        """Step 5 on every board: load sensors, replay theta_init."""
        if not instances:
            raise AttackError("no boards to probe")
        rng = RngFactory(None if self.seed is None else int(self.seed))
        part = instances[0].device.part
        self._measure_design = build_measure_design(
            part, self.routes, name="tm2-measure"
        )
        self._hold_design = build_target_design(
            part,
            self.routes,
            burn_values=[self.conditioned_to] * len(self.routes),
            heater_dsps=0,
            name="tm2-hold",
        )
        probes = []
        # Labels follow probe order, not the provider's process-wide
        # instance ids, so a run reports the same board names however
        # many instances the process rented before it.
        for index, instance in enumerate(instances):
            retry_call(instance.load_image, self._measure_design.bitstream,
                       label="tm2.arm")
            session = instance.attach_sensors(
                self._measure_design, seed=rng.spawn()
            )
            session.use_theta_init(self.theta_init)
            bundle = SeriesBundle(
                label=f"tm2-board-{index}"
            )
            for route in self.routes:
                bundle.add(
                    DeltaPsSeries(
                        route_name=route.name,
                        nominal_delay_ps=route.nominal_delay_ps,
                    )
                )
            probes.append(
                _BoardProbe(instance=instance, session=session, bundle=bundle)
            )
        return probes

    def _lockstep_recovery(self, probes: list, recovery_hours: int) -> None:
        """Step 6: hourly measure/condition on all boards in parallel.

        Boards are independent hardware, so one global clock advance
        covers every board's conditioning hour.
        """
        clock = 0.0
        measure_dt = probes[0].session.measurement_duration_hours()
        for hour in range(recovery_hours):
            with trace.span("tm2.lockstep_cycle", hour=hour,
                            boards=len(probes)):
                clock = self._measure_all_boards(probes, clock, measure_dt)
                for probe in probes:
                    retry_call(probe.instance.load_image,
                               self._hold_design.bitstream,
                               label="tm2.hold")
                self.provider.advance(1.0)
                clock += 1.0
        self._measure_all_boards(probes, clock, measure_dt)

    def _measure_all_boards(
        self, probes: list, clock: float, measure_dt: float
    ) -> float:
        passes = max(self.measurement_passes, 1)
        route_status = getattr(self, "_route_status", {})
        for index, probe in enumerate(probes):
            with trace.span("tm2.board_measure", board=index, passes=passes):
                retry_call(probe.instance.load_image,
                           self._measure_design.bitstream,
                           label="tm2.measure_load")
                totals: dict[str, float] = {}
                counts: dict[str, int] = {}
                for _ in range(passes):
                    measurements, dropped = measure_with_recovery(
                        probe.session
                    )
                    for route_name, m in measurements.items():
                        totals[route_name] = (
                            totals.get(route_name, 0.0) + m.delta_ps
                        )
                        counts[route_name] = counts.get(route_name, 0) + 1
                    for route_name in dropped:
                        if route_status.get(route_name) == "ok":
                            route_status[route_name] = "degraded"
                # A route with zero surviving passes this hour simply
                # contributes no point; surviving passes still average.
                for route_name, total in totals.items():
                    probe.bundle.series[route_name].append(
                        clock, total / counts[route_name]
                    )
            registry.counter(
                "tm2_board_measurements_total",
                "per-board lockstep measurement passes",
            ).inc(passes)
        self.provider.advance(measure_dt * passes)
        return clock + measure_dt * passes


def _board_scores(
    bundles: Sequence[SeriesBundle], conditioned_to: int
) -> list[float]:
    """Score each board of a flash-attack haul; the victim's scores highest.

    Two signatures distinguish the victim's board, both per unit route
    length over the longer (less noisy) routes:

    * its former burn-``conditioned_to`` routes sit on *saturated*
      trap pools, so the attacker's own conditioning adds almost
      nothing -- the majority of routes is **flatter** than on a
      pristine board, where every route shows the fresh conditioning
      drift (higher median feature when conditioning to 0);
    * its former burn-complement routes recover strongly -- a **wide
      dispersion** of features.

    The score combines both (median + 2 IQR for conditioning-to-0).
    Identification assumes the secret is not single-valued; for
    degenerate all-same-bit secrets, fingerprint-based re-acquisition
    (:mod:`repro.cloud.fingerprint`) is the reliable alternative.
    """
    classifier = RecoverySlopeClassifier()
    scores = []
    for bundle in bundles:
        features = np.asarray(
            [
                classifier.feature(series)
                / max(series.nominal_delay_ps / 1000.0, 1e-9)
                for series in bundle
                if series.nominal_delay_ps >= 1500.0
            ]
            or [
                classifier.feature(series)
                / max(series.nominal_delay_ps / 1000.0, 1e-9)
                for series in bundle
            ]
        )
        median = float(np.median(features))
        iqr = float(
            np.percentile(features, 75) - np.percentile(features, 25)
        )
        directional = median if conditioned_to == 0 else -median
        scores.append(directional + 2.0 * iqr)
    return scores
