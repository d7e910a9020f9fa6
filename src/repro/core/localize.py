"""Skeleton-free imprint localisation (the paper's future work).

Both threat models assume the attacker knows the victim design's route
skeleton (Assumption 1).  Section 2 closes with: "Loosening or removing
this assumption would strengthen the threat model, and we are
considering ways to expand the threat model without Assumption 1 in
future work."  This module implements the natural approach:

1. enumerate candidate wire segments in a suspected region of the die
   (:func:`candidate_segments`);
2. bind one single-segment probe route (and TDC) to every candidate;
3. run the Threat Model 2 recovery observation -- condition everything
   to 0, measure hourly -- and flag the segments whose delta-ps shows
   the burn-1 recovery transient (:class:`ImprintScanner`);
4. cluster flagged segments into route chains by physical adjacency
   (:func:`cluster_imprints`), reconstructing the skeleton of the
   victim's 1-carrying routes.

The per-segment signal is one route's imprint divided by its switch
count, so localisation needs longer observation or more measurement
averaging than the skeleton-aware attacks -- quantified by the
``scan_report`` the scanner returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import AttackError
from repro.analysis.timeseries import DeltaPsSeries
from repro.core.classify import NullReferencedSlopeClassifier
from repro.designs.target import build_target_design
from repro.fabric.geometry import Coordinate, FabricGrid
from repro.fabric.routing import Route, SegmentId
from repro.fabric.segments import SegmentKind, spec_for
from repro.rng import SeedLike, make_rng
from repro.sensor.noise import CLOUD_NOISE, NoiseModel
from repro.sensor.tdc import TunableDualPolarityTdc
from repro.sensor.calibration import find_theta_init


def candidate_segments(
    grid: FabricGrid,
    columns: Iterable[int],
    kinds: Sequence[SegmentKind] = (SegmentKind.LONG,),
    tracks: int = 2,
) -> list[SegmentId]:
    """Enumerate scannable wire segments in a column window.

    Long lines are the natural first targets: they carry the bulk of any
    long route's imprint and there are few of them per tile.
    """
    candidates = []
    for x in sorted(set(columns)):
        for kind in kinds:
            span = max(spec_for(kind).span_tiles, 1)
            y = grid.shell_rows
            while y + span <= grid.rows:
                for track in range(tracks):
                    candidates.append(
                        SegmentId(kind=kind, origin=Coordinate(x, y), track=track)
                    )
                y += span
    if not candidates:
        raise AttackError("no candidate segments in the scan window")
    return candidates


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one imprint scan."""

    flagged: tuple[SegmentId, ...]
    series: dict[str, DeltaPsSeries]
    segment_for_probe: dict[str, SegmentId]

    @property
    def flagged_count(self) -> int:
        """Number of segments flagged as imprinted."""
        return len(self.flagged)


@dataclass
class ImprintScanner:
    """Scans candidate segments for burn-1 recovery transients.

    Operates on any environment exposing ``load_image`` / ``run_hours``
    (lab bench or rented instance).  Each candidate gets a one-segment
    probe route and TDC; the scan alternates hold-0 conditioning with
    measurement and flags segments whose series shows the recovery
    transient at ``z_threshold`` significance against the scan's own
    weakest-percentile null.
    """

    environment: object
    grid: FabricGrid
    noise: NoiseModel = field(default_factory=lambda: CLOUD_NOISE)
    seed: SeedLike = None
    measurement_passes: int = 4
    z_threshold: float = 2.0

    def scan(
        self,
        candidates: Sequence[SegmentId],
        observation_hours: int = 12,
    ) -> ScanResult:
        """Run the recovery scan over the candidates."""
        if observation_hours < 3:
            raise AttackError("need at least 3 hourly observations")
        if not candidates:
            raise AttackError("no candidates to scan")
        rng = make_rng(self.seed)
        device = getattr(self.environment, "device")
        probes = {
            f"probe[{i}]": Route(name=f"probe[{i}]", segments=(segment,))
            for i, segment in enumerate(candidates)
        }
        segment_for_probe = {
            name: route.segments[0] for name, route in probes.items()
        }
        hold = build_target_design(
            device.part,
            list(probes.values()),
            [0] * len(probes),
            heater_dsps=0,
            name="imprint-scan-hold",
        )
        # Every TDC draws from the one shared generator, so the scan
        # calibrates one route at a time and measures one TDC per pass:
        # a bank across the TDCs would reorder that stream.
        tdcs = {
            name: TunableDualPolarityTdc(
                device=device, route=route, noise=self.noise, seed=rng
            )
            for name, route in probes.items()
        }
        # Probes must be configured (the hold design) while measuring;
        # loading it up-front also lets calibration see real conditions.
        self.environment.load_image(hold.bitstream)
        theta = {name: find_theta_init(tdc) for name, tdc in tdcs.items()}
        series = {
            name: DeltaPsSeries(
                route_name=name,
                nominal_delay_ps=probes[name].nominal_delay_ps,
            )
            for name in probes
        }
        clock = 0.0
        for _ in range(observation_hours):
            self._measure_all(tdcs, theta, series, clock)
            self.environment.load_image(hold.bitstream)
            self.environment.run_hours(1.0)
            clock += 1.0
        self._measure_all(tdcs, theta, series, clock)

        flagged = self._flag(series, segment_for_probe)
        return ScanResult(
            flagged=flagged,
            series=series,
            segment_for_probe=segment_for_probe,
        )

    def _measure_all(self, tdcs, theta, series, clock) -> None:
        for name, tdc in tdcs.items():
            total = 0.0
            for _ in range(max(self.measurement_passes, 1)):
                total += tdc.measure(theta[name]).delta_ps
            series[name].append(clock, total / max(self.measurement_passes, 1))

    def _flag(self, series, segment_for_probe) -> tuple:
        """Flag probes recovering significantly against the scan null.

        Most scanned segments never carried a 1, so the scan population
        itself provides the null: features are z-scored against the
        upper (non-recovering) half of the distribution.
        """
        classifier = NullReferencedSlopeClassifier(
            z_threshold=self.z_threshold
        )
        features = {
            name: classifier._slope(s) for name, s in series.items()
        }
        values = np.array(list(features.values()))
        # Robust null: most segments never carried a 1, so the median
        # estimates the clean centre.  Spread comes from the *upper*
        # (non-recovering) side only -- recovering probes all sit in the
        # negative tail, and folding them into a two-sided MAD inflates
        # the spread enough to hide their own significance.  For a
        # symmetric clean distribution the one-sided median deviation
        # equals the MAD, so the 1.4826 normal-consistency factor still
        # applies.
        centre = float(np.median(values))
        upper = values[values > centre] - centre
        mad = float(np.median(upper)) if upper.size else 0.0
        spread = max(1.4826 * mad, 1e-9)
        flagged = tuple(
            segment_for_probe[name]
            for name, feature in features.items()
            if (feature - centre) / spread < -self.z_threshold
        )
        return flagged


def cluster_imprints(
    flagged: Iterable[SegmentId], adjacency_tiles: int = 14
) -> list[list[SegmentId]]:
    """Group flagged segments into route chains by physical adjacency.

    Segments whose origins are within ``adjacency_tiles`` Manhattan
    distance are assumed to belong to one serpentine route; connected
    components reconstruct the victim skeleton's 1-routes.  Components
    come in the order of their first flagged segment, each sorted by
    origin, segments sharing an origin in flagged order.
    """
    segments = list(flagged)
    # Union-find whose root is always a component's smallest index.
    root = list(range(len(segments)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, a in enumerate(segments):
        for j in range(i + 1, len(segments)):
            b = segments[j]
            if a.origin.manhattan_distance(b.origin) <= adjacency_tiles:
                ri, rj = find(i), find(j)
                root[max(ri, rj)] = min(ri, rj)
    components: dict[int, list[SegmentId]] = {}
    for i, segment in enumerate(segments):
        components.setdefault(find(i), []).append(segment)
    return [
        sorted(component, key=lambda s: s.origin)
        for component in components.values()
    ]
