"""The Measure design (Figure 5 of the paper).

An array of Tunable Dual-Polarity TDC sensors, one per route under test,
placed in the region the Target design left uninitialised.  The routes
themselves are the same physical segments the Target design used
(identical routing constraints), so the sensors read the analog state
the victim's data left behind.

Because sensing happens at runtime on a specific physical device, the
compiled :class:`MeasureDesign` is *attached* to a device after loading,
yielding a :class:`MeasureSession` that owns the per-route TDC instances
and implements the Calibration and Measurement phases.

Both phases run the whole bank at once: calibration as one lockstep
scan, measurement as one bank capture whose routes write their draws in
place into the rows of one preallocated ``(routes, 2, traces, samples)``
times tensor and one matching uniforms tensor.  Each route owns its own
generator stream, so the bank results equal a route-by-route loop bit
for bit; that loop is kept with the tests as the oracle they are
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    SensorError,
    TransientError,
)
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.reliability.retry import retry_call
from repro.fabric.bitstream import Bitstream
from repro.fabric.device import FpgaDevice
from repro.fabric.netlist import Cell, CellType, Net, NetActivity, Netlist
from repro.fabric.parts import PartDescriptor
from repro.fabric.placement import FixedPlacer
from repro.fabric.routing import Route
from repro.rng import SeedLike, make_rng
from repro.sensor.bank import resolve_bank
from repro.sensor.calibration import check_glitch, find_theta_init_bank
from repro.sensor.noise import CLOUD_NOISE, NoiseModel
from repro.sensor.tdc import (
    TRACES_PER_MEASUREMENT,
    Measurement,
    TunableDualPolarityTdc,
)
from repro.sensor.trace import SAMPLES_PER_TRACE

#: CARRY8 primitives per 64-element chain (eight 8-bit carries).
_CARRIES_PER_CHAIN = 8

#: Wall-clock cost of measuring one route (traces, readout, tuning); the
#: paper reports ~52 s for 64 routes, i.e. well under a minute total.
MEASUREMENT_SECONDS_PER_ROUTE = 0.8

_log = get_logger("designs.measure")


@dataclass(frozen=True)
class MeasureDesign:
    """A compiled Measure design: TDC array over a route bank."""

    bitstream: Bitstream
    routes: tuple[Route, ...]

    def attach(
        self,
        device: FpgaDevice,
        noise: NoiseModel = CLOUD_NOISE,
        seed: SeedLike = None,
    ) -> "MeasureSession":
        """Bind the sensor array to a device the design is loaded on."""
        if device.loaded_design is None or (
            device.loaded_design.bitstream_id != self.bitstream.bitstream_id
        ):
            raise SensorError(
                "measure design must be loaded on the device before attaching"
            )
        return MeasureSession(
            device=device, routes=self.routes, noise=noise, seed=seed
        )


@dataclass
class MeasureSession:
    """Runtime sensing session: one TDC per route on one device."""

    device: FpgaDevice
    routes: tuple[Route, ...]
    noise: NoiseModel = CLOUD_NOISE
    seed: SeedLike = None
    theta_init: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # One independent child stream per route: the bank-level kernels
        # interleave routes freely (lockstep calibration, stacked
        # measurement) yet each route materialises exactly the draws its
        # sequential per-route scan would, so batched and per-route
        # orchestration are bit-identical.
        rng = make_rng(self.seed)
        streams = rng.spawn(len(self.routes)) if self.routes else []
        self._tdcs = {
            route.name: TunableDualPolarityTdc(
                device=self.device, route=route, noise=self.noise,
                seed=stream,
            )
            for route, stream in zip(self.routes, streams)
        }

    @property
    def route_names(self) -> tuple[str, ...]:
        """Names of the routes under test, in bank order."""
        return tuple(route.name for route in self.routes)

    def calibrate(self) -> dict[str, float]:
        """The Calibration phase: find and store theta_init per route.

        One lockstep scan calibrates the whole bank, resolving each
        probe round as one stacked tensor.  The glitch fault site fires
        (and retries) per route in bank order before any probe, and
        glitched routes degrade to uncalibrated.  The scan over the
        survivors stores the thetas a route-by-route
        :func:`~repro.sensor.calibration.find_theta_init` loop would
        (each route owns its generator stream), and raises
        :class:`~repro.errors.CalibrationError` for the first route that
        loop would have failed on.
        """
        survivors: dict[str, TunableDualPolarityTdc] = {}
        unrecovered = 0
        with trace.span("sensor.calibrate", routes=len(self._tdcs)):
            for name, tdc in self._tdcs.items():
                # Retried per route, so the site stream is consumed in
                # bank order.
                try:
                    retry_call(
                        check_glitch, name, label=f"sensor.calibrate:{name}"
                    )
                except TransientError:
                    unrecovered += 1
                    registry.counter(
                        "calibrations_unrecovered_total",
                        "routes left uncalibrated past the retry budget",
                    ).inc()
                    _log.warning("calibration_unrecovered", route=name)
                    continue
                survivors[name] = tdc
            find_theta_init_bank(survivors, results=self.theta_init)
        _log.info("calibrated", routes=len(self._tdcs) - unrecovered,
                  unrecovered=unrecovered)
        return dict(self.theta_init)

    def use_theta_init(self, theta_init: dict[str, float]) -> None:
        """Adopt a-priori theta_init values (Threat Model 2).

        theta_init "is consistent across all FPGAs of the same type, and
        so capturing it once on any board is sufficient" -- the attacker
        calibrates on a board they own and replays the values here.
        """
        missing = set(self.route_names) - set(theta_init)
        if missing:
            raise ConfigurationError(
                f"theta_init missing for routes: {sorted(missing)}"
            )
        self.theta_init = dict(theta_init)

    def measure_bank(
        self, recover: bool = False
    ) -> tuple[dict[str, Measurement], list[str]]:
        """Measure every calibrated route in one bank kernel call.

        Draws each route's measurement sequentially in bank order -- the
        identical generator consumption of a route-by-route
        ``TunableDualPolarityTdc.measure`` loop -- writing it in place
        into the next row of the bank's times and uniforms tensors, then
        resolves every row in one call.

        With ``recover=False`` (the :meth:`measure_all` contract) an
        uncalibrated route raises :class:`SensorError` and a capture
        drop propagates.  With ``recover=True`` (the
        ``measure_with_recovery`` contract) drops retry per route and
        failures degrade: the route lands in the returned ``dropped``
        list instead, and takes no row.  Returns ``(measurements,
        dropped)``.
        """
        start = perf_counter()
        names = self.route_names
        times = np.empty(
            (len(names), 2, TRACES_PER_MEASUREMENT, SAMPLES_PER_TRACE)
        )
        uniforms = np.empty(times.shape + (self.device.part.tdc_chain_length,))
        measured: list[TunableDualPolarityTdc] = []
        thetas: list[float] = []
        dropped: list[str] = []
        with trace.span("sensor.capture", routes=len(self.routes)):
            for name in names:
                if name not in self.theta_init:
                    if not recover:
                        raise SensorError(
                            f"route {name!r} is not calibrated; run "
                            f"calibrate() or use_theta_init()"
                        )
                    dropped.append(name)
                    continue
                tdc = self._tdcs[name]
                theta = self.theta_init[name]
                row = len(measured)
                try:
                    if recover:
                        retry_call(
                            tdc.measure_draws, theta, times[row],
                            uniforms[row], label=f"sensor.capture:{name}",
                        )
                    else:
                        tdc.measure_draws(theta, times[row], uniforms[row])
                except TransientError:
                    if not recover:
                        raise
                    dropped.append(name)
                    continue
                measured.append(tdc)
                thetas.append(theta)
            rows = len(measured)
            measurements = resolve_bank(
                measured, thetas, times[:rows], uniforms[:rows]
            )
        elapsed = perf_counter() - start
        if measurements:
            registry.counter(
                "captures_total", "complete TDC measurements taken"
            ).inc(len(measurements))
            latency = registry.histogram(
                "capture_latency_seconds",
                "host wall time per TDC measurement",
            )
            skew = registry.histogram(
                "readout_skew_ps",
                "falling-minus-rising delta per capture (dT readout skew)",
            )
            share = elapsed / len(measurements)
            for measurement in measurements.values():
                # The bank resolves as one call, so per-route latency is
                # the amortised share of the bank's wall time.
                latency.observe(share)
                skew.observe(measurement.delta_ps)
        return measurements, dropped

    def measure_all(self) -> dict[str, Measurement]:
        """Measure every route; the whole pass takes under a minute."""
        measurements, _ = self.measure_bank()
        return measurements

    def measurement_duration_hours(self) -> float:
        """Simulated wall-clock cost of one measure_all pass."""
        return len(self.routes) * MEASUREMENT_SECONDS_PER_ROUTE / 3600.0


def build_measure_design(
    part: PartDescriptor,
    routes: Sequence[Route],
    name: str = "measure",
) -> MeasureDesign:
    """Compile a Measure design over an existing route bank.

    Per route: a transition-generator flip-flop at the route's start, a
    64-element carry chain (eight CARRY8s) at its end, and 64 capture
    flip-flops.  The route nets are configured but only carry sparse
    measurement edges (FLOATING activity), so loading the Measure design
    does not itself meaningfully stress the routes -- measurement is
    "fast, taking less than a minute" per pass.
    """
    grid = part.make_grid()
    netlist = Netlist(name=name)
    placer = FixedPlacer(grid)
    for route in routes:
        start, end = route.endpoints
        launch = netlist.add_cell(
            Cell(name=f"{route.name}_launch_ff", cell_type=CellType.FLIP_FLOP)
        )
        placer.place_at(
            launch.name,
            CellType.FLIP_FLOP,
            placer.nearest_tile(start, CellType.FLIP_FLOP),
        )
        chain_cells = []
        for i in range(_CARRIES_PER_CHAIN):
            carry = netlist.add_cell(
                Cell(name=f"{route.name}_carry{i}", cell_type=CellType.CARRY8)
            )
            tile = placer.nearest_tile(end.offset(0, i), CellType.CARRY8)
            placer.place_at(carry.name, CellType.CARRY8, tile)
            chain_cells.append(carry.name)
        netlist.add_net(
            Net(
                name=route.name,
                driver=launch.name,
                sinks=(chain_cells[0],),
                activity=NetActivity.FLOATING,
            ).with_route(route)
        )
        for upstream, downstream in zip(chain_cells, chain_cells[1:]):
            netlist.add_net(
                Net(
                    name=f"{upstream}_to_{downstream}",
                    driver=upstream,
                    sinks=(downstream,),
                    activity=NetActivity.FLOATING,
                )
            )
    bitstream = Bitstream.compile(netlist, placer.placement)
    return MeasureDesign(bitstream=bitstream, routes=tuple(routes))
