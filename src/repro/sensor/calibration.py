"""TDC calibration: finding theta_init per route.

The Calibration phase (Section 5.2): starting from a large phase offset,
``theta`` is iteratively reduced, taking a short 2^4-sample trace at each
setting, until both the rising and the falling transition land inside
the carry chain's capture window.  The resulting ``theta_init`` centres
the slower transition mid-chain so that subsequent drift in either
direction stays on-scale.

The paper also notes (Experiment 3) that theta_init is consistent across
devices of the same part, so an attacker can calibrate once on any board
they control and reuse the value -- :func:`find_theta_init` is therefore
deliberately independent of device identity beyond the part's timing.

Every calibration runs one lockstep scan, :func:`find_theta_init_bank`:
a Measure session over its whole bank, :func:`find_theta_init` over a
bank of one.  The sequential one-route scan it replaced survives only
as a test oracle, and the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import CalibrationError, CalibrationGlitchError
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.reliability.faults import maybe_inject
from repro.sensor.bank import probe_bank
from repro.sensor.tdc import TunableDualPolarityTdc

_log = get_logger("sensor.calibration")

#: Acceptable window for the mean propagation distance at theta_init,
#: in chain elements: keeps headroom for drift in both directions.
_TARGET_LOW = 20.0
_TARGET_HIGH = 44.0


def _default_start_ps(tdc: TunableDualPolarityTdc) -> float:
    # The attacker knows the route skeleton (Assumption 1), hence its
    # nominal delay; starting the descent just above it saves most of
    # the sweep without changing the result.
    from repro.sensor.transition import NOMINAL_INSERTION_DELAY_PS

    return min(
        tdc.route.nominal_delay_ps
        + NOMINAL_INSERTION_DELAY_PS
        + tdc.chain.nominal_bin_ps * tdc.chain_length
        + 600.0,
        tdc.phase.max_ps,
    )


def _default_coarse_ps(tdc: TunableDualPolarityTdc) -> float:
    return tdc.chain.nominal_bin_ps * tdc.chain_length / 4.0


def check_glitch(route_name: str) -> None:
    """The ``sensor.calibrate`` fault site, checked once per route.

    Runs before the route's first probe, so a retried calibration
    consumes the identical noise sequence.
    """
    maybe_inject(
        "sensor.calibrate", CalibrationGlitchError,
        f"route {route_name!r}: calibration sweep aborted "
        f"(injected environmental glitch)",
    )


def find_theta_init(tdc: TunableDualPolarityTdc) -> float:
    """Search downward from a large theta until transitions are centred.

    Returns the theta_init to use for this route's measurements.  Raises
    :class:`CalibrationError` if no setting lands both polarities inside
    the capture window (e.g. the route is far longer than the
    programmable phase range).

    The one-route entry point for ``core.localize`` and the examples:
    the :func:`check_glitch` fault site, then
    :func:`find_theta_init_bank` over a bank of one.
    """
    check_glitch(tdc.route.name)
    return find_theta_init_bank({tdc.route.name: tdc})[tdc.route.name]


@dataclass
class _LockstepRoute:
    """One route's scan state inside the lockstep descent."""

    name: str
    tdc: TunableDualPolarityTdc
    theta: float
    coarse: float
    fine: float
    probes: int
    stage: str = "coarse"  # coarse | fine | done | failed
    failure: Optional[str] = None
    best_theta: Optional[float] = None
    attempt: int = 0
    retries: int = 0


def _advance_scan(scan: _LockstepRoute, rising: float, falling: float) -> None:
    """Apply one probe's outcome to one route's scan.

    The coarse descent steps down by ``coarse`` until either transition
    enters the chain; the fine descent then steps down one phase step
    per probe until the mean of both polarities sits inside the target
    window, giving up after ``probes`` attempts.
    """
    if scan.stage == "coarse":
        chain_length = float(scan.tdc.chain_length)
        if rising < chain_length or falling < chain_length:
            # The same theta is re-probed as the first fine-descent
            # attempt.
            scan.stage = "fine"
            return
        scan.theta = max(scan.theta - scan.coarse, 0.0)
        if scan.theta <= 0.0:
            scan.stage = "failed"
            scan.failure = "never_entered_chain"
        return
    centre = (rising + falling) / 2.0
    if _TARGET_LOW <= centre <= _TARGET_HIGH and min(rising, falling) > 4.0:
        scan.best_theta = scan.theta
        scan.retries = scan.attempt
        scan.stage = "done"
        return
    if max(rising, falling) <= _TARGET_LOW:
        scan.retries = scan.attempt
        scan.stage = "failed"
        scan.failure = "could_not_centre"
        return
    scan.theta -= scan.fine
    if scan.theta < 0.0:
        scan.retries = scan.attempt
        scan.stage = "failed"
        scan.failure = "could_not_centre"
        return
    scan.attempt += 1
    if scan.attempt >= scan.probes:
        scan.retries = scan.probes
        scan.stage = "failed"
        scan.failure = "could_not_centre"


def find_theta_init_bank(
    tdcs: Mapping[str, TunableDualPolarityTdc],
    results: Optional[dict] = None,
) -> dict[str, float]:
    """Lockstep calibration of a whole route bank.

    Runs every route's downward scan simultaneously: each round takes
    one probe per still-searching route at that route's own current
    theta and resolves the whole round as one stacked tensor via
    :func:`repro.sensor.bank.probe_bank`.  Each route owns an
    independent generator stream and its probe sequence (thetas, draw
    order, draw shapes) is exactly the sequence a sequential one-route
    scan takes, so the returned theta_init values and the calibration
    counters are bit-identical to a route-by-route loop of that scan,
    with or without jitter.

    Failures reproduce the sequential contract: counters, logs and
    stored thetas replay in bank order and the first failing route
    raises :class:`CalibrationError`, leaving ``results`` (when given)
    holding the thetas of the routes preceding it -- the same partial
    progress the per-route loop leaves behind.  (Routes after the
    failure consumed their probe draws, but a failed calibration
    abandons the session, so nothing observable depends on them.)

    It also counts ``calibrations_total`` per stored route, because the
    caller cannot interleave per-route bookkeeping with a fused scan.
    The fault site is the caller's: :func:`find_theta_init` and
    ``MeasureSession.calibrate`` check :func:`check_glitch` per route
    before the scan.
    """
    scans = []
    for name, tdc in tdcs.items():
        theta = tdc.phase.quantise(_default_start_ps(tdc))
        coarse = _default_coarse_ps(tdc)
        fine = tdc.phase.step_ps
        scan = _LockstepRoute(
            name=name, tdc=tdc, theta=theta, coarse=coarse, fine=fine,
            probes=int(2.0 * coarse / fine) + tdc.chain_length,
        )
        if theta <= 0.0:
            # No phase left to descend from: an immediate failure.
            scan.stage = "failed"
            scan.failure = "never_entered_chain"
        scans.append(scan)

    while True:
        active = [s for s in scans if s.stage in ("coarse", "fine")]
        if not active:
            break
        rising, falling = probe_bank(
            [s.tdc for s in active], [s.theta for s in active]
        )
        for scan, r, f in zip(active, rising, falling):
            _advance_scan(scan, float(r), float(f))

    if results is None:
        results = {}
    for scan in scans:
        if scan.failure == "never_entered_chain":
            registry.counter(
                "calibration_failures_total",
                "routes that failed calibration",
            ).inc()
            _log.error("calibration_failed", route=scan.name,
                       reason="never_entered_chain")
            raise CalibrationError(
                f"route {scan.name!r}: transitions never entered the chain"
            )
        registry.counter(
            "calibration_retries_total",
            "fine-descent probes re-taken beyond the first per route",
        ).inc(scan.retries)
        if scan.best_theta is None:
            registry.counter(
                "calibration_failures_total",
                "routes that failed calibration",
            ).inc()
            _log.error("calibration_failed", route=scan.name,
                       reason="could_not_centre")
            raise CalibrationError(
                f"route {scan.name!r}: could not centre transitions "
                f"in the capture window"
            )
        _log.debug("calibrated_route", route=scan.name,
                   theta_init_ps=scan.best_theta, retries=scan.retries)
        results[scan.name] = scan.best_theta
        registry.counter(
            "calibrations_total", "routes calibrated from scratch"
        ).inc()
    return results
