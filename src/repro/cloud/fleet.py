"""Fleet construction: populations of physical devices.

Cloud regions hold fleets of FPGAs of mixed age and history.  The paper
notes its eu-west-2 devices carried "potentially four years of wear";
:func:`build_fleet` samples each device's effective age and residual
imprints from a :class:`~repro.physics.aging.WearProfile`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError, PreemptionError
from repro.fabric.device import FpgaDevice
from repro.fabric.parts import PartDescriptor
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.physics.aging import CLOUD_PART, WearProfile
from repro.physics.pool_array import SegmentBtiArray
from repro.reliability.faults import maybe_inject
from repro.rng import SeedLike, make_rng

_log = get_logger("cloud.fleet")


def preemption_check(instance_id: int, tenant: str) -> None:
    """Fleet-level capacity pressure can reclaim a running instance.

    Chaos fault site ``cloud.preempt``: called at the head of every
    ``run_hours`` interval, before the interval's hours are billed or
    the shared clock advances -- the spot-reclamation notice arrives
    *before* the run starts, so a tenant that backs off and re-issues
    the run resumes with the simulation state untouched.
    """
    maybe_inject(
        "cloud.preempt", PreemptionError,
        f"instance {instance_id} (tenant {tenant!r}): spot capacity "
        f"reclaimed (injected preemption notice)",
    )


def cloud_wear_profile(age_mean_hours: float) -> WearProfile:
    """The standard cloud wear profile at a configurable mean age.

    Returns :data:`~repro.physics.aging.CLOUD_PART` itself at its
    default age; otherwise a profile with the same residual-imprint
    character scaled to the requested age.
    """
    if age_mean_hours == CLOUD_PART.age_mean_hours:
        return CLOUD_PART
    if age_mean_hours < 0.0:
        raise ConfigurationError(f"age must be >= 0, got {age_mean_hours}")
    return WearProfile(
        name=f"cloud-aged-{age_mean_hours:.0f}h",
        age_mean_hours=age_mean_hours,
        age_sigma_hours=age_mean_hours * 0.22,
        residual_imprint_fraction=CLOUD_PART.residual_imprint_fraction,
    )


def build_fleet(
    part: PartDescriptor,
    size: int,
    wear: WearProfile = CLOUD_PART,
    seed: SeedLike = None,
    bti_store: Optional["SegmentBtiArray"] = None,
) -> list[FpgaDevice]:
    """Manufacture ``size`` devices of one part with sampled wear.

    ``bti_store`` lets every device of the fleet share one backing
    :class:`~repro.physics.pool_array.SegmentBtiArray` (slot blocks per
    device), which is what enables the lazy-aging path to catch idle
    devices up in cross-device bulk updates.
    """
    if size <= 0:
        raise ConfigurationError(f"fleet size must be positive, got {size}")
    rng = make_rng(seed)
    with trace.span("cloud.build_fleet", part=part.name, size=size,
                    wear=wear.name):
        devices = [
            FpgaDevice(
                part=part, wear=wear, seed=rng.integers(0, 2**63),
                bti_store=bti_store,
            )
            for _ in range(size)
        ]
    registry.counter(
        "fleet_devices_built_total", "physical devices manufactured"
    ).inc(size)
    _log.info("fleet_built", part=part.name, size=size, wear=wear.name)
    return devices
