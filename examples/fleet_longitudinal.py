#!/usr/bin/env python3
"""A month in the life of one cloud FPGA: imprint stacking and decay.

Longitudinal view of the vulnerability: a sequence of tenants rent the
same board, each leaving their pentimento; the board's analog state is
a palimpsest of its history.  The script walks five tenancies over
~700 simulated hours and prints, after each handoff, how readable each
previous tenant's data still is (the true residual delta on the routes
each tenant used).

Run:  python examples/fleet_longitudinal.py
"""

import numpy as np

from repro.cloud.billing import BillingMeter
from repro.cloud.fleet import build_fleet, cloud_wear_profile
from repro.cloud.provider import CloudProvider
from repro.designs import build_route_bank, build_target_design
from repro.fabric.parts import VIRTEX_ULTRASCALE_PLUS

PART = VIRTEX_ULTRASCALE_PLUS

#: (tenant, hours of residency, value pattern seed)
TENANCIES = [
    ("ml-startup", 200, 1),
    ("hft-shop", 48, 2),
    ("genomics-lab", 150, 3),
    ("idle-in-pool", 72, None),  # the board rests between tenants
    ("video-encoder", 120, 4),
]


def main() -> None:
    provider = CloudProvider(seed=9)
    fleet = build_fleet(PART, 1, wear=cloud_wear_profile(2000.0), seed=10)
    provider.create_region("us-east-1", fleet)
    meter = BillingMeter.attach(provider)
    grid = PART.make_grid()

    # Each tenant's design uses its own physically disjoint slice of
    # the route fabric (one shared allocation keeps banks disjoint).
    active = [(t, s) for t, _, s in TENANCIES if s is not None]
    names = [f"{tenant}[{i}]" for tenant, _ in active for i in range(4)]
    all_routes = build_route_bank(
        grid, [10000.0] * (4 * len(active)), names=names
    )
    banks, secrets = {}, {}
    for index, (tenant, seed) in enumerate(active):
        banks[tenant] = all_routes[index * 4: (index + 1) * 4]
        secrets[tenant] = [int(b) for b in
                           np.random.default_rng(seed).integers(0, 2, 4)]

    device = fleet[0]
    history = []
    for tenant, hours, seed in TENANCIES:
        if seed is None:
            provider.advance(float(hours))
            print(f"\n[{provider.clock_hours:5.0f} h] board idles "
                  f"{hours} h in the pool")
        else:
            instance = provider.rent("us-east-1", tenant)
            design = build_target_design(
                PART, banks[tenant], secrets[tenant],
                heater_dsps=1024, name=tenant,
            )
            instance.load_image(design.bitstream)
            provider.advance(float(hours))
            provider.release(instance)
            history.append(tenant)
            print(f"\n[{provider.clock_hours:5.0f} h] {tenant} computed "
                  f"{hours} h and released (bill "
                  f"${meter.total_for(tenant):.0f})")

        for previous in history:
            residuals = device.route_deltas_ps(banks[previous])
            signs = "".join(
                "1" if r > 0.05 else ("0" if r < -0.05 else "?")
                for r in residuals
            )
            truth = "".join(map(str, secrets[previous]))
            readable = sum(
                1 for s, t in zip(signs, truth) if s == t
            )
            print(f"    residue of {previous:13s}: "
                  f"max |delta| {max(abs(r) for r in residuals):5.2f} ps, "
                  f"sign-readable {readable}/4 (truth {truth})")


if __name__ == "__main__":
    main()
