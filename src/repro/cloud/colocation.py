"""Re-acquiring the victim's physical device.

Threat Model 2's Assumption 2: the attacker can obtain the same FPGA the
victim relinquished.  The paper's practical route is the **flash
attack** -- "lock up the available stock right before the victim
releases their instance.  If the attacker procures all the available
resources, they are guaranteed to obtain the relinquished victim board"
-- noting that regional F1 stock is small enough that this takes only a
few devices.

:class:`FlashAttack` implements it: exhaust the region, find the
victim's board among the holdings (by probing each board for the
pentimento itself), and release the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AttackError, CapacityError
from repro.cloud.instance import F1Instance
from repro.cloud.provider import CloudProvider
from repro.reliability.retry import get_retry_policy, note_retry


@dataclass
class FlashAttack:
    """Exhaust a region's free capacity to guarantee board possession."""

    provider: CloudProvider
    region_name: str
    tenant: str = "attacker"
    holdings: list = field(default_factory=list)

    def acquire_all(self, limit: int = 64) -> list[F1Instance]:
        """Rent instances until the region reports capacity exhaustion.

        ``limit`` guards against unexpectedly deep pools (the paper's
        observation: request-limit errors arrive "through acquiring only
        a few devices").

        A capacity error normally *is* the stop signal -- the region is
        exhausted, exactly what the flash attack wants.  But a chaos
        plan can inject the same error while devices remain free; when
        the pool still reports availability the miss is treated as
        transient and retried (bounded by the retry policy), so the
        attack still ends holding the whole region.
        """
        policy = get_retry_policy()
        transient_misses = 0
        while len(self.holdings) < limit:
            try:
                instance = self.provider.rent(self.region_name, self.tenant)
            except CapacityError as exc:
                region = self.provider.region(self.region_name)
                still_free = region.available_count(
                    self.provider.clock_hours
                )
                if still_free > 0 and transient_misses < policy.max_attempts - 1:
                    transient_misses += 1
                    note_retry(
                        "cloud.flash_acquire", transient_misses,
                        policy.delay_s(transient_misses,
                                       "cloud.flash_acquire"),
                        exc,
                    )
                    continue
                break
            transient_misses = 0
            self.holdings.append(instance)
        if not self.holdings:
            raise AttackError(
                f"flash attack acquired nothing in {self.region_name!r}"
            )
        return list(self.holdings)

    def release_except(self, keep: Optional[F1Instance] = None) -> None:
        """Return all held instances (except ``keep``) to the pool."""
        for instance in self.holdings:
            if keep is not None and instance.instance_id == keep.instance_id:
                continue
            self.provider.release(instance)
        self.holdings = [i for i in self.holdings if keep is not None
                         and i.instance_id == keep.instance_id]
