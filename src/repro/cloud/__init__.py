"""Simulated cloud FPGA platform (AWS-F1-like).

Models the platform semantics Threat Models 1 and 2 depend on:

* a provider with regions, each holding a fleet of physical devices with
  realistic age distributions (:mod:`repro.cloud.provider`,
  :mod:`repro.cloud.fleet`);
* temporally-shared instances: rent, load (after DRC), run, release --
  and on release the provider **wipes all logical state**, exactly as
  AWS scrubs "FPGA state on termination of an F1 instance"
  (:mod:`repro.cloud.instance`);
* a marketplace distributing sealed AFIs whose "internal design code is
  not exposed" (:mod:`repro.cloud.marketplace`);
* device re-acquisition: flash attacks that exhaust regional capacity,
  and process-variation fingerprinting to confirm the victim's physical
  board was obtained (:mod:`repro.cloud.colocation`,
  :mod:`repro.cloud.fingerprint`);
* allocation policies, including the launch-rate-control (hold-back)
  mitigation of Section 8.2 (:mod:`repro.cloud.allocation`);
* fleet-scale discrete-event simulation: a deterministic event loop
  (:mod:`repro.cloud.events`), lazy aging over region timelines
  (:mod:`repro.cloud.provider`), and attacker campaigns over a
  churning 100k-board fleet (:mod:`repro.cloud.campaigns`, imported
  by name: the package leaves it out so that importing the CLI or the
  provider does not load the campaign engine).
"""

from repro.cloud.allocation import AllocationPolicy
from repro.cloud.colocation import FlashAttack
from repro.cloud.events import Event, EventKind, EventLoop
from repro.cloud.fingerprint import RouteFingerprint, fingerprint_session, match_score
from repro.cloud.fleet import build_fleet
from repro.cloud.instance import F1Instance
from repro.cloud.marketplace import Marketplace, MarketplaceListing
from repro.cloud.provider import CloudProvider, Region, RegionTimeline

__all__ = [
    "AllocationPolicy",
    "CloudProvider",
    "Event",
    "EventKind",
    "EventLoop",
    "F1Instance",
    "FlashAttack",
    "Marketplace",
    "MarketplaceListing",
    "Region",
    "RegionTimeline",
    "RouteFingerprint",
    "build_fleet",
    "fingerprint_session",
    "match_score",
]
