"""Fleet-scale simulation benchmark: the PR 8 tentpole's headline.

Five phases, written to ``BENCH_fleet.json`` at the repo root:

* **bulk_churn** -- the headline workload: 100k devices, 500k tenant
  arrivals (1M lifecycle events, drop-free by construction) resolved
  by the vectorised bulk-churn engine.  Hard-gated at >= 1M events/s.
* **reference_baseline** -- the per-event churn oracle
  (``tests/oracles/churn.py``) timed on a smaller trace; its events/s
  is the eager baseline the bulk speedup is measured against.
* **equivalence** -- bulk vs reference on a moderate drop-heavy
  scenario: free-stack contents, event counts and capacity drops must
  match exactly, and the bulk engine must be invariant to the window
  size it resolves the trace in.
* **campaign_quick** -- a small flash-attack campaign recording fleet
  recovery yield, pinned identical across engines.
* **saturated_sweep** -- one contended window (4k devices, 40k
  arrivals) at each oversubscription ratio in ``_SWEEP_RATIOS``: bulk
  and reference timed best-of-3, drops recorded, bulk pinned equal to
  reference and gated at ``_SWEEP_SLACK`` x the reference's time.

Hard gates are deliberately loose (the 1M events/s floor is ~3x under
what this path measures on a warm laptop core); the headline ratios
are recorded for trend tracking by ``repro bench diff``.

Run it from the repository root (``PYTHONPATH=src python -m pytest
benchmarks/test_bench_fleet.py``) so ``tests.oracles`` imports.
"""

import json
import math
import os
import platform
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from repro.cloud.campaigns import (
    ChurnModel,
    FlashAttackPlan,
    FleetScenario,
    VirtualRegion,
    run_churn_benchmark,
    run_flash_campaign,
)
from tests.oracles.churn import reference_churn

_TARGET = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

#: Headline workload: 2 * _ARRIVALS lifecycle events on _DEVICES boards.
_DEVICES = 100_000
_ARRIVALS = 500_000

#: The reference oracle replays one python-level event at a time; a
#: full million-event trace would dominate the bench session, so the
#: baseline is timed on a slice and compared per-event.
_REFERENCE_ARRIVALS = 20_000
_REFERENCE_DEVICES = 4_000

#: CI gate: minimum bulk-path throughput, lifecycle events per second.
_FLOOR_EVENTS_PER_SECOND = 1_000_000

#: Saturated sweep: mean demand as a multiple of the pool, one window.
_SWEEP_RATIOS = (1.0, 1.2, 2.0, 4.0)
_SWEEP_DEVICES = 4_000
_SWEEP_ARRIVALS = 40_000

#: CI gate: bulk may take at most this multiple of the reference's
#: time at any ratio.  Loose for runner noise; a per-drop re-sort of
#: the window is 300x.
_SWEEP_SLACK = 1.5


def _engine(name):
    """Build churn on the bulk engine, or on the per-event oracle for
    ``"reference"``."""
    return reference_churn() if name == "reference" else nullcontext()


def _campaign_scenario():
    return FleetScenario(
        devices=96,
        horizon_hours=220.0,
        churn=ChurnModel(arrival_rate_per_hour=2.0,
                         mean_rental_hours=10.0),
        routes=4,
        seed=6,
    )


def _best_of_3(engine, trace, horizon):
    """(seconds, (events, drops, free stack)) of the fastest of 3 runs."""
    best = math.inf
    for _ in range(3):
        with _engine(engine):
            start = perf_counter()
            region = VirtualRegion(_SWEEP_DEVICES, trace)
            region.advance_to(horizon)
            best = min(best, perf_counter() - start)
    return best, (region.events_processed, region.dropped_arrivals,
                  region.free_boards())


def _saturated_sweep():
    sweep = {}
    for ratio in _SWEEP_RATIOS:
        model = ChurnModel(arrival_rate_per_hour=60.0,
                           mean_rental_hours=ratio * _SWEEP_DEVICES / 60.0)
        trace = model.draw_count(_SWEEP_ARRIVALS, seed=1)
        horizon = float(trace.arrivals[-1] + trace.durations.max() + 1.0)
        bulk_s, bulk = _best_of_3("bulk", trace, horizon)
        ref_s, ref = _best_of_3("reference", trace, horizon)
        sweep[f"ratio_{ratio}"] = {
            "dropped_arrivals": ref[1],
            "bulk_seconds": round(bulk_s, 4),
            "reference_seconds": round(ref_s, 4),
            "bulk_matches_reference": bulk == ref,
        }
    return sweep


def test_bench_fleet(emit):
    # -- bulk churn headline -------------------------------------------
    best = None
    for _ in range(2):  # best-of-2: first run pays numpy warm-up
        stats = run_churn_benchmark(
            devices=_DEVICES, arrivals=_ARRIVALS, seed=0
        )
        if best is None or stats["seconds"] < best["seconds"]:
            best = stats
    emit(f"bulk churn: {best['events']:,} events over "
         f"{best['devices']:,} devices in {best['seconds']:.2f} s "
         f"({best['events_per_second']:,.0f} events/s)")

    # -- reference baseline --------------------------------------------
    with reference_churn():
        ref = run_churn_benchmark(
            devices=_REFERENCE_DEVICES, arrivals=_REFERENCE_ARRIVALS,
            seed=0,
        )
    speedup = best["events_per_second"] / ref["events_per_second"]
    emit(f"reference baseline: {ref['events']:,} events in "
         f"{ref['seconds']:.2f} s ({ref['events_per_second']:,.0f} "
         f"events/s) -- bulk is {speedup:.0f}x faster per event")

    # -- engine equivalence --------------------------------------------
    trace = ChurnModel(40.0, 6.0).draw(200.0, seed=3)
    engines = {}
    for engine, batch in (("reference", math.inf), ("bulk", math.inf),
                          ("bulk", 11.0)):
        with _engine(engine):
            region = VirtualRegion(48, trace, batch_hours=batch)
        region.advance_to(240.0)
        engines[(engine, batch)] = (
            region.free_boards(), region.events_processed,
            region.dropped_arrivals,
        )
    ref_state = engines[("reference", math.inf)]
    equivalent = all(state == ref_state for state in engines.values())
    emit(f"equivalence: {ref_state[1]:,} events, "
         f"{ref_state[2]:,} drops -- bulk == reference: {equivalent}, "
         f"batch-invariant: "
         f"{engines[('bulk', 11.0)] == engines[('bulk', math.inf)]}")

    # -- quick campaign ------------------------------------------------
    start = perf_counter()
    campaign = run_flash_campaign(
        _campaign_scenario(),
        FlashAttackPlan(victims=2, flash_limit=4, reaction_hours=0.25),
    )
    campaign_s = perf_counter() - start
    with reference_churn():
        campaign_ref = run_flash_campaign(
            _campaign_scenario(),
            FlashAttackPlan(victims=2, flash_limit=4, reaction_hours=0.25),
        )
    emit(f"campaign: yield {campaign.recovery_yield:.2f}, "
         f"mean accuracy {campaign.mean_accuracy:.3f}, "
         f"{campaign.lifecycle_events:,} churn events in "
         f"{campaign_s:.2f} s")

    # -- saturated sweep -----------------------------------------------
    sweep = _saturated_sweep()
    for name, row in sweep.items():
        emit(f"saturated {name}: {row['dropped_arrivals']:,} drops, "
             f"bulk {row['bulk_seconds']:.3f} s vs reference "
             f"{row['reference_seconds']:.3f} s -- bulk == reference: "
             f"{row['bulk_matches_reference']}")

    payload = {
        "suite": "fleet",
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bulk_churn": {
            "devices": best["devices"],
            "arrivals": best["arrivals"],
            "events": best["events"],
            "dropped_arrivals": best["dropped_arrivals"],
            "seconds": round(best["seconds"], 3),
            "events_per_second": round(best["events_per_second"]),
        },
        "reference_baseline": {
            "devices": ref["devices"],
            "arrivals": ref["arrivals"],
            "events": ref["events"],
            "seconds": round(ref["seconds"], 3),
            "events_per_second": round(ref["events_per_second"]),
            "bulk_speedup": round(speedup, 1),
        },
        "equivalence": {
            "events": ref_state[1],
            "dropped_arrivals": ref_state[2],
            "bulk_matches_reference": equivalent,
        },
        "campaign_quick": {
            "victims": campaign.victims_attempted,
            "recovery_yield": campaign.recovery_yield,
            "mean_accuracy": round(campaign.mean_accuracy, 4),
            "lifecycle_events": campaign.lifecycle_events,
            "seconds": round(campaign_s, 3),
            "engine_invariant": (
                campaign.recovery_yield == campaign_ref.recovery_yield
                and campaign.details == campaign_ref.details
            ),
        },
        "saturated_sweep": {
            "devices": _SWEEP_DEVICES,
            "arrivals": _SWEEP_ARRIVALS,
            **sweep,
        },
    }
    _TARGET.write_text(json.dumps(payload, indent=1))
    emit(f"wrote {_TARGET.name}")

    # Hard gates: the bulk path must clear the CI throughput floor on a
    # drop-free million-event trace, it must beat the per-event
    # reference there and stay within _SWEEP_SLACK of it when
    # saturated, and correctness must not depend on the engine or the
    # window size.
    assert best["events"] == 2 * _ARRIVALS
    assert best["dropped_arrivals"] == 0
    assert best["events_per_second"] >= _FLOOR_EVENTS_PER_SECOND
    assert speedup > 1.0
    assert equivalent
    assert campaign.recovery_yield == campaign_ref.recovery_yield
    assert campaign.mean_accuracy == campaign_ref.mean_accuracy
    for row in sweep.values():
        assert row["bulk_matches_reference"], row
        assert (row["bulk_seconds"]
                <= _SWEEP_SLACK * row["reference_seconds"]), row
