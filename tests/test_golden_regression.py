"""Golden values: end-to-end outputs pinned exactly.

Every simulated quantity descends from seeded RNG streams, so any change
to the order in which the physics draws its random numbers (for example
drawing a batch of segments' traits as arrays instead of one segment at
a time) moves these values even when each part still looks plausible.
The numbers were recorded before segment materialisation was batched;
a performance change must leave them untouched.  The per-probe digests
were recorded while the prober still read one board at a time.
"""

import hashlib

import pytest

from pathlib import Path

from repro.cloud import campaigns as campaigns_module
from repro.cloud.campaigns import (
    ChurnModel,
    FlashAttackPlan,
    FleetScenario,
    ScanPlan,
    run_flash_campaign,
    run_scan_campaign,
)
from repro.experiments.config import Experiment3Config
from repro.experiments.experiment3 import run_experiment3
from repro.reliability.faults import FaultPlan, load_fault_plan

_FAULT_PLAN = (
    Path(__file__).resolve().parent.parent / "plans" / "chaos-default.json"
)


@pytest.mark.parametrize(
    "seed, recovered, boards_probed, lifecycle_events, recovery_yield, "
    "mean_accuracy",
    [(3, 2, 64, 959, 1.0, 1.0), (6, 0, 64, 989, 0.0, 0.25)],
)
def test_scan_campaign_golden(seed, recovered, boards_probed,
                              lifecycle_events, recovery_yield,
                              mean_accuracy):
    scenario = FleetScenario(
        devices=120,
        horizon_hours=260.0,
        churn=ChurnModel(arrival_rate_per_hour=2.0, mean_rental_hours=10.0),
        routes=4,
        seed=seed,
    )
    plan = ScanPlan(victims=2, scan_width=4, scan_every_hours=16.0)
    result = run_scan_campaign(scenario, plan)
    assert result.recovered == recovered
    assert result.boards_probed == boards_probed
    assert result.lifecycle_events == lifecycle_events
    assert result.recovery_yield == recovery_yield
    assert result.mean_accuracy == mean_accuracy


def _probe_plan(name):
    """No faults, the committed plan, or the committed plan with every
    wipe failing or partial (so probes land on boards that still hold a
    design)."""
    if name == "plain":
        return None
    plan = load_fault_plan(_FAULT_PLAN)
    if name == "chaos":
        return plan
    return FaultPlan.from_dict(dict(plan.to_dict(), wipe={
        "fail_probability": 0.5, "partial_probability": 0.5,
        "scrub_fraction": 0.5,
    }))


@pytest.mark.parametrize("plan_name, digest", [
    ("plain",
     "cb71d625d24856951608344907b0412c29d5ceb7b2ccdde471ec8cebb2213f82"),
    ("chaos",
     "31ee5ed7058a3ca0b7f4d4259068437ab38d4f8ef621f098d56b8745aafbc799"),
    ("wipe-faults",
     "17d3fcbcff99af84429a19131b2744a9c47a3381ee9555c987d68877a9ff56fc"),
])
def test_scan_probe_deltas_golden(plan_name, digest, monkeypatch):
    """Every probe's board, time and route deltas, to the last bit."""
    probes = []
    probe = campaigns_module.FleetSimulator.probe

    def recording_probe(sim, boards, now_hours):
        readings = probe(sim, boards, now_hours)
        probes.extend((r["board"], now_hours, r["deltas_ps"])
                      for r in readings)
        return readings

    monkeypatch.setattr(campaigns_module.FleetSimulator, "probe",
                        recording_probe)
    scenario = FleetScenario(
        devices=120,
        horizon_hours=260.0,
        churn=ChurnModel(arrival_rate_per_hour=2.0, mean_rental_hours=10.0),
        routes=4,
        seed=3,
    )
    plan = ScanPlan(victims=2, scan_width=4, scan_every_hours=16.0)
    run_scan_campaign(scenario, plan, fault_plan=_probe_plan(plan_name))
    assert len(probes) == 64
    assert probes[0][2][:2] == [0.1525225346375551, 0.06838997298204179]
    sha = hashlib.sha256()
    for board, now_hours, deltas in probes:
        sha.update(f"{board}:{float(now_hours).hex()}:".encode())
        sha.update(",".join(float(d).hex() for d in deltas).encode())
        sha.update(b";")
    assert sha.hexdigest() == digest


def _flash_detail(victim, board, reacquired, accuracy, recovered):
    return {"victim": victim, "victim_board": board,
            "reacquired": reacquired, "accuracy": accuracy,
            "recovered": recovered, "boards_flashed": 6,
            "preempted": False, "wipe_mode": "ok"}


def _flash_golden(plain):
    """The full result of a small flash race, plain or under the
    committed fault plan (whose outage makes victim 1's rent retry past
    its tenancy and whose retirement wave takes three boards)."""
    if plain:
        return {
            "kind": "flash", "victims_attempted": 4, "victims_skipped": 0,
            "recovered": 3, "recovery_yield": 0.75, "mean_accuracy": 0.6875,
            "boards_probed": 24, "lifecycle_events": 983,
            "tracked_events": 12, "dropped_arrivals": 0,
            "details": [_flash_detail(0, 102, True, 1.0, True),
                        _flash_detail(1, 116, True, 1.0, True),
                        _flash_detail(2, 108, True, 0.75, True),
                        _flash_detail(3, 93, False, 0.0, False)],
            "failed_wipes": 0, "partial_wipes": 0, "preempted": 0,
            "retired_boards": 0, "rent_retries": 0, "faults": {},
            "region_status": {"r0": {
                "boards": 120, "retired": 0, "outage_hours": 0.0,
                "status": "ok", "victims_skipped": 0}},
        }
    return {
        "kind": "flash", "victims_attempted": 3, "victims_skipped": 1,
        "recovered": 2, "recovery_yield": 2 / 3, "mean_accuracy": 2 / 3,
        "boards_probed": 18, "lifecycle_events": 943,
        "tracked_events": 17, "dropped_arrivals": 0,
        "details": [_flash_detail(0, 102, True, 1.0, True),
                    _flash_detail(2, 101, True, 1.0, True),
                    _flash_detail(3, 107, False, 0.0, False)],
        "failed_wipes": 0, "partial_wipes": 0, "preempted": 0,
        "retired_boards": 3, "rent_retries": 3,
        "faults": {"fleet.outage": 4, "fleet.retire": 3, "fleet.thermal": 1,
                   "churn.dropped_by_outage": 20,
                   "churn.truncated_by_storm": 19},
        "region_status": {"r0": {
            "boards": 117, "retired": 3, "outage_hours": 14.0,
            "status": "degraded", "victims_skipped": 1}},
    }


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "chaos"])
def test_flash_campaign_golden(plain):
    scenario = FleetScenario(
        devices=120,
        horizon_hours=260.0,
        churn=ChurnModel(arrival_rate_per_hour=2.0, mean_rental_hours=10.0),
        routes=4,
        seed=2,
    )
    plan = FlashAttackPlan(victims=4, flash_limit=6, warmup_hours=30.0,
                           spacing_hours=12.0)
    fault_plan = None if plain else load_fault_plan(_FAULT_PLAN)
    result = run_flash_campaign(scenario, plan, fault_plan=fault_plan)
    assert result.to_dict() == _flash_golden(plain)


def test_experiment3_quick_golden():
    result = run_experiment3(Experiment3Config.quick(seed=1))
    score = result.recovery_score
    assert (score.correct_bits, score.total_bits) == (8, 12)
    assert score.accuracy == 8 / 12
    wrong = {name for name, ok in score.per_route.items() if not ok}
    assert wrong == {"rut[1]", "rut[3]", "rut[4]", "rut[7]"}
    assert result.route_status == {f"rut[{i}]": "ok" for i in range(12)}
