"""Golden values: end-to-end outputs pinned exactly.

Every simulated quantity descends from seeded RNG streams, so any change
to the order in which the physics draws its random numbers (for example
drawing a batch of segments' traits as arrays instead of one segment at
a time) moves these values even when each part still looks plausible.
The numbers were recorded before segment materialisation was batched;
a performance change must leave them untouched.
"""

import pytest

from repro.cloud.campaigns import (
    ChurnModel,
    FleetScenario,
    ScanPlan,
    run_scan_campaign,
)
from repro.experiments.config import Experiment3Config
from repro.experiments.experiment3 import run_experiment3


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


def test_experiment3_quick_golden():
    result = run_experiment3(Experiment3Config.quick(seed=1))
    score = result.recovery_score
    assert (score.correct_bits, score.total_bits) == (8, 12)
    assert score.accuracy == 8 / 12
    wrong = {name for name, ok in score.per_route.items() if not ok}
    assert wrong == {"rut[1]", "rut[3]", "rut[4]", "rut[7]"}
    assert result.route_status == {f"rut[{i}]": "ok" for i in range(12)}
