"""A fault plan's fleet sections: validation, keyed draws, churn
transforms.

The engine-invariance contract lives in
``tests/cloud/test_campaigns.py`` (whole campaigns bit-identical across
engines under a plan); these tests pin the fleet half of the plan --
validation errors that name the offending key, draws keyed to event
identity rather than call order, and the pure-array churn transforms.
The plan document's own properties live in ``test_faults.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, PersistenceError
from repro.reliability.chaos import default_chaos_plan
from repro.reliability.faults import (
    ExcursionAmbient,
    FaultPlan,
    OutageWindow,
    PreemptionStorm,
    RetirementWave,
    ThermalExcursion,
    WipeFaultSpec,
    load_fault_plan,
)


class TestSpecs:
    def test_wipe_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            WipeFaultSpec(fail_probability=1.5)
        with pytest.raises(ConfigurationError):
            WipeFaultSpec(partial_probability=-0.1)
        with pytest.raises(ConfigurationError):
            WipeFaultSpec(fail_probability=0.6, partial_probability=0.6)
        with pytest.raises(ConfigurationError):
            WipeFaultSpec(fail_probability=0.1, max_fires=-1)
        WipeFaultSpec(fail_probability=0.5, partial_probability=0.5)

    def test_wipe_round_trip(self):
        spec = WipeFaultSpec(fail_probability=0.1,
                             partial_probability=0.2,
                             scrub_fraction=0.75, max_fires=3)
        assert WipeFaultSpec.from_dict(spec.to_dict()) == spec

    def test_wipe_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="fial_probability"):
            WipeFaultSpec.from_dict({"fial_probability": 0.1})

    def test_outage_validation(self):
        with pytest.raises(ConfigurationError):
            OutageWindow(start_hours=-1.0, duration_hours=5.0)
        with pytest.raises(ConfigurationError):
            OutageWindow(start_hours=10.0, duration_hours=0.0)
        window = OutageWindow(start_hours=10.0, duration_hours=5.0)
        assert window.end_hours == 15.0
        assert OutageWindow.from_dict(window.to_dict()) == window

    def test_outage_missing_and_unknown_keys_named(self):
        with pytest.raises(ConfigurationError, match="duration_hours"):
            OutageWindow.from_dict({"start_hours": 1.0})
        with pytest.raises(ConfigurationError, match="finish_hours"):
            OutageWindow.from_dict({"start_hours": 1.0,
                                    "duration_hours": 2.0,
                                    "finish_hours": 3.0})
        with pytest.raises(ConfigurationError, match="start_hours"):
            OutageWindow.from_dict({"start_hours": "soon",
                                    "duration_hours": 2.0})

    def test_storm_and_wave_and_excursion_round_trip(self):
        storm = PreemptionStorm(start_hours=100.0, probability=0.5,
                                cut_churn=False)
        assert PreemptionStorm.from_dict(storm.to_dict()) == storm
        wave = RetirementWave(time_hours=20.0, boards=4)
        assert RetirementWave.from_dict(wave.to_dict()) == wave
        exc = ThermalExcursion(start_hours=5.0, duration_hours=2.0,
                               delta_k=12.0)
        assert ThermalExcursion.from_dict(exc.to_dict()) == exc

    def test_storm_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            PreemptionStorm(start_hours=1.0, probability=1.2)

    def test_wave_needs_boards(self):
        with pytest.raises(ConfigurationError):
            RetirementWave(time_hours=1.0, boards=0)

    def test_non_dict_spec_rejected(self):
        for klass in (WipeFaultSpec, OutageWindow, PreemptionStorm,
                      RetirementWave, ThermalExcursion):
            with pytest.raises(ConfigurationError):
                klass.from_dict(["not", "a", "dict"])


class TestExcursionAmbient:
    def test_adds_delta_inside_window_only(self):
        class Flat:
            def at(self, hours):
                return 300.0

        ambient = ExcursionAmbient(Flat(), (
            ThermalExcursion(start_hours=10.0, duration_hours=5.0,
                             delta_k=8.0),
            ThermalExcursion(start_hours=12.0, duration_hours=1.0,
                             delta_k=2.0),
        ))
        assert ambient.at(9.9) == 300.0
        assert ambient.at(10.0) == 308.0
        assert ambient.at(12.5) == 310.0  # overlap is additive
        assert ambient.at(15.0) == 300.0

    def test_pure_function_of_time(self):
        class Flat:
            def at(self, hours):
                return 290.0

        ambient = ExcursionAmbient(Flat(), (
            ThermalExcursion(start_hours=2.0, duration_hours=2.0),
        ))
        # Evaluation order must not matter (lazy timeline replays).
        forward = [ambient.at(t) for t in (0.0, 3.0, 5.0)]
        backward = [ambient.at(t) for t in (5.0, 3.0, 0.0)]
        assert forward == backward[::-1]


class TestKeyedDraws:
    def test_wipe_decision_keyed_to_identity_not_order(self):
        spec = WipeFaultSpec(fail_probability=0.3,
                             partial_probability=0.3)
        a = FaultPlan(seed=5, wipe=spec)
        b = FaultPlan(seed=5, wipe=spec)
        keys = [f"victim{i}" for i in range(12)]
        first = {k: a.decide_wipe(k, 4) for k in keys}
        # Same keys visited in reverse order: identical outcomes.
        second = {k: b.decide_wipe(k, 4) for k in reversed(keys)}
        assert first == second
        assert a.fires == b.fires

    def test_wipe_modes_and_scrub_mask(self):
        plan = FaultPlan(
            seed=1, wipe=WipeFaultSpec(fail_probability=0.4,
                                       partial_probability=0.4,
                                       scrub_fraction=0.5),
        )
        modes = {"ok": 0, "failed": 0, "partial": 0}
        for i in range(64):
            mode, scrubbed = plan.decide_wipe(f"v{i}", 6)
            modes[mode] += 1
            if mode == "partial":
                assert isinstance(scrubbed, list) and len(scrubbed) == 6
                assert all(isinstance(s, bool) for s in scrubbed)
            else:
                assert scrubbed is None
        assert modes["failed"] > 0 and modes["partial"] > 0
        assert plan.fires["fleet.wipe_fail"] == modes["failed"]
        assert plan.fires["fleet.wipe_partial"] == modes["partial"]

    def test_wipe_max_fires_caps(self):
        plan = FaultPlan(
            seed=1, wipe=WipeFaultSpec(fail_probability=1.0, max_fires=2),
        )
        modes = [plan.decide_wipe(f"v{i}", 2)[0] for i in range(5)]
        assert modes == ["failed", "failed", "ok", "ok", "ok"]

    def test_no_wipe_spec_is_always_ok(self):
        plan = FaultPlan(seed=1)
        assert plan.decide_wipe("v0", 4) == ("ok", None)
        assert plan.total_fires == 0

    def test_storm_preempt_keyed_and_certain_at_one(self):
        storm = PreemptionStorm(start_hours=10.0, probability=0.5)
        a = FaultPlan(seed=9, storms=(storm,))
        b = FaultPlan(seed=9, storms=(storm,))
        keys = [f"victim{i}" for i in range(16)]
        assert ([a.storm_preempts(0, k) for k in keys]
                == [b.storm_preempts(0, k) for k in reversed(keys)][::-1])
        certain = FaultPlan(seed=9, storms=(
            PreemptionStorm(start_hours=10.0, probability=1.0),))
        assert all(certain.storm_preempts(0, k) for k in keys)

    def test_retire_positions_descending_unique_clamped(self):
        plan = FaultPlan(
            seed=3, retirements=(RetirementWave(time_hours=1.0, boards=5),)
        )
        picks = plan.retire_positions(0, available=20, count=5)
        assert picks == sorted(picks, reverse=True)
        assert len(set(picks)) == 5
        assert all(0 <= p < 20 for p in picks)
        assert plan.retire_positions(0, available=2, count=5) == [1, 0]
        assert plan.retire_positions(0, available=0, count=5) == []


class TestChurnTransforms:
    def test_outage_drops_arrivals_in_window(self):
        plan = FaultPlan(seed=0, outages=(
            OutageWindow(start_hours=10.0, duration_hours=10.0),))
        arrivals = np.array([5.0, 10.0, 15.0, 19.999, 20.0, 30.0])
        durations = np.full(6, 2.0)
        out_a, out_d, dropped, truncated = plan.transform_churn(
            arrivals, durations)
        assert dropped == 3 and truncated == 0
        assert out_a.tolist() == [5.0, 20.0, 30.0]
        assert plan.churn_dropped == 3
        assert plan.ledger()["churn.dropped_by_outage"] == 3

    def test_storm_truncates_spanning_rentals(self):
        plan = FaultPlan(seed=0, storms=(
            PreemptionStorm(start_hours=10.0),))
        arrivals = np.array([4.0, 8.0, 10.0, 12.0])
        durations = np.array([3.0, 5.0, 5.0, 5.0])
        out_a, out_d, dropped, truncated = plan.transform_churn(
            arrivals, durations)
        assert dropped == 0 and truncated == 1
        # Only the 8.0 arrival spans the storm; it now ends at 10.0.
        assert out_d.tolist() == [3.0, 2.0, 5.0, 5.0]

    def test_cut_churn_false_leaves_trace_alone(self):
        plan = FaultPlan(seed=0, storms=(
            PreemptionStorm(start_hours=10.0, cut_churn=False),))
        arrivals = np.array([8.0])
        durations = np.array([5.0])
        _, out_d, _, truncated = plan.transform_churn(arrivals, durations)
        assert truncated == 0 and out_d.tolist() == [5.0]

    def test_outage_geometry(self):
        plan = FaultPlan(seed=0, outages=(
            OutageWindow(start_hours=10.0, duration_hours=5.0),))
        assert plan.in_outage(10.0) and not plan.in_outage(15.0)
        assert plan.outage_end(12.0) == 15.0
        assert plan.outage_end(20.0) is None
        assert plan.outage_hours_within(12.0) == 2.0
        assert plan.outage_hours_within(100.0) == 5.0


class TestPlanLifecycle:
    def test_round_trip_and_fresh(self):
        plan = default_chaos_plan(7)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        plan.decide_wipe("v0", 4)  # consume state
        pristine = plan.reseeded(plan.seed)
        assert pristine.total_fires == 0
        assert pristine.to_dict() == plan.to_dict()

    def test_reseeded_changes_only_seed(self):
        plan = default_chaos_plan(7)
        other = plan.reseeded(99)
        assert other.seed == 99
        expected = dict(plan.to_dict(), seed=99)
        assert other.to_dict() == expected

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigurationError, match="storm"):
            FaultPlan.from_dict({"schema": 1, "storm": []})

    def test_schema_mismatch(self):
        with pytest.raises(ConfigurationError, match="schema"):
            FaultPlan.from_dict({"schema": 99})

    def test_non_spec_members_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=0, outages=({"start_hours": 1.0},))
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=0, wipe={"fail_probability": 0.1})


class TestLoader:
    def test_save_load_round_trip(self, tmp_path):
        plan = default_chaos_plan(3)
        path = plan.save(tmp_path / "plan.json")
        loaded = load_fault_plan(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="no fault plan"):
            load_fault_plan(tmp_path / "absent.json")

    def test_corrupt_json_names_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(PersistenceError, match="bad.json"):
            load_fault_plan(bad)

    def test_malformed_spec_names_key_and_file(self, tmp_path):
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps({
            "schema": 1,
            "outages": [{"start_hours": 1.0, "durration_hours": 2.0}],
        }))
        with pytest.raises(PersistenceError) as excinfo:
            load_fault_plan(bad)
        message = str(excinfo.value)
        assert "typo.json" in message and "durration_hours" in message

    def test_committed_default_plan_meets_the_gate(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        plan = load_fault_plan(root / "plans" / "chaos-default.json")
        # The robustness gate: >= 1% failed wipes, one outage window,
        # a preemption storm.
        assert plan.wipe is not None
        assert plan.wipe.fail_probability >= 0.01
        assert plan.wipe.partial_probability > 0.0
        assert len(plan.outages) >= 1
        assert len(plan.storms) >= 1

