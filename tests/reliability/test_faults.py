"""Fault plans: specs, determinism, persistence, the recorder and the
no-op fast path.

One :class:`FaultPlan` document drives both the experiments' raise
sites and the fleet's sections.  The fleet sections' behaviour (keyed
draws, churn transforms, excursions) is pinned in
``test_fleet_chaos.py``; the properties here cover the plan document
itself: round trips, the committed documents' bytes, malformed-plan
errors that name the offending key, and an empty plan's bit-identity
with no plan.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import (
    CaptureDropError,
    ConfigurationError,
    PersistenceError,
    TransientError,
)
from repro.observability.metrics import registry
from repro.observability.runstore import fault_plan_hash
from repro.reliability.chaos import default_chaos_plan
from repro.reliability.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    OutageWindow,
    PreemptionStorm,
    RetirementWave,
    ThermalExcursion,
    WipeFaultSpec,
    derive_plan_seed,
    fault_plan,
    get_fault_plan,
    load_fault_plan,
    maybe_inject,
    note_fault,
    set_fault_plan,
)

ROOT = Path(__file__).resolve().parents[2]

RAISE_SITES = tuple(
    site for site, section in FAULT_SITES.items() if section == "specs"
)


class TestFaultSpec:
    def test_needs_exactly_one_mode(self):
        with pytest.raises(ConfigurationError):
            FaultSpec()
        with pytest.raises(ConfigurationError):
            FaultSpec(probability=0.5, schedule=(1,))

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(probability=-0.1)
        FaultSpec(probability=0.0)
        FaultSpec(probability=1.0)

    def test_schedule_indices_nonnegative(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(schedule=(-1,))

    def test_max_fires_nonnegative(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(probability=0.5, max_fires=-1)

    def test_round_trip(self):
        spec = FaultSpec(schedule=(0, 3), max_fires=1)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        spec = FaultSpec(probability=0.25)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlan:
    def test_schedule_fires_on_listed_visits(self):
        plan = FaultPlan(seed=1, specs={
            "cloud.preempt": FaultSpec(schedule=(1, 3)),
        })
        fired = [plan.should_fire("cloud.preempt") for _ in range(5)]
        assert fired == [False, True, False, True, False]
        assert plan.fires == {"cloud.preempt": 2}
        assert plan.visits == {"cloud.preempt": 5}
        assert plan.total_fires == 2

    def test_probability_is_deterministic_per_seed(self):
        def sequence(seed):
            plan = FaultPlan(seed=seed, specs={
                "sensor.capture": FaultSpec(probability=0.5),
            })
            return [plan.should_fire("sensor.capture") for _ in range(64)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)
        assert any(sequence(7))
        assert not all(sequence(7))

    def test_streams_are_independent_per_site(self):
        # Visiting site A must not perturb site B's decisions.
        specs = {
            "cloud.allocate": FaultSpec(probability=0.5),
            "sensor.capture": FaultSpec(probability=0.5),
        }
        solo = FaultPlan(seed=3, specs=dict(specs))
        solo_b = [solo.should_fire("sensor.capture") for _ in range(32)]
        mixed = FaultPlan(seed=3, specs=dict(specs))
        mixed_b = []
        for _ in range(32):
            mixed.should_fire("cloud.allocate")
            mixed_b.append(mixed.should_fire("sensor.capture"))
        assert solo_b == mixed_b

    def test_max_fires_caps_injections(self):
        plan = FaultPlan(seed=1, specs={
            "cloud.evict": FaultSpec(probability=1.0, max_fires=2),
        })
        fired = [plan.should_fire("cloud.evict") for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.fires == {"cloud.evict": 2}

    def test_unknown_site_never_fires(self):
        plan = FaultPlan(seed=1, specs={
            "cloud.evict": FaultSpec(probability=1.0),
        })
        assert not plan.should_fire("sensor.capture")

    def test_rejects_non_spec_values(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=1, specs={"cloud.evict": {"probability": 0.5}})

    def test_sites_are_stable(self):
        assert FAULT_SITES == {
            "cloud.allocate": "specs", "cloud.preempt": "specs",
            "cloud.evict": "specs", "sensor.calibrate": "specs",
            "sensor.capture": "specs",
            "fleet.wipe_fail": "wipe", "fleet.wipe_partial": "wipe",
            "fleet.outage": "outages", "fleet.preempt": "storms",
            "fleet.retire": "retirements", "fleet.thermal": "excursions",
        }

    def test_derive_plan_seed_decorrelates(self):
        seeds = {derive_plan_seed(0, s) for s in range(100)}
        assert len(seeds) == 100
        assert derive_plan_seed(1, 2) != derive_plan_seed(2, 1)

    def test_save_load_round_trip(self, tmp_path):
        plan = FaultPlan(seed=11, specs={
            "cloud.allocate": FaultSpec(probability=0.2),
            "cloud.preempt": FaultSpec(schedule=(1, 4), max_fires=1),
        })
        path = plan.save(tmp_path / "plan.json")
        loaded = load_fault_plan(path)
        assert loaded.seed == 11
        assert loaded.specs == plan.specs

    def test_load_missing_plan(self, tmp_path):
        with pytest.raises(PersistenceError, match="no fault plan"):
            load_fault_plan(tmp_path / "absent.json")

    def test_load_corrupt_plan_names_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(PersistenceError, match="bad.json"):
            load_fault_plan(bad)

    def test_load_wrong_shape(self, tmp_path):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps([{"seed": 1}]))
        with pytest.raises(PersistenceError, match="shape.json"):
            load_fault_plan(bad)

    def test_load_unknown_site_names_site_and_file(self, tmp_path):
        plan_path = tmp_path / "typo.json"
        plan_path.write_text(json.dumps({
            "seed": 1,
            "specs": {"cloud.alocate": {"probability": 0.5}},
        }))
        with pytest.raises(PersistenceError) as excinfo:
            load_fault_plan(plan_path)
        message = str(excinfo.value)
        assert "cloud.alocate" in message and "typo.json" in message

    def test_load_malformed_spec_names_site(self, tmp_path):
        plan_path = tmp_path / "bad-spec.json"
        plan_path.write_text(json.dumps({
            "seed": 1,
            "specs": {"cloud.allocate": {"probabillity": 0.5}},
        }))
        with pytest.raises(PersistenceError) as excinfo:
            load_fault_plan(plan_path)
        message = str(excinfo.value)
        assert "cloud.allocate" in message
        assert "probabillity" in message

    def test_load_unreadable_plan_names_file(self, tmp_path):
        target = tmp_path / "directory.json"
        target.mkdir()  # read_text -> IsADirectoryError (an OSError)
        with pytest.raises(PersistenceError, match="directory.json"):
            load_fault_plan(target)

    def test_spec_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="probabillity"):
            FaultSpec.from_dict({"probabillity": 0.5})
        with pytest.raises(ConfigurationError, match="object"):
            FaultSpec.from_dict([0.5])

    def test_committed_default_plan_is_loadable(self):
        plan = load_fault_plan(ROOT / "plans" / "chaos-default.json")
        assert set(plan.specs) == set(RAISE_SITES)
        assert plan.specs["cloud.allocate"].probability >= 0.10
        assert len(plan.specs["cloud.preempt"].schedule) >= 2
        assert plan.specs["sensor.capture"].probability >= 0.05
        # The document and its in-code twin cannot drift apart.
        assert plan.to_dict() == default_chaos_plan().to_dict()


class TestMaybeInject:
    def test_no_plan_is_a_noop(self):
        assert get_fault_plan() is None
        maybe_inject("sensor.capture", CaptureDropError, "unused")
        assert "faults_injected_total" not in registry.counters

    def test_injection_raises_and_counts(self):
        plan = FaultPlan(
            seed=1, specs={"sensor.capture": FaultSpec(probability=1.0)}
        )
        with fault_plan(plan):
            with pytest.raises(CaptureDropError) as excinfo:
                maybe_inject("sensor.capture", CaptureDropError, "dropped")
        assert isinstance(excinfo.value, TransientError)
        assert registry.counters["faults_injected_total"].value == 1
        assert (
            registry.counters["faults_injected_sensor_capture_total"].value
            == 1
        )
        assert plan.fires == {"sensor.capture": 1}

    def test_note_fault_counters_decompose_per_site(self):
        # Fleet sites go through the same recorder as the raise sites.
        note_fault("fleet.wipe_fail", victim=0)
        note_fault("fleet.wipe_fail", victim=1)
        note_fault("fleet.outage", victim=2)
        snap = registry.snapshot()["counters"]
        assert snap["faults_injected_total"] == 3
        assert snap["faults_injected_fleet_wipe_fail_total"] == 2
        assert snap["faults_injected_fleet_outage_total"] == 1

    def test_context_manager_restores_previous(self):
        plan = FaultPlan(seed=1)
        outer = FaultPlan(seed=2)
        set_fault_plan(outer)
        try:
            with fault_plan(plan):
                assert get_fault_plan() is plan
            assert get_fault_plan() is outer
        finally:
            set_fault_plan(None)

    def test_set_fault_plan_type_checked(self):
        with pytest.raises(ConfigurationError):
            set_fault_plan("not a plan")


# -- properties of the plan document ------------------------------------

_finite = dict(allow_nan=False, allow_infinity=False)
_hours = st.floats(0.0, 1e4, **_finite)
_span = st.floats(1e-3, 1e3, **_finite)
_unit = st.floats(0.0, 1.0, **_finite)
_max_fires = st.one_of(st.none(), st.integers(0, 50))

_specs = st.one_of(
    st.builds(FaultSpec, probability=_unit, max_fires=_max_fires),
    st.builds(
        FaultSpec,
        schedule=st.lists(st.integers(0, 100), min_size=1, max_size=5)
        .map(tuple),
        max_fires=_max_fires,
    ),
)


@st.composite
def _wipes(draw):
    fail = draw(_unit)
    partial = draw(st.floats(0.0, 1.0 - fail, **_finite))
    assume(fail + partial <= 1.0)
    return WipeFaultSpec(fail_probability=fail, partial_probability=partial,
                         scrub_fraction=draw(_unit),
                         max_fires=draw(_max_fires))


_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**31),
    specs=st.dictionaries(st.sampled_from(RAISE_SITES), _specs),
    wipe=st.one_of(st.none(), _wipes()),
    outages=st.lists(st.builds(OutageWindow, start_hours=_hours,
                               duration_hours=_span,
                               drop_churn=st.booleans()), max_size=3),
    storms=st.lists(st.builds(PreemptionStorm, start_hours=_hours,
                              probability=_unit, cut_churn=st.booleans()),
                    max_size=3),
    retirements=st.lists(st.builds(RetirementWave, time_hours=_hours,
                                   boards=st.integers(1, 64)), max_size=3),
    excursions=st.lists(st.builds(ThermalExcursion, start_hours=_hours,
                                  duration_hours=_span,
                                  delta_k=st.floats(-20.0, 20.0, **_finite)),
                        max_size=3),
)

#: The two plan documents committed before the fault plans merged,
#: inlined: raise-site specs for experiments, and the fleet storm.
PARENT_DOCUMENTS = {
    "chaos-default": """{
 "schema": 1,
 "seed": 0,
 "specs": {
  "cloud.allocate": {
   "probability": 0.15
  },
  "cloud.evict": {
   "probability": 0.02
  },
  "cloud.preempt": {
   "schedule": [
    1,
    4
   ]
  },
  "sensor.calibrate": {
   "probability": 0.03
  },
  "sensor.capture": {
   "probability": 0.05
  }
 }
}""",
    "fleet-chaos-default": """{
 "schema": 1,
 "seed": 0,
 "wipe": {
  "fail_probability": 0.02,
  "partial_probability": 0.05,
  "scrub_fraction": 0.5
 },
 "outages": [
  {
   "start_hours": 90.0,
   "duration_hours": 14.0,
   "drop_churn": true
  }
 ],
 "storms": [
  {
   "start_hours": 150.0,
   "probability": 0.5,
   "cut_churn": true
  }
 ],
 "retirements": [
  {
   "time_hours": 60.0,
   "boards": 3
  }
 ],
 "excursions": [
  {
   "start_hours": 40.0,
   "duration_hours": 24.0,
   "delta_k": 8.0
  }
 ]
}""",
}


def _leaves(payload: dict):
    """(container path, key) of the seed and of every entry's fields."""
    yield (), "seed"
    for site, spec in payload.get("specs", {}).items():
        for key in spec:
            yield ("specs", site), key
    for key in payload.get("wipe", {}):
        yield ("wipe",), key
    for section in ("outages", "storms", "retirements", "excursions"):
        for index, entry in enumerate(payload.get(section, ())):
            for key in entry:
                yield (section, index), key


_LEAVES = sorted(_leaves(default_chaos_plan().to_dict()), key=repr)

#: Values outside each field's documented range.
_OUT_OF_RANGE = {
    "probability": st.one_of(st.floats(max_value=-1e-9, **_finite),
                             st.floats(min_value=1.0 + 1e-9, **_finite)),
    "fail_probability": st.floats(min_value=1.0 + 1e-9, **_finite),
    "partial_probability": st.floats(max_value=-1e-9, **_finite),
    "scrub_fraction": st.floats(min_value=1.0 + 1e-9, **_finite),
    "start_hours": st.floats(max_value=-1e-9, **_finite),
    "time_hours": st.floats(max_value=-1e-9, **_finite),
    "duration_hours": st.floats(max_value=0.0, **_finite),
    "boards": st.integers(max_value=0),
    "schedule": st.lists(st.integers(max_value=-1), min_size=1,
                         max_size=3),
}

_JUNK = st.one_of(
    st.text(max_size=5), st.booleans(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=1),
)


def _invalid(key: str):
    """Values of the wrong type for the plan field ``key``."""
    if key in ("drop_churn", "cut_churn"):
        return st.one_of(st.integers(), st.text(max_size=3), st.none())
    if key == "schedule":
        return st.one_of(
            st.text(max_size=3), st.booleans(), st.floats(),
            st.lists(st.one_of(st.text(max_size=3), st.booleans(),
                               st.floats()), min_size=1, max_size=3),
        )
    if key == "boards":
        return st.one_of(_JUNK, st.floats(), st.none())
    return st.one_of(_JUNK, st.none(),
                     st.sampled_from([math.nan, math.inf, -math.inf]))


_KEY = st.text(alphabet=string.ascii_letters + "_", min_size=1,
               max_size=12)


def _container(payload: dict, path: tuple) -> dict:
    node = payload
    for step in path:
        node = node[step]
    return node


class TestPlanProperties:
    @settings(max_examples=60, deadline=None)
    @given(plan=_plans)
    def test_every_valid_plan_round_trips(self, plan):
        payload = plan.to_dict()
        clone = FaultPlan.from_dict(json.loads(json.dumps(payload)))
        assert clone.to_dict() == payload
        assert clone.specs == plan.specs and clone.wipe == plan.wipe
        assert clone.storms == plan.storms
        assert plan.reseeded(plan.seed).to_dict() == payload

    @pytest.mark.parametrize("name", sorted(PARENT_DOCUMENTS))
    def test_parent_documents_reserialise_byte_for_byte(self, name,
                                                         tmp_path):
        text = PARENT_DOCUMENTS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        plan = load_fault_plan(path)
        assert json.dumps(plan.to_dict(), indent=1) == text
        assert plan.save(tmp_path / "again.json").read_text() == text
        assert fault_plan_hash(plan.to_dict()) == fault_plan_hash(
            json.loads(text)
        )

    @settings(max_examples=60, deadline=None)
    @given(leaf=st.sampled_from(_LEAVES), data=st.data())
    def test_bad_value_names_the_key(self, leaf, data):
        path, key = leaf
        if key in _OUT_OF_RANGE and data.draw(st.booleans()):
            bad = data.draw(_OUT_OF_RANGE[key])
        else:
            bad = data.draw(_invalid(key))
        payload = default_chaos_plan().to_dict()
        _container(payload, path)[key] = bad
        with pytest.raises(ConfigurationError) as excinfo:
            FaultPlan.from_dict(payload)
        assert key in str(excinfo.value)

    @settings(max_examples=60, deadline=None)
    @given(level=st.sampled_from(
        [("specs",)] + sorted({path for path, _ in _LEAVES}, key=repr)
    ), key=_KEY)
    def test_unknown_key_is_named(self, level, key):
        payload = default_chaos_plan().to_dict()
        container = _container(payload, level)
        assume(key not in container)
        if level == ("specs",):
            assume(key not in RAISE_SITES)
        container[key] = {"probability": 0.5} if level == ("specs",) else 1
        with pytest.raises(ConfigurationError) as excinfo:
            FaultPlan.from_dict(payload)
        assert repr(key) in str(excinfo.value)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(leaf=st.sampled_from(_LEAVES), data=st.data())
    def test_loader_names_file_and_key(self, leaf, data, tmp_path):
        path, key = leaf
        bad = data.draw(_invalid(key))
        payload = default_chaos_plan().to_dict()
        _container(payload, path)[key] = bad
        target = tmp_path / "malformed-plan.json"
        target.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError) as excinfo:
            load_fault_plan(target)
        message = str(excinfo.value)
        assert "malformed-plan.json" in message and key in message


def _cli_stdout(argv) -> str:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


_EXP1 = ["exp1", "--quick", "--seed", "2", "--no-figure", "--no-record"]


@pytest.fixture(scope="module")
def plain_runs():
    """exp1 --quick stdout and a quick flash campaign's JSON, no plan."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "fleet.json"
        _cli_stdout(["fleet", "--quick", "--seed", "3", "--no-record",
                     "--output", str(out)])
        return _cli_stdout(_EXP1), out.read_text()


class TestEmptyPlanIsInert:
    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**31))
    def test_empty_plan_is_byte_identical_to_no_plan(self, seed,
                                                     plain_runs):
        exp1_plain, fleet_plain = plain_runs
        with fault_plan(FaultPlan(seed=seed)):
            assert _cli_stdout(_EXP1) == exp1_plain
        with tempfile.TemporaryDirectory() as scratch:
            plan = FaultPlan(seed=seed).save(Path(scratch) / "empty.json")
            out = Path(scratch) / "fleet.json"
            _cli_stdout(["fleet", "--quick", "--seed", "3", "--no-record",
                         "--fault-plan", str(plan), "--output", str(out)])
            assert out.read_text() == fleet_plain
