"""Fleet campaigns: bulk churn correctness and seed reproducibility.

The bulk engine resolves whole windows of background churn with numpy
passes; the per-event oracle (``tests/oracles/churn.py``) replays the
same trace event by event.  These tests pin them identical -- free-stack contents, event counts,
capacity drops -- across seeds, pool sizes (including drop-heavy
starvation), batch sizes, and interleaved tracked rentals, and pin the
campaign results themselves engine- and batch-invariant.
"""

import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import campaigns as campaigns_module
from repro.cloud.campaigns import (
    ChurnModel,
    ChurnTrace,
    FleetScenario,
    FlashAttackPlan,
    LazyFleet,
    ScanPlan,
    VirtualRegion,
    fleet_journal_context,
    run_churn_benchmark,
    run_flash_campaign,
    run_fleet_sweep,
    run_scan_campaign,
)
from repro.errors import CloudError, ConfigurationError
from repro.observability.metrics import registry
from repro.observability.timeseries import FlightRecorder
from repro.physics.pool_array import SegmentBtiArray
from repro.reliability.checkpoint import SweepJournal
from repro.reliability.faults import (
    FaultPlan,
    OutageWindow,
    PreemptionStorm,
    RetirementWave,
    ThermalExcursion,
    WipeFaultSpec,
)
from tests.oracles.churn import reference_churn


def _engine(name):
    """Build churn on the bulk engine, or on the per-event oracle for
    ``"reference"``."""
    return reference_churn() if name == "reference" else nullcontext()


def _naive_pool(trace, boards, until):
    """An independent, obviously-correct churn replay (list + scan)."""
    stack = list(range(boards))
    pending = []  # (release_time, board), unsorted on purpose
    drops = 0
    events = 0
    i = 0
    while True:
        a = trace.arrivals[i] if i < len(trace.arrivals) else math.inf
        r = min((t for t, _ in pending), default=math.inf)
        t = min(a, r)
        if t > until:
            break
        if r <= a:
            j = min(range(len(pending)), key=lambda k: pending[k][0])
            _, board = pending.pop(j)
            stack.append(board)
        else:
            i += 1
            if stack:
                board = stack.pop()
                pending.append((a + trace.durations[i - 1], board))
            else:
                drops += 1
        events += 1
    return stack, drops, events


class TestChurnModel:
    def test_trace_is_deterministic(self):
        model = ChurnModel(10.0, 4.0)
        a = model.draw(100.0, seed=3)
        b = model.draw(100.0, seed=3)
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.durations, b.durations)
        assert a.arrivals[-1] < 100.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnModel(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            ChurnModel(1.0, -1.0)
        with pytest.raises(ConfigurationError):
            ChurnModel().draw(-5.0)
        with pytest.raises(ConfigurationError):
            ChurnTrace(np.zeros(3), np.zeros(2))

    def test_draw_count(self):
        trace = ChurnModel(5.0, 2.0).draw_count(1000, seed=1)
        assert len(trace) == 1000
        assert (np.diff(trace.arrivals) >= 0.0).all()
        assert (trace.durations > 0.0).all()


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("boards", [5, 60, 900])
    def test_bulk_matches_reference(self, seed, boards):
        trace = ChurnModel(30.0, 4.0).draw(150.0, seed=seed)
        with reference_churn():
            ref = VirtualRegion(boards, trace)
        ref.advance_to(180.0)
        bulk = VirtualRegion(boards, trace)
        bulk.advance_to(180.0)
        assert bulk.free_boards() == ref.free_boards()
        assert bulk.events_processed == ref.events_processed
        assert bulk.dropped_arrivals == ref.dropped_arrivals

    def test_matches_naive_simulation(self):
        trace = ChurnModel(20.0, 3.0).draw(80.0, seed=11)
        stack, drops, events = _naive_pool(trace, 40, 100.0)
        for engine in ("bulk", "reference"):
            with _engine(engine):
                region = VirtualRegion(40, trace)
            region.advance_to(100.0)
            assert region.free_boards() == stack, engine
            assert region.dropped_arrivals == drops, engine
            assert region.events_processed == events, engine

    @pytest.mark.parametrize("batch", [math.inf, 100.0, 13.0, 1.0])
    def test_batch_size_invariance(self, batch):
        trace = ChurnModel(25.0, 5.0).draw(120.0, seed=5)
        baseline = VirtualRegion(80, trace)
        baseline.advance_to(150.0)
        windowed = VirtualRegion(80, trace, batch_hours=batch)
        windowed.advance_to(150.0)
        assert windowed.free_boards() == baseline.free_boards()
        assert windowed.events_processed == baseline.events_processed
        assert windowed.dropped_arrivals == baseline.dropped_arrivals

    @pytest.mark.parametrize("engine", ["bulk", "reference"])
    def test_tracked_rentals_interleave(self, engine):
        """Attacker rent/release between windows sees the same boards
        on both engines."""
        trace = ChurnModel(15.0, 4.0).draw(90.0, seed=2)
        with _engine(engine):
            region = VirtualRegion(50, trace, batch_hours=7.0)
        log = []
        held = []
        for t in np.linspace(1.0, 95.0, 30):
            region.advance_to(float(t))
            if len(held) >= 3:
                region.release(held.pop(0))
                log.append(("rel", None))
            else:
                board = region.rent()
                if board is not None:
                    held.append(board)
                log.append(("rent", board))
        if engine == "bulk":
            type(self)._bulk_log = log
        else:
            assert log == type(self)._bulk_log

    def test_advance_backwards_rejected(self):
        trace = ChurnModel(5.0, 2.0).draw(10.0, seed=0)
        for engine in ("bulk", "reference"):
            with _engine(engine):
                region = VirtualRegion(4, trace)
            region.advance_to(8.0)
            with pytest.raises(CloudError):
                region.advance_to(3.0)

    def test_unknown_engine_rejected(self):
        """The churn engine is no longer a setting."""
        trace = ChurnModel(5.0, 2.0).draw(10.0, seed=0)
        with pytest.raises(TypeError):
            VirtualRegion(4, trace, engine="bulk")


def _saturated_trace(arrivals, ratio, boards=4000, seed=1):
    """``arrivals`` arrivals whose mean demand is ``ratio`` x ``boards``,
    and a horizon past the last release (one window covers it all)."""
    model = ChurnModel(arrival_rate_per_hour=60.0,
                       mean_rental_hours=ratio * boards / 60.0)
    trace = model.draw_count(arrivals, seed)
    return trace, float(trace.arrivals[-1] + trace.durations.max() + 1.0)


class TestSaturatedWindow:
    """Capacity misses resolve in one ordered pass, not one sort each."""

    @staticmethod
    def _count_sorts(monkeypatch):
        calls = []
        real = np.lexsort

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "lexsort", counting)
        return calls

    def test_saturated_window_sorts_at_most_twice(self, monkeypatch):
        trace, horizon = _saturated_trace(12_000, 1.2)
        with reference_churn():
            ref = VirtualRegion(4000, trace)
        ref.advance_to(horizon)
        calls = self._count_sorts(monkeypatch)
        bulk = VirtualRegion(4000, trace)
        bulk.advance_to(horizon)
        assert bulk.dropped_arrivals >= 100
        assert len(calls) <= 2
        assert bulk.dropped_arrivals == ref.dropped_arrivals
        assert bulk.events_processed == ref.events_processed
        assert bulk.free_boards() == ref.free_boards()

    @pytest.mark.parametrize("batch", [math.inf, 0.7])
    @pytest.mark.parametrize("arrivals", [
        [0.0, 0.5, 0.8, 1.0, 2.0],  # release ties an arrival after a miss
        [0.0, 1.0, 1.0, 1.5, 2.0],  # release ties the first miss itself
    ])
    def test_release_ties_around_a_miss(self, arrivals, batch):
        """A release at an arrival's instant comes back first, also
        around the window's first miss and when the release was
        carried in from an earlier window (batch 0.7)."""
        trace = ChurnTrace(arrivals=np.array(arrivals),
                           durations=np.ones(5))
        for engine in ("reference", "bulk"):
            with _engine(engine):
                region = VirtualRegion(1, trace, batch_hours=batch)
            region.advance_to(5.0)
            assert region.dropped_arrivals == 2, engine
            assert region.events_processed == 8, engine
            assert region.free_boards() == [0], engine

    def test_drop_free_window_sorts_once(self, monkeypatch):
        trace, horizon = _saturated_trace(12_000, 0.5)
        calls = self._count_sorts(monkeypatch)
        bulk = VirtualRegion(4000, trace)
        bulk.advance_to(horizon)
        assert bulk.dropped_arrivals == 0
        assert len(calls) == 1


def _fleet_counters():
    return {k: v for k, v in registry.snapshot()["counters"].items()
            if k.startswith("fleet_events")}


def _drive_region(engine, batch, boards, trace, horizon, cadence,
                  tracked):
    """Advance one region over ``trace`` in steps, optionally renting,
    releasing and retiring boards between them; returns everything the
    two engines must agree on."""
    before = _fleet_counters()
    rec = FlightRecorder(cadence_hours=cadence) if cadence else None
    with _engine(engine):
        region = VirtualRegion(boards, trace, batch_hours=batch,
                               recorder=rec)
    log = []
    held = []
    for step, t in enumerate(np.linspace(0.0, horizon, 9)[1:]):
        region.advance_to(float(t))
        if not tracked:
            continue
        if step == 4 and region.available() >= 2:
            log.append(region.retire_free([region.available() - 1, 0]))
        elif held and step % 2:
            region.release(held.pop(0))
        else:
            board = region.rent()
            if board is not None:
                held.append(board)
            log.append(board)
    after = _fleet_counters()
    deltas = {k: v - before.get(k, 0) for k, v in after.items()}
    return (
        region.events_processed, region.dropped_arrivals,
        region.free_boards(), log, deltas,
        rec.to_json() if rec is not None else None,
    )


class TestSaturationIdentity:
    """Bulk == reference wherever the pool runs dry, drops and all."""

    @settings(max_examples=40, deadline=None)
    @given(
        boards=st.integers(1, 64),
        ratio=st.floats(0.5, 5.0),
        seed=st.integers(0, 2**16),
        batch=st.one_of(st.just(math.inf), st.floats(0.5, 60.0)),
        cadence=st.one_of(st.none(), st.floats(0.5, 20.0)),
        tracked=st.booleans(),
    )
    def test_bulk_matches_reference_under_saturation(
            self, boards, ratio, seed, batch, cadence, tracked):
        model = ChurnModel(arrival_rate_per_hour=4.0,
                           mean_rental_hours=ratio * boards / 4.0)
        trace = model.draw_count(6 * boards + 10, seed)
        horizon = float(trace.arrivals[-1] + trace.durations.max() + 1.0)
        ref = _drive_region("reference", math.inf, boards, trace,
                            horizon, cadence, tracked)
        bulk = _drive_region("bulk", batch, boards, trace, horizon,
                             cadence, tracked)
        assert bulk == ref

    def test_faulted_oversubscribed_campaign(self):
        """A preemption storm on a 2x-oversubscribed region releases
        every spanning rental at one instant (mass release ties) while
        arrivals keep missing capacity."""
        plan = FaultPlan(seed=3, storms=(
            PreemptionStorm(start_hours=120.0, probability=0.5),))
        scenario = dict(
            devices=24,
            churn=ChurnModel(arrival_rate_per_hour=4.0,
                             mean_rental_hours=12.0),
        )
        flash = FlashAttackPlan(victims=2, flash_limit=5,
                                reaction_hours=0.25)
        results = []
        for engine, batch in (("reference", math.inf), ("bulk", math.inf),
                              ("bulk", 9.0), ("bulk", 1.0)):
            with _engine(engine):
                result = run_flash_campaign(
                    _scenario(batch_hours=batch, **scenario),
                    flash, fault_plan=plan,
                )
            results.append(result.to_dict())
        first = results[0]
        assert first["dropped_arrivals"] > 0
        assert first["faults"]["churn.truncated_by_storm"] > 0
        for other in results[1:]:
            assert other == first


class TestLazyFleet:
    def test_materialise_on_demand(self):
        fleet = LazyFleet(size=50, seed=4)
        assert fleet.materialised == 0
        dev = fleet.device(17)
        assert fleet.materialised == 1
        assert fleet.device(17) is dev

    def test_board_seed_independent_of_order(self):
        a = LazyFleet(size=20, seed=9)
        b = LazyFleet(size=20, seed=9)
        a.device(3)  # materialise another board first on one fleet
        assert (a.device(11).effective_age_hours
                == b.device(11).effective_age_hours)

    def test_out_of_range(self):
        fleet = LazyFleet(size=5, seed=0)
        with pytest.raises(CloudError):
            fleet.device(5)


def _scenario(**overrides):
    base = dict(
        devices=120,
        horizon_hours=260.0,
        churn=ChurnModel(arrival_rate_per_hour=2.0,
                         mean_rental_hours=10.0),
        routes=4,
        seed=6,
    )
    base.update(overrides)
    return FleetScenario(**base)


class TestCampaigns:
    def test_flash_reports_yield_and_is_reproducible(self):
        plan = FlashAttackPlan(victims=2, flash_limit=5,
                               reaction_hours=0.25)
        results = []
        for engine, batch in (
            ("bulk", math.inf), ("bulk", 9.0), ("reference", math.inf)
        ):
            with _engine(engine):
                results.append(
                    run_flash_campaign(_scenario(batch_hours=batch), plan)
                )
        first = results[0]
        assert first.victims_attempted == 2
        assert 0.0 <= first.recovery_yield <= 1.0
        assert first.boards_probed > 0
        for other in results[1:]:
            # Engine and batch size must not perturb a single draw.
            assert other.recovery_yield == first.recovery_yield
            assert other.mean_accuracy == first.mean_accuracy
            assert other.details == first.details
            assert other.lifecycle_events == first.lifecycle_events

    def test_flash_recovers_on_quiet_pool(self):
        """With no churn contention the attacker always re-acquires
        the victim's board (LIFO top) and reads the secret.  Fresh
        boards (no residual imprints) make full accuracy exact."""
        from repro.physics.aging import NEW_PART

        scenario = _scenario(
            churn=ChurnModel(arrival_rate_per_hour=0.01,
                             mean_rental_hours=1.0),
            seed=2,
            wear=NEW_PART,
        )
        plan = FlashAttackPlan(victims=2, flash_limit=3,
                               reaction_hours=0.1)
        result = run_flash_campaign(scenario, plan)
        assert result.recovery_yield == 1.0
        assert result.mean_accuracy == 1.0

    def test_scan_campaign_runs(self):
        plan = ScanPlan(victims=1, scan_width=4, scan_every_hours=16.0)
        result = run_scan_campaign(_scenario(), plan)
        assert result.kind == "scan"
        assert result.boards_probed > 0
        assert 0.0 <= result.recovery_yield <= 1.0
        with reference_churn():
            again = run_scan_campaign(_scenario(), plan)
        assert again.recovery_yield == result.recovery_yield
        assert again.details == result.details

    def test_probe_reads_a_board_in_one_request(self, monkeypatch):
        """A probe reads its whole rented batch as one request: one
        store registration per ``probe`` call, whatever the batch size,
        and none once every board of the batch is already known."""
        calls = []
        register = SegmentBtiArray.register_many
        probe = campaigns_module.FleetSimulator.probe

        probing = []

        def counting_register(store, *args, **kwargs):
            if probing:
                calls[-1]["registrations"] += 1
            return register(store, *args, **kwargs)

        def counting_probe(sim, boards, now_hours):
            calls.append({
                "boards": len(boards),
                "fresh": any(sim.fleet.device(b).materialised_segments == 0
                             for b in boards),
                "registrations": 0,
            })
            probing.append(True)
            try:
                return probe(sim, boards, now_hours)
            finally:
                probing.pop()

        monkeypatch.setattr(SegmentBtiArray, "register_many",
                            counting_register)
        monkeypatch.setattr(campaigns_module.FleetSimulator, "probe",
                            counting_probe)
        for width in (1, 4, 9):
            calls.clear()
            plan = ScanPlan(victims=1, scan_width=width,
                            scan_every_hours=16.0)
            result = run_scan_campaign(_scenario(), plan)
            assert sum(c["boards"] for c in calls) == result.boards_probed
            assert {c["boards"] for c in calls} == {width}
            assert any(c["fresh"] for c in calls)
            for c in calls:
                assert c["registrations"] == int(c["fresh"]), c


class TestChurnBenchmark:
    def test_drop_free_sizing(self):
        stats = run_churn_benchmark(devices=1000, arrivals=5000, seed=1)
        assert stats["dropped_arrivals"] == 0
        assert stats["events"] == 10000  # every arrival and release
        assert stats["final_free"] == 1000
        assert stats["events_per_second"] > 0

    def test_recorder_grid_samples(self):
        rec = FlightRecorder(cadence_hours=1.0)
        run_churn_benchmark(devices=200, arrivals=2000, seed=2,
                            recorder=rec)
        free = rec.series["fleet.pool_free"]
        assert free.points[0] == [0.0, 200.0]
        times = [p[0] for p in free.points]
        assert times == sorted(times)
        events = rec.series["fleet.lifecycle_events"]
        assert events.last_value == 4000.0  # cumulative, incl. releases


def _series_json(engine, batch, seed, cadence=1.0):
    """The quick flash campaign's recorder document as canonical JSON."""
    rec = FlightRecorder(cadence_hours=cadence)
    scenario = _scenario(batch_hours=batch, seed=seed)
    with _engine(engine):
        result = run_flash_campaign(
            scenario, FlashAttackPlan(victims=2, flash_limit=5,
                                      reaction_hours=0.25),
            recorder=rec,
        )
    counters = {k: v for k, v in registry.snapshot()["counters"].items()
                if k.startswith("fleet_events")}
    registry.reset()
    return rec.to_json(), counters, result.to_dict()


class TestSeriesBitIdentity:
    """The acceptance gate: a campaign's recorded series JSON must be
    bit-for-bit identical whichever churn engine produced it."""

    @pytest.mark.parametrize("seed", [3, 6, 11])
    def test_reference_and_bulk_emit_identical_json(self, seed):
        ref_json, ref_counters, ref_result = _series_json(
            "reference", math.inf, seed)
        for engine, batch in (("bulk", math.inf), ("bulk", 9.0),
                              ("bulk", 1.0)):
            got_json, got_counters, got_result = _series_json(
                engine, batch, seed)
            assert got_json == ref_json, (engine, batch)
            assert got_counters == ref_counters, (engine, batch)
            assert got_result == ref_result, (engine, batch)

    def test_coarse_cadence_still_identical(self):
        ref, _, _ = _series_json("reference", math.inf, 6, cadence=7.0)
        bulk, _, _ = _series_json("bulk", 13.0, 6, cadence=7.0)
        assert bulk == ref

    def test_all_fleet_series_present(self):
        rec = FlightRecorder()
        run_flash_campaign(
            _scenario(), FlashAttackPlan(victims=2), recorder=rec
        )
        assert rec.names() == (
            "fleet.aging_debt_hours",
            "fleet.boards_probed",
            "fleet.dropped_arrivals",
            "fleet.lifecycle_events",
            "fleet.pool_free",
            "fleet.recovery_yield",
            "fleet.rentals_in_flight",
            "fleet.tracked_events",
        )
        debt = rec.series["fleet.aging_debt_hours"]
        assert all(v >= 0.0 for _, v in debt.points)
        probed = rec.series["fleet.boards_probed"]
        assert probed.last_value > 0.0

    def test_scan_campaign_records_too(self):
        rec = FlightRecorder()
        result = run_scan_campaign(
            _scenario(), ScanPlan(victims=1, scan_width=4,
                                  scan_every_hours=16.0),
            recorder=rec,
        )
        assert rec.series["fleet.recovery_yield"].last_value == \
            result.recovery_yield
        assert rec.series["fleet.boards_probed"].last_value == \
            float(result.boards_probed)


class TestFleetCounters:
    """fleet_events_total and the per-kind counters are engine-exact."""

    def _counters(self, engine, batch):
        registry.reset()
        with _engine(engine):
            run_flash_campaign(
                _scenario(batch_hours=batch), FlashAttackPlan(victims=2),
            )
        snap = {k: v for k, v in registry.snapshot()["counters"].items()
                if k.startswith("fleet_events")}
        registry.reset()
        return snap

    def test_counter_values_agree_across_engines(self):
        ref = self._counters("reference", math.inf)
        assert ref["fleet_events_total"] > 0
        assert "fleet_events_rent_total" in ref
        assert "fleet_events_release_total" in ref
        for engine, batch in (("bulk", math.inf), ("bulk", 9.0)):
            assert self._counters(engine, batch) == ref, (engine, batch)

    def test_total_decomposes_into_kinds(self):
        registry.reset()
        run_flash_campaign(_scenario(), FlashAttackPlan(victims=2))
        snap = registry.snapshot()["counters"]
        per_kind = sum(v for k, v in snap.items()
                       if k.startswith("fleet_events_")
                       and k != "fleet_events_total")
        # Churn rents + releases + drops and the loop's by-kind tally
        # partition the grand total exactly.
        assert per_kind == snap["fleet_events_total"] > 0


def _chaos_plan(**overrides):
    """An aggressive every-family plan that provably fires at quick
    scale (the committed default is gentler)."""
    base = dict(
        seed=4,
        wipe=WipeFaultSpec(fail_probability=0.4, partial_probability=0.4,
                           scrub_fraction=0.5),
        outages=(OutageWindow(start_hours=60.0, duration_hours=20.0),),
        storms=(PreemptionStorm(start_hours=150.0, probability=0.5),),
        retirements=(RetirementWave(time_hours=30.0, boards=5),),
        excursions=(ThermalExcursion(start_hours=40.0,
                                     duration_hours=24.0, delta_k=8.0),),
    )
    base.update(overrides)
    return FaultPlan(**base)


def _faulted_run(engine, batch, plan, cadence=7.0):
    """One faulted flash campaign -> (result, series, counters)."""
    registry.reset()
    rec = FlightRecorder(cadence_hours=cadence)
    with _engine(engine):
        result = run_flash_campaign(
            _scenario(batch_hours=batch),
            FlashAttackPlan(victims=3, flash_limit=5, reaction_hours=0.25),
            recorder=rec, fault_plan=plan,
        )
    counters = {k: v for k, v in registry.snapshot()["counters"].items()
                if k.startswith(("fleet_", "retry_", "retries_"))}
    registry.reset()
    return result.to_dict(), rec.to_json(), counters


class TestFleetChaos:
    """Fault injection at fleet scale stays engine- and batch-invariant,
    and every fault family leaves an honest ledger."""

    def test_faulted_campaign_engine_and_batch_invariant(self):
        plan = _chaos_plan()
        ref_result, ref_series, ref_counters = _faulted_run(
            "reference", math.inf, plan)
        # The plan must actually have done something interesting.
        faults = ref_result["faults"]
        assert faults["churn.dropped_by_outage"] > 0
        assert faults["churn.truncated_by_storm"] > 0
        assert faults["fleet.retire"] == 5
        assert faults["fleet.thermal"] == 1
        for engine, batch in (("bulk", math.inf), ("bulk", 9.0),
                              ("bulk", 1.0), ("reference", 13.0)):
            result, series, counters = _faulted_run(engine, batch, plan)
            assert result == ref_result, (engine, batch)
            assert series == ref_series, (engine, batch)
            assert counters == ref_counters, (engine, batch)

    def test_fault_series_are_plan_gated(self):
        rec = FlightRecorder(cadence_hours=7.0)
        run_flash_campaign(
            _scenario(), FlashAttackPlan(victims=2), recorder=rec,
            fault_plan=_chaos_plan(),
        )
        assert "fleet.faults_injected" in rec.names()
        assert "fleet.failed_wipes" in rec.names()
        faults = rec.series["fleet.faults_injected"]
        values = [v for _, v in faults.points]
        assert values == sorted(values) and values[-1] > 0

    def test_no_plan_results_unchanged(self):
        """fault_plan=None must be byte-identical to the pre-chaos
        code path (the fast-path contract)."""
        plan = FlashAttackPlan(victims=2, flash_limit=5,
                               reaction_hours=0.25)
        bare = run_flash_campaign(_scenario(), plan)
        explicit = run_flash_campaign(_scenario(), plan, fault_plan=None)
        assert explicit.to_dict() == bare.to_dict()
        assert bare.faults == {} and bare.failed_wipes == 0
        assert bare.region_status["r0"]["status"] == "ok"

    def test_outage_spanning_rents_degrades_gracefully(self):
        """A region dark across every victim rent (and past the retry
        budget) yields skipped victims and a truthful region map, not
        an exception."""
        plan = FaultPlan(seed=1, outages=(
            OutageWindow(start_hours=0.0, duration_hours=300.0),))
        result = run_flash_campaign(
            _scenario(),
            FlashAttackPlan(victims=2, flash_limit=5,
                            reaction_hours=0.25),
            fault_plan=plan,
        )
        assert result.victims_skipped == 2
        assert result.recovery_yield == 0.0
        assert result.faults["fleet.outage"] > 0
        assert result.rent_retries > 0
        status = result.region_status["r0"]
        assert status["status"] == "dark"
        assert status["victims_skipped"] == 2
        details = {d["victim"]: d for d in result.details}
        assert all(d["skipped"] for d in details.values())

    def test_rent_retries_past_outage_end(self):
        """A short outage at the first victim's rent instant: the RENT
        retries under backoff and lands once the region lights up."""
        # Quick flash victims rent at warmup=12.0; dark 11.9..12.5.
        plan = FaultPlan(seed=1, outages=(
            OutageWindow(start_hours=11.9, duration_hours=0.6,
                         drop_churn=False),))
        result = run_flash_campaign(
            _scenario(),
            FlashAttackPlan(victims=1, flash_limit=5,
                            reaction_hours=0.25),
            fault_plan=plan,
        )
        assert result.victims_skipped == 0
        assert result.rent_retries > 0
        assert result.faults["fleet.outage"] > 0
        assert result.region_status["r0"]["status"] == "degraded"

    def test_certain_storm_preempts_live_victims(self):
        """probability=1.0 storms mid-tenancy reclaim the live victim
        exactly once; the release event later finds the board gone."""
        # Victim tenancies are sequential: victim 0 holds [12, 60),
        # victim 1 holds [84, 132) (warmup 12, burn 48, spacing 24) --
        # one storm inside each window catches exactly that victim.
        plan = FaultPlan(seed=1, storms=(
            PreemptionStorm(start_hours=40.0, probability=1.0,
                            cut_churn=False),
            PreemptionStorm(start_hours=100.0, probability=1.0,
                            cut_churn=False),
        ))
        result = run_flash_campaign(
            _scenario(),
            FlashAttackPlan(victims=2, flash_limit=5,
                            reaction_hours=0.25),
            fault_plan=plan,
        )
        assert result.preempted == 2
        assert result.faults["fleet.preempt"] == 2
        preempted_details = [d for d in result.details if d["preempted"]]
        assert len(preempted_details) == 2

    def test_retirement_shrinks_pool_permanently(self):
        plan = FaultPlan(seed=2, retirements=(
            RetirementWave(time_hours=5.0, boards=7),))
        result = run_flash_campaign(
            _scenario(), FlashAttackPlan(victims=2), fault_plan=plan,
        )
        assert result.retired_boards == 7
        assert result.faults["fleet.retire"] == 7
        status = result.region_status["r0"]
        assert status["retired"] == 7
        assert status["boards"] == 120 - 7
        assert status["status"] == "degraded"

    def test_failed_wipe_leaves_remanence_for_the_attacker(self):
        """With every wipe failing on a quiet pool, the attacker reads
        the victim's residue exactly as before -- plus the ledger says
        the wipes failed."""
        from repro.physics.aging import NEW_PART

        scenario = _scenario(
            churn=ChurnModel(arrival_rate_per_hour=0.01,
                             mean_rental_hours=1.0),
            seed=2, wear=NEW_PART,
        )
        plan = FaultPlan(seed=0,
                              wipe=WipeFaultSpec(fail_probability=1.0))
        result = run_flash_campaign(
            scenario,
            FlashAttackPlan(victims=2, flash_limit=3, reaction_hours=0.1),
            fault_plan=plan,
        )
        assert result.failed_wipes == 2
        assert result.recovery_yield == 1.0
        assert {d["wipe_mode"] for d in result.details} == {"failed"}

    def test_virtual_region_retire_free(self):
        trace = ChurnModel(5.0, 2.0).draw(10.0, seed=0)
        for engine in ("bulk", "reference"):
            with _engine(engine):
                region = VirtualRegion(6, trace)
            before = list(region.free_boards())
            removed = region.retire_free([4, 1])
            assert removed == [before[4], before[1]]
            assert region.boards == 4
            assert region.available() == 4
            with pytest.raises(CloudError):
                region.retire_free([99])


def _sweep_scenario(**overrides):
    base = dict(
        devices=60,
        horizon_hours=120.0,
        churn=ChurnModel(arrival_rate_per_hour=1.5,
                         mean_rental_hours=8.0),
        routes=4,
        seed=0,
    )
    base.update(overrides)
    return FleetScenario(**base)


_SWEEP_ATTACK = FlashAttackPlan(victims=1, flash_limit=3,
                                reaction_hours=0.25)


def _sweep_chaos_plan():
    return FaultPlan(
        seed=3,
        wipe=WipeFaultSpec(fail_probability=0.3, partial_probability=0.3),
        outages=(OutageWindow(start_hours=40.0, duration_hours=6.0),),
    )


class TestFleetSweep:
    """Multi-seed campaign sweeps: journaling, kill-and-resume
    bit-identity, per-seed fault-plan derivation."""

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown fleet"):
            run_fleet_sweep(_sweep_scenario(), [1], campaign="psychic")
        with pytest.raises(ConfigurationError, match="at least one"):
            run_fleet_sweep(_sweep_scenario(), [])
        with pytest.raises(ConfigurationError, match="unique"):
            run_fleet_sweep(_sweep_scenario(), [1, 1])

    def test_journal_context_excludes_engine_and_batch(self):
        plans = (None, _sweep_chaos_plan())
        for plan in plans:
            a = fleet_journal_context(
                _sweep_scenario(), "flash",
                attack_plan=_SWEEP_ATTACK, fault_plan=plan)
            b = fleet_journal_context(
                _sweep_scenario(batch_hours=9.0), "flash",
                attack_plan=_SWEEP_ATTACK, fault_plan=plan)
            assert a == b

    def test_sweep_mean_and_per_seed_results(self):
        sweep = run_fleet_sweep(
            _sweep_scenario(), [1, 2], attack_plan=_SWEEP_ATTACK,
        )
        assert sweep.seeds == [1, 2]
        assert len(sweep.results) == 2
        yields = [r["recovery_yield"] for r in sweep.results]
        assert sweep.mean_yield == sum(yields) / 2
        assert sweep.resumed_seeds == 0

    def test_kill_and_resume_is_bit_identical(self, tmp_path,
                                              monkeypatch):
        """SIGKILL mid-sweep (modelled as a runner that dies on the
        third seed), then resume on the per-event churn oracle with
        another batch size: result JSON, merged series and counters all
        match the uninterrupted run exactly."""
        seeds = [1, 2, 3]
        plan = _sweep_chaos_plan()
        context = fleet_journal_context(
            _sweep_scenario(), "flash", attack_plan=_SWEEP_ATTACK,
            fault_plan=plan)

        def clean_run():
            registry.reset()
            rec = FlightRecorder(cadence_hours=7.0)
            sweep = run_fleet_sweep(
                _sweep_scenario(), seeds, attack_plan=_SWEEP_ATTACK,
                fault_plan=plan, recorder=rec,
            )
            counters = dict(registry.snapshot()["counters"])
            registry.reset()
            return sweep.to_dict(), rec.to_json(), counters

        expected_dict, expected_series, expected_counters = clean_run()

        # Interrupted journaled attempt: dies on the third campaign.
        journal_path = tmp_path / "fleet.journal"
        real_runner = campaigns_module._CAMPAIGN_RUNNERS["flash"]
        calls = {"n": 0}

        def dying_runner(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise KeyboardInterrupt
            return real_runner(*args, **kwargs)

        monkeypatch.setitem(campaigns_module._CAMPAIGN_RUNNERS, "flash",
                            dying_runner)
        registry.reset()
        with pytest.raises(KeyboardInterrupt):
            run_fleet_sweep(
                _sweep_scenario(), seeds, attack_plan=_SWEEP_ATTACK,
                fault_plan=plan, recorder=FlightRecorder(cadence_hours=7.0),
                journal=SweepJournal.load(journal_path, context=context),
            )
        monkeypatch.setitem(campaigns_module._CAMPAIGN_RUNNERS, "flash",
                            real_runner)
        registry.reset()
        journal = SweepJournal.load(journal_path, context=context)
        assert journal.completed_seeds() == [1, 2]

        # Resume in a fresh "process" on the per-event churn oracle.
        rec = FlightRecorder(cadence_hours=7.0)
        with reference_churn():
            sweep = run_fleet_sweep(
                _sweep_scenario(batch_hours=9.0), seeds,
                attack_plan=_SWEEP_ATTACK, fault_plan=plan, recorder=rec,
                journal=SweepJournal.load(journal_path, context=context),
            )
        counters = dict(registry.snapshot()["counters"])
        registry.reset()
        assert sweep.resumed_seeds == 2
        assert sweep.to_dict() == expected_dict
        assert rec.to_json() == expected_series
        counters.pop("sweep_seeds_resumed_total")
        assert counters == expected_counters

    def test_journaled_equals_unjournaled(self, tmp_path):
        registry.reset()
        plain = run_fleet_sweep(
            _sweep_scenario(), [1, 2], attack_plan=_SWEEP_ATTACK,
        )
        registry.reset()
        journal = SweepJournal.load(tmp_path / "j.json", context={})
        journaled = run_fleet_sweep(
            _sweep_scenario(), [1, 2], attack_plan=_SWEEP_ATTACK,
            journal=journal,
        )
        registry.reset()
        assert journaled.to_dict() == plain.to_dict()
