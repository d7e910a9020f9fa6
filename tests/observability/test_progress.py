"""Live progress telemetry: emitters, hooks and the CLI wiring."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.progress import (
    CollectingEmitter,
    JsonlProgress,
    TtyProgress,
    compose,
    get_emitter,
    make_progress,
    note_seed_done,
    note_sim_hours,
    set_emitter,
)

_log = get_logger("tests.progress")


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class TestTtyProgress:
    def test_status_line_counts_and_phase(self):
        stream = io.StringIO()
        clock = FakeClock()
        view = TtyProgress(stream=stream, clock=clock)
        view.phase("sweep", total=4)
        for seed in range(3):
            clock.tick(2.0)
            view.seed_done(seed, 0.9)
        line = view.render_line()
        assert "[sweep]" in line
        assert "3/4" in line
        assert "last 0.900" in line
        assert "\r" in stream.getvalue()

    def test_rate_and_eta_from_moving_window(self):
        clock = FakeClock()
        view = TtyProgress(stream=io.StringIO(), total=10, clock=clock)
        for seed in range(5):
            view.seed_done(seed, 1.0)
            clock.tick(2.0)
        # 5 completions over 8 ticking seconds -> 0.5/s, 5 remain.
        assert view.rate_per_s() == pytest.approx(0.5)
        assert view.eta_s() == pytest.approx(10.0)

    def test_event_tallies(self):
        view = TtyProgress(stream=io.StringIO())
        view.event("fault", site="capture")
        view.event("fault", site="rent")
        view.event("retry", label="cloud.rent")
        assert "fault=2" in view.render_line()
        assert "retry=1" in view.render_line()

    def test_close_finishes_the_line(self):
        stream = io.StringIO()
        view = TtyProgress(stream=stream)
        view.seed_done(1, 1.0)
        view.close()
        assert stream.getvalue().endswith("\n")
        view.close()  # idempotent


class TestSimTimeProgress:
    """The simulated-hours work axis for fleet runs."""

    def test_sim_rate_and_eta_from_moving_window(self):
        clock = FakeClock()
        view = TtyProgress(stream=io.StringIO(), clock=clock)
        view.phase("fleet", sim_total_hours=200.0)
        for hour in (10.0, 20.0, 30.0, 40.0):
            clock.tick(1.0)
            view.sim_tick(hour)
        # 30 sim-hours over 3 wall seconds between first and last tick.
        assert view.sim_rate_per_s() == pytest.approx(10.0)
        assert view.sim_eta_s() == pytest.approx(16.0)

    def test_render_line_shows_sim_axis(self):
        clock = FakeClock()
        view = TtyProgress(stream=io.StringIO(), clock=clock)
        view.phase("fleet", sim_total_hours=200.0)
        clock.tick(1.0)
        view.sim_tick(25.0)
        clock.tick(1.0)
        view.sim_tick(50.0)
        line = view.render_line()
        assert "simh 50.0/200" in line
        assert "simh/s" in line
        assert "sim-eta" in line

    def test_render_line_without_horizon(self):
        clock = FakeClock()
        view = TtyProgress(stream=io.StringIO(), clock=clock)
        view.sim_tick(3.5)
        assert "simh 3.5" in view.render_line()
        assert "sim-eta" not in view.render_line()

    def test_renders_are_wall_clock_throttled(self):
        stream = io.StringIO()
        clock = FakeClock()
        view = TtyProgress(stream=stream, clock=clock)
        view.phase("fleet", sim_total_hours=1000.0)
        baseline = stream.getvalue().count("\r")
        for hour in range(1, 100):
            view.sim_tick(float(hour))  # no wall time passes
        assert stream.getvalue().count("\r") == baseline + 1

    def test_final_tick_renders_despite_throttle(self):
        stream = io.StringIO()
        clock = FakeClock()
        view = TtyProgress(stream=stream, clock=clock)
        view.phase("fleet", sim_total_hours=10.0)
        view.sim_tick(5.0)
        before = stream.getvalue().count("\r")
        view.sim_tick(10.0)  # horizon reached -> always rendered
        assert stream.getvalue().count("\r") == before + 1

    def test_jsonl_sim_tick_lines(self):
        stream = io.StringIO()
        clock = FakeClock(50.0)
        emitter = JsonlProgress(stream=stream, clock=clock)
        emitter.phase("fleet", sim_total_hours=100.0)
        clock.tick(2.0)
        emitter.sim_tick(20.0)
        clock.tick(2.0)
        emitter.sim_tick(40.0)
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        ticks = [entry for entry in lines if entry["event"] == "sim_tick"]
        assert ticks[-1]["sim_hours"] == 40.0
        assert ticks[-1]["sim_total_hours"] == 100.0
        assert ticks[-1]["sim_rate_per_s"] == pytest.approx(10.0)
        assert ticks[-1]["sim_eta_s"] == pytest.approx(6.0)

    def test_collector_counts_ticks(self):
        collector = CollectingEmitter()
        collector.sim_tick(4.0)
        collector.sim_tick(9.0)
        assert collector.sim_hours == 9.0
        assert collector.sim_ticks == 2

    def test_note_sim_hours_hook_fans_out(self):
        a, b = CollectingEmitter(), CollectingEmitter()
        previous = set_emitter(compose(a, b))
        try:
            note_sim_hours(12.5)
        finally:
            set_emitter(previous)
        assert a.sim_hours == b.sim_hours == 12.5
        note_sim_hours(99.0)  # no emitter installed: a no-op

    def test_fleet_campaign_drives_the_sim_axis(self):
        from repro.cloud.campaigns import (
            ChurnModel,
            FleetScenario,
            FlashAttackPlan,
            run_flash_campaign,
        )

        collector = CollectingEmitter()
        previous = set_emitter(collector)
        try:
            run_flash_campaign(
                FleetScenario(
                    devices=40, horizon_hours=60.0,
                    churn=ChurnModel(arrival_rate_per_hour=1.0,
                                     mean_rental_hours=6.0),
                    routes=4, seed=3,
                ),
                FlashAttackPlan(victims=1),
            )
        finally:
            set_emitter(previous)
        assert collector.phases[0]["sim_total_hours"] == 60.0
        assert collector.sim_ticks > 0
        assert collector.sim_hours == pytest.approx(60.0)


class TestJsonlProgress:
    def test_events_are_one_json_per_line(self):
        stream = io.StringIO()
        clock = FakeClock(100.0)
        emitter = JsonlProgress(stream=stream, clock=clock)
        emitter.phase("sweep", total=2, jobs=1)
        clock.tick(1.0)
        emitter.seed_done(1, 0.875, elapsed_s=1.0, shard=0)
        emitter.event("fault", site="capture")
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        assert [entry["event"] for entry in lines] == [
            "phase", "seed_done", "fault",
        ]
        assert lines[0]["total"] == 2
        assert lines[1]["seed"] == 1
        assert lines[1]["value"] == 0.875
        assert lines[1]["completed"] == 1
        assert lines[2]["site"] == "capture"

    def test_seed_done_carries_rate_and_eta(self):
        stream = io.StringIO()
        clock = FakeClock()
        emitter = JsonlProgress(stream=stream, total=4, clock=clock)
        emitter.seed_done(1, 1.0)
        clock.tick(2.0)
        emitter.seed_done(2, 1.0)
        last = json.loads(stream.getvalue().splitlines()[-1])
        assert last["rate_per_s"] == pytest.approx(0.5)
        assert last["eta_s"] == pytest.approx(4.0)


class TestCollectingEmitter:
    def test_one_row_per_seed_even_when_replayed(self):
        collector = CollectingEmitter()
        collector.seed_done(3, 0.9, resumed=True)
        collector.seed_done(1, 1.0, elapsed_s=2.0, shard=0, worker_pid=42)
        collector.seed_done(3, 0.9, resumed=False)  # re-run overwrites
        rows = collector.seed_rows
        assert [row["seed"] for row in rows] == [1, 3]
        assert rows[0]["worker_pid"] == 42
        assert rows[1]["resumed"] is False

    def test_phases_and_event_counts(self):
        collector = CollectingEmitter()
        collector.phase("sweep", total=8)
        collector.event("fault", site="capture")
        collector.event("fault", site="rent")
        assert collector.phases == [{"name": "sweep", "total": 8}]
        assert collector.event_counts == {"fault": 2}


class TestHooksAndCompose:
    def test_hooks_are_noops_without_emitter(self):
        assert get_emitter() is None
        with trace.phase("montecarlo", total=4):
            pass
        note_seed_done(1, 1.0)
        _log.event("degraded", route="rut[0]")
        assert trace.roots() == ()  # tracing is off: no span either

    def test_hooks_fan_out_through_compose(self):
        a, b = CollectingEmitter(), CollectingEmitter()
        previous = set_emitter(compose(a, b))
        try:
            with trace.phase("montecarlo", total=2):
                note_seed_done(1, 0.5, elapsed_s=0.1)
                _log.event("retry", label="cloud.rent")
        finally:
            set_emitter(previous)
        for collector in (a, b):
            assert collector.phases[0] == {"name": "montecarlo", "total": 2}
            assert collector.seed_rows[0]["value"] == 0.5
            assert collector.event_counts == {"retry": 1}

    def test_phase_is_a_span_and_marker_events_leave_spans(self):
        collector = CollectingEmitter()
        previous = set_emitter(collector)
        trace.enable()
        try:
            with trace.phase("experiment.burn", hours=4, cycles=2):
                _log.event("retry", label="cloud.rent", attempt=1)
                _log.event("degraded", route="rut[0]", points=2)
        finally:
            set_emitter(previous)
        (root,) = trace.roots()
        assert (root.name, root.attrs) == (
            "experiment.burn", {"hours": 4, "cycles": 2}
        )
        # Only the kinds trace.MARKERS names leave a marker span.
        assert [(sp.name, sp.attrs) for sp in root.children] == [
            ("retry.wait", {"label": "cloud.rent", "attempt": 1}),
        ]
        assert collector.phases == [
            {"name": "experiment.burn", "hours": 4, "cycles": 2}
        ]
        assert collector.event_counts == {"retry": 1, "degraded": 1}

    def test_compose_drops_nones(self):
        collector = CollectingEmitter()
        assert compose(None, None) is None
        assert compose(None, collector) is collector

    def test_set_emitter_returns_previous(self):
        collector = CollectingEmitter()
        assert set_emitter(collector) is None
        assert set_emitter(None) is collector


class TestMakeProgress:
    def test_modes(self):
        assert make_progress("off") is None
        assert make_progress(None) is None
        assert isinstance(make_progress("tty", stream=io.StringIO()),
                          TtyProgress)
        assert isinstance(make_progress("jsonl", stream=io.StringIO()),
                          JsonlProgress)

    def test_auto_is_off_when_not_a_tty(self):
        assert make_progress("auto", stream=io.StringIO()) is None

    def test_auto_is_tty_on_a_terminal(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        assert isinstance(make_progress("auto", stream=Tty()), TtyProgress)

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigurationError):
            make_progress("loud")


class TestProducersEmit:
    def test_sweep_emits_phase_and_seed_done(self):
        from repro.montecarlo import experiment_sweep

        collector = CollectingEmitter()
        previous = set_emitter(collector)
        try:
            experiment_sweep("exp1", [1, 2], quick=True)
        finally:
            set_emitter(previous)
        assert collector.phases[0]["name"] == "montecarlo"
        assert collector.phases[0]["total"] == 2
        assert [row["seed"] for row in collector.seed_rows] == [1, 2]
        for row in collector.seed_rows:
            assert 0.0 <= row["value"] <= 1.0
            assert row["elapsed_s"] > 0.0

    def test_resumed_seeds_are_flagged(self, tmp_path):
        from repro.montecarlo import experiment_sweep
        from repro.reliability.checkpoint import SweepJournal

        # A killed run: the journal holds seeds 1 and 2 of a 3-seed
        # sweep.  The resumed run replays them and only runs seed 3.
        journal_path = tmp_path / "sweep.journal"
        probe = experiment_sweep("exp1", [1, 2], quick=True)
        context = {
            "experiment": "exp1", "quick": True, "overrides": [],
            "seeds": [1, 2, 3], "metric": "recovery_accuracy",
        }
        journal = SweepJournal.load(journal_path, context=context)
        for seed, value in zip((1, 2), probe.values):
            journal.record(seed, float(value))
        collector = CollectingEmitter()
        previous = set_emitter(collector)
        try:
            experiment_sweep("exp1", [1, 2, 3], quick=True,
                             journal_path=str(journal_path))
        finally:
            set_emitter(previous)
        rows = {row["seed"]: row for row in collector.seed_rows}
        assert rows[1]["resumed"] and rows[2]["resumed"]
        assert not rows[3]["resumed"]
