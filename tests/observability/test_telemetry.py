"""What a run tells its observers, pinned end to end through the CLI.

Three outputs ride one telemetry channel: the ``--progress jsonl``
stream on stderr, the run-store row's ``extra["phases"]`` and
``extra["events"]``, and the Chrome trace's instant events (with
``repro profile``'s retry tally read off the same span forest).  The
streams are compared line for line, in key order, with wall-clock
fields masked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.observability import progress, trace
from repro.observability.profile import build_report
from repro.observability.runstore import RunStore
from repro.observability.timeline import INSTANT_SPANS

_FAULT_PLAN = str(
    Path(__file__).resolve().parents[2] / "plans" / "chaos-default.json"
)

_CHAOS = ["chaos", "exp1", "--quick", "--seed", "1",
          "--fault-plan", _FAULT_PLAN]

#: Fields whose values depend on the wall clock or the process.
_MASKED = frozenset({"t", "elapsed_s", "rate_per_s", "eta_s",
                     "sim_rate_per_s", "sim_eta_s", "worker_pid"})

_EXP1_PHASES = [
    '{"event": "phase", "t": "*", "name": "experiment.burn", "hours": 40, '
    '"cycles": 10}',
    '{"event": "phase", "t": "*", "name": "experiment.recovery", '
    '"hours": 40, "cycles": 10}',
    '{"event": "phase", "t": "*", "name": "experiment.classify", '
    '"routes": 8}',
]
_EXP1_NAMES = ["experiment.burn", "experiment.recovery",
               "experiment.classify"]


def _seed_done(seed: int, completed: int) -> str:
    return (
        f'{{"event": "seed_done", "t": "*", "seed": {seed}, "value": 1.0, '
        f'"elapsed_s": "*", "shard": null, "worker_pid": "*", '
        f'"resumed": false, "completed": {completed}, "total": 2, '
        f'"rate_per_s": "*", "eta_s": "*"}}'
    )


def _fault(site: str, error: str, fires: int) -> str:
    return (f'{{"event": "fault", "t": "*", "site": "{site}", '
            f'"error": "{error}", "fires": {fires}}}')


def _retry(label: str, error: str, delay_s: float) -> str:
    return (f'{{"event": "retry", "t": "*", "label": "{label}", '
            f'"attempt": 1, "error": "{error}", '
            f'"simulated_delay_s": {delay_s}}}')


def _capture_fault(fires: int, route: int, delay_s: float) -> list[str]:
    return [_fault("sensor.capture", "CaptureDropError", fires),
            _retry(f"sensor.capture:rut[{route}]", "CaptureDropError",
                   delay_s)]


#: name -> (argv, progress lines, extra["phases"], extra["events"]).
_STREAMS = {
    "exp1": (
        ["exp1", "--quick", "--no-figure"],
        _EXP1_PHASES,
        _EXP1_NAMES,
        None,
    ),
    "exp3": (
        ["exp3", "--quick", "--no-figure"],
        [
            '{"event": "phase", "t": "*", "name": "experiment.victim_burn", '
            '"hours": 100}',
            '{"event": "phase", "t": "*", "name": "experiment.attack", '
            '"recovery_hours": 18}',
        ],
        ["experiment.victim_burn", "experiment.attack"],
        None,
    ),
    "sweep": (
        ["sweep", "exp1", "--seeds", "1:2"],
        [
            '{"event": "phase", "t": "*", "name": "montecarlo", "total": 2, '
            '"metric": "exp1 recovery accuracy", "jobs": 1}',
            *_EXP1_PHASES, _seed_done(1, 1),
            *_EXP1_PHASES, _seed_done(2, 2),
        ],
        ["montecarlo"] + _EXP1_NAMES * 2,
        None,
    ),
    "fleet": (
        ["fleet", "--quick"],
        [
            '{"event": "phase", "t": "*", "name": "fleet.campaign", '
            '"kind": "flash", "total": 2, "devices": 256, '
            '"sim_total_hours": 200.0}',
            '{"event": "sim_tick", "t": "*", "sim_hours": 12.0, '
            '"sim_total_hours": 200.0, "sim_rate_per_s": "*", '
            '"sim_eta_s": "*"}',
            '{"event": "fleet.victim_released", "t": "*", "victim": 0, '
            '"board": 254}',
            '{"event": "fleet.victim_released", "t": "*", "victim": 1, '
            '"board": 197}',
            '{"event": "sim_tick", "t": "*", "sim_hours": 200.0, '
            '"sim_total_hours": 200.0, "sim_rate_per_s": "*", '
            '"sim_eta_s": "*"}',
            '{"event": "fleet.campaign_done", "t": "*", "campaign": "flash", '
            '"recovery_yield": 0.5}',
        ],
        ["fleet.campaign"],
        {"fleet.victim_released": 2, "fleet.campaign_done": 1},
    ),
    "chaos": (
        _CHAOS,
        [
            _fault("sensor.calibrate", "CalibrationGlitchError", 1),
            _retry("sensor.calibrate:rut[0]", "CalibrationGlitchError",
                   0.51751),
            _EXP1_PHASES[0],
            *_capture_fault(1, 4, 0.46974), *_capture_fault(2, 1, 0.52739),
            *_capture_fault(3, 4, 0.46974),
            _EXP1_PHASES[1],
            *_capture_fault(4, 0, 0.52458), *_capture_fault(5, 3, 0.51441),
            _EXP1_PHASES[2],
        ],
        _EXP1_NAMES,
        {"fault": 6, "retry": 6},
    ),
}


def _masked(line: str) -> str:
    payload = json.loads(line)
    return json.dumps({key: ("*" if key in _MASKED else value)
                       for key, value in payload.items()})


@pytest.mark.parametrize("name", sorted(_STREAMS))
def test_progress_stream_and_run_row(name, tmp_path, monkeypatch, capsys):
    argv, lines, phases, events = _STREAMS[name]
    db = tmp_path / "runs.db"
    monkeypatch.setenv("REPRO_RUNSTORE", str(db))
    # Sim ticks are throttled by wall time; an infinite interval keeps
    # exactly the first tick and the one that reaches the horizon.
    monkeypatch.setattr(progress, "SIM_RENDER_INTERVAL_S", math.inf)
    assert main(argv + ["--progress", "jsonl"]) == 0
    err = capsys.readouterr().err
    got = [_masked(line) for line in err.splitlines()
           if line.startswith("{")]
    assert got == lines
    store = RunStore(db)
    extra = store.get_run(store.resolve("latest"))["extra"]
    assert extra.get("phases") == phases
    assert extra.get("events") == events


def test_faults_and_retries_are_trace_instants(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(_CHAOS + ["--no-record", "--chrome-trace", str(path)]) == 0
    capsys.readouterr()
    events = json.loads(path.read_text())["traceEvents"]
    instants = [event for event in events if event["ph"] == "i"]
    assert {event["name"] for event in instants} == INSTANT_SPANS
    faults = [e for e in instants if e["name"] == "fault.inject"]
    retries = [e for e in instants if e["name"] == "retry.wait"]
    assert len(faults) == len(retries) == 6
    assert faults[0]["args"] == {"site": "sensor.calibrate",
                                 "error": "CalibrationGlitchError",
                                 "fires": 1}
    assert [e["args"]["fires"] for e in faults[1:]] == [1, 2, 3, 4, 5]
    assert {e["args"]["site"] for e in faults[1:]} == {"sensor.capture"}
    for event in instants:
        assert event["s"] == "t"
        assert event["cat"] == event["name"].split(".", 1)[0]
    assert retries[0]["args"]["label"] == "sensor.calibrate:rut[0]"
    for event in retries:
        assert set(event["args"]) == {"label", "attempt", "error",
                                      "simulated_delay_s"}
        assert event["args"]["attempt"] == 1
        assert event["args"]["simulated_delay_s"] > 0.0
    # No fault or retry marker is drawn as a zero-width slice.
    assert not [e for e in events
                if e["ph"] == "X" and e["name"] in INSTANT_SPANS]

    report = build_report(trace.roots())
    assert report["retry_waits"] == 6
    assert report["retry_wait_simulated_s"] == pytest.approx(
        sum(e["args"]["simulated_delay_s"] for e in retries)
    )
