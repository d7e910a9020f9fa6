"""Tests for structured logging modes."""

import io
import json

import pytest

from repro.observability import log as obslog


@pytest.fixture(autouse=True)
def restore_log_config():
    yield
    obslog.configure(mode=None)


def capture(mode):
    stream = io.StringIO()
    obslog.configure(mode=mode, stream=stream)
    return stream


class TestModes:
    def test_disabled_emits_nothing(self):
        stream = io.StringIO()
        obslog.configure(mode=None, stream=stream)
        obslog.get_logger("t").info("event", k=1)
        assert stream.getvalue() == ""

    def test_kv_mode(self):
        stream = capture("kv")
        obslog.get_logger("cloud").info("image_loaded", design="measure")
        line = stream.getvalue().strip()
        assert "level=info" in line
        assert "logger=cloud" in line
        assert "event=image_loaded" in line
        assert "design=measure" in line

    def test_kv_quotes_awkward_values(self):
        stream = capture("kv")
        obslog.get_logger("t").info("e", msg="two words")
        assert 'msg="two words"' in stream.getvalue()

    def test_json_mode_lines_parse(self):
        stream = capture("json")
        log = obslog.get_logger("sensor")
        log.warning("drift", route="rut[0]", delta=1.5)
        record = json.loads(stream.getvalue())
        assert record["level"] == "warning"
        assert record["logger"] == "sensor"
        assert record["event"] == "drift"
        assert record["delta"] == 1.5
        assert "ts" in record

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            obslog.configure(mode="xml")

    def test_levels(self):
        stream = capture("kv")
        log = obslog.get_logger("t")
        log.debug("a")
        log.error("b")
        lines = stream.getvalue().strip().splitlines()
        assert "level=debug" in lines[0]
        assert "level=error" in lines[1]

    def test_get_logger_cached(self):
        assert obslog.get_logger("same") is obslog.get_logger("same")


class TestEvents:
    """An operational event is one record: log line, progress, marker."""

    def test_event_is_an_info_record_named_by_its_kind(self):
        stream = capture("json")
        obslog.get_logger("reliability.faults").event(
            "fault", site="sensor.capture", fires=1
        )
        record = json.loads(stream.getvalue())
        assert {k: v for k, v in record.items() if k != "ts"} == {
            "level": "info", "logger": "reliability.faults",
            "event": "fault", "site": "sensor.capture", "fires": 1,
        }

    def test_event_reaches_the_sink_and_leaves_its_marker(self):
        from repro.observability import progress, trace

        stream = capture("kv")
        collector = progress.CollectingEmitter()
        previous = progress.set_emitter(collector)
        trace.enable()
        try:
            obslog.get_logger("t").event("fault", site="x")
            obslog.get_logger("t").event("fleet.scan_hit", victim=0)
        finally:
            progress.set_emitter(previous)
        assert collector.event_counts == {"fault": 1, "fleet.scan_hit": 1}
        assert [(sp.name, sp.attrs) for sp in trace.roots()] == [
            ("fault.inject", {"site": "x"}),
        ]
        assert len(stream.getvalue().splitlines()) == 2
