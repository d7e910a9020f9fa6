"""Tests for the metrics registry and its exporters."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.observability.export import (
    metrics_to_dict,
    to_prometheus_text,
    write_metrics_json,
)
from repro.observability.metrics import (
    HISTOGRAM_RESERVOIR_SIZE,
    MetricsRegistry,
    registry,
)
from tests.oracles.churn import churn_sample


class TestCounter:
    def test_inc_accumulates(self):
        c = registry.counter("events_total")
        c.inc()
        c.inc(2.5)
        assert registry.counter("events_total").value == 3.5

    def test_get_or_create_returns_same_instrument(self):
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.counter("y_total").inc(-1.0)


class TestGauge:
    def test_set_and_adjust(self):
        g = registry.gauge("level")
        g.set(4.0)
        g.inc(-1.5)
        assert g.value == 2.5


class TestHistogram:
    def test_summary_percentiles(self):
        h = registry.histogram("latency")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == 50.0
        assert s["p95"] == 95.0
        assert s["p99"] == 99.0

    def test_empty_summary_is_zeroes(self):
        s = registry.histogram("empty").summary()
        assert s["count"] == 0 and s["p50"] == 0.0

    def test_reservoir_bounded_but_count_exact(self):
        h = registry.histogram("bounded")
        n = HISTOGRAM_RESERVOIR_SIZE + 100
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert len(h._reservoir) == HISTOGRAM_RESERVOIR_SIZE
        assert h.minimum == 0.0 and h.maximum == float(n - 1)

    def test_bad_percentile_rejected(self):
        h = registry.histogram("p")
        with pytest.raises(ConfigurationError):
            h.percentile(101.0)


class TestRegistry:
    def test_kind_conflict_rejected(self):
        registry.counter("thing")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing")

    def test_reset_clears_everything(self):
        registry.counter("a_total").inc()
        registry.gauge("b").set(1)
        registry.histogram("c").observe(1.0)
        registry.reset()
        assert registry.names() == ()

    def test_autouse_fixture_gives_clean_registry(self):
        # The clean_observability fixture in tests/conftest.py must have
        # wiped whatever other tests recorded.
        assert registry.names() == ()

    def test_snapshot_shape(self):
        registry.counter("a_total").inc(2)
        registry.gauge("b").set(7)
        registry.histogram("c").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"a_total": 2.0}
        assert snap["gauges"] == {"b": 7.0}
        assert snap["histograms"]["c"]["count"] == 1


class TestExport:
    def test_json_export_round_trips(self, tmp_path):
        registry.counter("captures_total").inc(4)
        registry.histogram("capture_latency_seconds").observe(0.01)
        path = write_metrics_json(tmp_path / "m.json")
        payload = json.loads(path.read_text())
        assert payload["metrics"]["counters"]["captures_total"] == 4.0
        hist = payload["metrics"]["histograms"]["capture_latency_seconds"]
        assert "p50" in hist and "p95" in hist

    def test_json_export_embeds_manifest(self, tmp_path):
        path = write_metrics_json(
            tmp_path / "m.json", manifest={"run_id": "abc"}
        )
        payload = json.loads(path.read_text())
        assert payload["manifest"]["run_id"] == "abc"

    def test_prometheus_text_format(self):
        own = MetricsRegistry()
        own.counter("captures_total", "captures").inc(3)
        own.gauge("recovery_accuracy").set(0.5)
        own.histogram("latency_seconds").observe(2.0)
        text = to_prometheus_text(own)
        assert "# TYPE captures_total counter" in text
        assert "captures_total 3.0" in text
        assert "# TYPE recovery_accuracy gauge" in text
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{quantile="0.5"} 2.0' in text
        assert "latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_sanitises_names(self):
        own = MetricsRegistry()
        own.counter("bad-name.total").inc()
        assert "bad_name_total" in to_prometheus_text(own)

    def test_prometheus_exposition_conformance(self):
        """Every line conforms to the text exposition format.

        Checked against the format spec: metric names match
        ``[a-zA-Z_:][a-zA-Z0-9_:]*``; every family has exactly one
        ``# HELP`` then one ``# TYPE`` line, in that order, before its
        samples; sample values parse as floats; HELP text never
        contains a raw newline or stray backslash.
        """
        import re

        own = MetricsRegistry()
        own.counter("captures_total", "captures with \\ and \n inside").inc(2)
        own.counter("9starts_with_digit").inc()
        own.counter("no_help_total").inc()
        own.gauge("recovery_accuracy", "accuracy").set(0.875)
        hist = own.histogram("capture_latency_seconds", "latency")
        for value in (0.01, 0.02, 0.03):
            hist.observe(value)
        from repro.observability.timeseries import FlightRecorder

        recorder = FlightRecorder()
        recorder.record_origin(40)
        churn_sample(recorder, 3.0, 38.0, 2.0, 4.0, 1.0)
        text = to_prometheus_text(own, series=recorder)

        name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
        sample_re = re.compile(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
            r'(\{quantile="[0-9.]+"\})? '
            r"([0-9.eE+-]+|NaN)$"
        )
        seen_help: dict[str, bool] = {}
        seen_type: dict[str, bool] = {}
        for line in text.splitlines():
            assert line == line.rstrip(), f"trailing space: {line!r}"
            if line.startswith("# HELP "):
                _, _, rest = line.partition("# HELP ")
                metric, _, help_text = rest.partition(" ")
                assert name_re.fullmatch(metric), metric
                assert metric not in seen_help, f"duplicate HELP {metric}"
                assert "\n" not in help_text
                # only \\ and \n escapes are legal in HELP
                i = 0
                while i < len(help_text):
                    if help_text[i] == "\\":
                        assert i + 1 < len(help_text), "dangling backslash"
                        assert help_text[i + 1] in ("\\", "n"), (
                            f"illegal escape in HELP: {help_text!r}"
                        )
                        i += 2
                    else:
                        i += 1
                seen_help[metric] = True
            elif line.startswith("# TYPE "):
                _, _, rest = line.partition("# TYPE ")
                metric, _, kind = rest.partition(" ")
                assert kind in ("counter", "gauge", "summary", "histogram")
                assert metric in seen_help, (
                    f"TYPE before HELP for {metric}"
                )
                assert metric not in seen_type
                seen_type[metric] = True
            else:
                match = sample_re.match(line)
                assert match, f"malformed sample line: {line!r}"
                base = re.sub(r"_(sum|count)$", "", match.group(1))
                assert base in seen_type, (
                    f"sample {line!r} precedes its TYPE"
                )
                float(match.group(3))  # value parses
        # every family emitted both comment lines
        assert set(seen_help) == set(seen_type)
        # families without a help string fall back to the metric name
        assert "# HELP no_help_total no_help_total" in text
        # escaping applied to the registered help text
        assert "# HELP captures_total captures with \\\\ and \\n inside" \
            in text
        # leading-digit names are prefixed, not dropped
        assert "_9starts_with_digit" in text
        # sim-time series surface as sanitised last-value gauges, each
        # paired with the sim-hour it was taken at
        assert "# TYPE fleet_pool_free gauge" in text
        assert "fleet_pool_free 38.0" in text
        assert "fleet_pool_free_simhours 3.0" in text

    def test_prometheus_series_gauges(self):
        from repro.observability.timeseries import FlightRecorder

        recorder = FlightRecorder()
        recorder.sample("fleet.recovery_yield", 120.0, 0.75,
                        help="recovered fraction of victims")
        recorder.gauge("never.sampled")  # no last value: omitted
        text = to_prometheus_text(MetricsRegistry(), series=recorder)
        assert ("# HELP fleet_recovery_yield recovered fraction of "
                "victims") in text
        assert "fleet_recovery_yield 0.75" in text
        assert "fleet_recovery_yield_simhours 120.0" in text
        assert "never_sampled" not in text
        # A plain to_dict() payload works the same as the recorder.
        assert to_prometheus_text(
            MetricsRegistry(), series=recorder.to_dict()
        ) == text

    def test_metrics_to_dict_includes_spans(self):
        from repro.observability import trace

        trace.enable()
        with trace.span("root"):
            pass
        payload = metrics_to_dict()
        assert payload["spans"][0]["name"] == "root"


class TestDumpAndMerge:
    def test_round_trip_counters_gauges(self):
        worker = MetricsRegistry()
        worker.counter("captures_total", "captures").inc(7)
        worker.gauge("level", "fill level").set(0.25)
        parent = MetricsRegistry()
        parent.counter("captures_total").inc(3)
        parent.merge_state(worker.dump_state())
        assert parent.counter("captures_total").value == 10
        assert parent.gauge("level").value == 0.25
        assert parent.gauge("level").help == "fill level"

    def test_histograms_merge_exactly(self):
        worker = MetricsRegistry()
        for value in (1.0, 3.0, 5.0):
            worker.histogram("latency_seconds").observe(value)
        parent = MetricsRegistry()
        parent.histogram("latency_seconds").observe(2.0)
        parent.merge_state(worker.dump_state())
        merged = parent.histogram("latency_seconds")
        assert merged.count == 4
        assert merged.total == 11.0
        assert merged.minimum == 1.0 and merged.maximum == 5.0
        assert merged.percentile(100.0) == 5.0

    def test_merged_reservoir_stays_bounded(self):
        worker = MetricsRegistry()
        for i in range(HISTOGRAM_RESERVOIR_SIZE):
            worker.histogram("latency_seconds").observe(float(i))
        parent = MetricsRegistry()
        parent.histogram("latency_seconds").observe(-1.0)
        parent.merge_state(worker.dump_state())
        merged = parent.histogram("latency_seconds")
        assert len(merged._reservoir) == HISTOGRAM_RESERVOIR_SIZE
        assert merged.count == HISTOGRAM_RESERVOIR_SIZE + 1
        assert merged.minimum == -1.0

    def test_merge_into_empty_registry_recreates_instruments(self):
        worker = MetricsRegistry()
        worker.counter("a_total", "as").inc()
        worker.histogram("b_seconds", "bs").observe(1.0)
        parent = MetricsRegistry()
        parent.merge_state(worker.dump_state())
        assert parent.names() == ("a_total", "b_seconds")
        assert parent.counter("a_total").help == "as"

    def test_counter_increments_tracked_separately_from_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("capture_words_total")
        counter.inc(160)
        counter.inc(160)
        assert counter.value == 320
        assert counter.increments == 2

    def test_counter_increments_survive_merge(self):
        worker = MetricsRegistry()
        worker.counter("capture_words_total").inc(160)
        worker.counter("capture_words_total").inc(160)
        parent = MetricsRegistry()
        parent.counter("capture_words_total").inc(160)
        parent.merge_state(worker.dump_state())
        merged = parent.counter("capture_words_total")
        assert merged.value == 480
        assert merged.increments == 3


class TestNestedMergeAndIdempotence:
    """Satellite: dump/merge round-trips under parent<-worker<-re-merge."""

    def test_nested_merge_round_trip(self):
        """A grandchild's dump merged into a worker, then the worker's
        dump merged into the parent, must add up exactly once."""
        grandchild = MetricsRegistry()
        grandchild.counter("captures_total").inc(5)
        grandchild.histogram("latency_seconds").observe(1.0)

        worker = MetricsRegistry()
        worker.counter("captures_total").inc(2)
        worker.histogram("latency_seconds").observe(3.0)
        assert worker.merge_state(grandchild.dump_state())

        parent = MetricsRegistry()
        parent.counter("captures_total").inc(1)
        assert parent.merge_state(worker.dump_state())

        assert parent.counter("captures_total").value == 8
        merged = parent.histogram("latency_seconds")
        assert merged.count == 2
        assert merged.total == 4.0
        assert merged.minimum == 1.0 and merged.maximum == 3.0

    def test_same_dump_merged_twice_is_noop(self):
        """The idempotence guard: re-merging one dump cannot double
        count."""
        worker = MetricsRegistry()
        worker.counter("captures_total").inc(7)
        worker.histogram("latency_seconds").observe(2.0)
        state = worker.dump_state()

        parent = MetricsRegistry()
        assert parent.merge_state(state) is True
        assert parent.merge_state(state) is False
        assert parent.counter("captures_total").value == 7
        assert parent.histogram("latency_seconds").count == 1

    def test_fresh_dumps_of_same_registry_both_merge(self):
        """Two *separate* dumps are distinct deltas, not replays."""
        worker = MetricsRegistry()
        worker.counter("captures_total").inc(1)
        parent = MetricsRegistry()
        assert parent.merge_state(worker.dump_state())
        assert parent.merge_state(worker.dump_state())
        assert parent.counter("captures_total").value == 2

    def test_legacy_dump_without_id_always_merges(self):
        worker = MetricsRegistry()
        worker.counter("captures_total").inc(1)
        state = worker.dump_state()
        del state["dump_id"]
        parent = MetricsRegistry()
        assert parent.merge_state(state) is True
        assert parent.merge_state(state) is True
        assert parent.counter("captures_total").value == 2

    def test_reset_forgets_merged_dump_ids(self):
        worker = MetricsRegistry()
        worker.counter("captures_total").inc(3)
        state = worker.dump_state()
        parent = MetricsRegistry()
        parent.merge_state(state)
        parent.reset()
        assert parent.merge_state(state) is True
        assert parent.counter("captures_total").value == 3

    def test_isolated_seed_keeps_merged_dump_ids(self):
        """An isolated seed restores the parent's state by re-merging
        it; a dump the parent merged before must still count once."""
        from repro.montecarlo import _isolated

        worker = MetricsRegistry()
        worker.counter("captures_total").inc(1)
        state = worker.dump_state()
        registry.merge_state(state)
        assert registry.merge_state(state) is False
        assert registry.counter("captures_total").value == 1.0
        _isolated(lambda: None)
        assert registry.merge_state(state) is False
        assert registry.counter("captures_total").value == 1.0

    def test_dump_merged_inside_isolated_seed_counts_once(self):
        from repro.montecarlo import _isolated

        worker = MetricsRegistry()
        worker.counter("captures_total").inc(2)
        state = worker.dump_state()
        _, seed_state = _isolated(lambda: registry.merge_state(state))
        assert seed_state["counters"]["captures_total"]["value"] == 2.0
        assert registry.merge_state(state) is False
        assert registry.counter("captures_total").value == 2.0

    def test_negative_merged_counter_rejected(self):
        parent = MetricsRegistry()
        state = {"counters": {"captures_total": {"help": "", "value": -1.0}}}
        with pytest.raises(ConfigurationError):
            parent.merge_state(state)

    def test_percentiles_stable_under_merge_order(self):
        """Merging A into B or B into A yields the same percentile
        summaries while the reservoirs have not churned."""
        observations_a = [float(i) for i in range(100)]
        observations_b = [float(i) for i in range(100, 200)]

        def merged(first, second):
            a = MetricsRegistry()
            for value in first:
                a.histogram("h").observe(value)
            b = MetricsRegistry()
            for value in second:
                b.histogram("h").observe(value)
            a.merge_state(b.dump_state())
            return a.histogram("h")

        ab = merged(observations_a, observations_b)
        ba = merged(observations_b, observations_a)
        for p in (50.0, 95.0, 99.0):
            assert ab.percentile(p) == ba.percentile(p)
        combined = sorted(observations_a + observations_b)
        # Nearest-rank definition: p50 of 200 samples is index 99.
        assert ab.percentile(50.0) == combined[99]
        assert ab.minimum == 0.0 and ab.maximum == 199.0
