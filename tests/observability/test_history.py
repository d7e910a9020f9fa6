"""The self-contained HTML history report."""

from __future__ import annotations

import pytest

from repro.observability.history import render_history_html, write_history_html
from repro.observability.metrics import MetricsRegistry
from repro.observability.runstore import RunRecord, RunStore
from tests.oracles.churn import churn_sample


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs.db")


def record(store, accuracy, started_unix, experiment="exp1",
           with_metrics=False):
    metrics_state = None
    if with_metrics:
        registry = MetricsRegistry()
        hist = registry.histogram("capture_latency_seconds", "lat")
        for i in range(16):
            hist.observe(0.001 * (1 + i % 5))
        # vary per run so the previous-vs-latest delta table has rows
        registry.counter("captures_total", "captures").inc(
            16 + int(started_unix)
        )
        metrics_state = registry.dump_state()
    return store.record_run(RunRecord(
        kind="sweep", experiment=experiment, started_unix=started_unix,
        outcome="ok", accuracy=accuracy,
        config={"experiment": experiment, "quick": True},
        metrics_state=metrics_state,
        manifest={"git_revision": "abc123", "git_dirty": False},
        seed_rows=[{"seed": 1, "value": accuracy}],
    ))


class TestRenderHistory:
    def test_empty_store_renders_placeholder(self, store):
        html_text = render_history_html(store)
        assert "<!DOCTYPE html>" in html_text
        assert "the run store is empty" in html_text

    def test_trend_chart_and_tables(self, store):
        record(store, 0.90, 1000.0, with_metrics=True)
        record(store, 0.95, 2000.0, with_metrics=True)
        record(store, 1.00, 3000.0, with_metrics=True)
        html_text = render_history_html(store)
        # one section per experiment, with the SVG trend
        assert "<h2>exp1</h2>" in html_text
        assert "<svg" in html_text and 'class="line"' in html_text
        # every point carries a native tooltip
        assert html_text.count("<title>") >= 6  # hit + dot per point
        # latency percentiles of the latest run, counter deltas
        assert "capture_latency_seconds" in html_text
        assert "captures_total" in html_text
        # provenance table rows
        assert "abc123" in html_text

    def test_self_contained(self, store):
        record(store, 1.0, 1000.0)
        html_text = render_history_html(store)
        assert "http://" not in html_text
        assert "https://" not in html_text  # zero external assets

    def test_dark_mode_palette_is_selected(self, store):
        record(store, 1.0, 1000.0)
        html_text = render_history_html(store)
        assert "prefers-color-scheme: dark" in html_text
        assert "#2a78d6" in html_text  # series-1 light
        assert "#3987e5" in html_text  # series-1 dark

    def test_experiment_filter(self, store):
        record(store, 1.0, 1000.0, experiment="exp1")
        record(store, 0.9, 2000.0, experiment="exp2")
        html_text = render_history_html(store, experiment="exp2")
        assert "<h2>exp2</h2>" in html_text
        assert "<h2>exp1</h2>" not in html_text

    def test_single_run_has_point_but_no_line(self, store):
        record(store, 1.0, 1000.0)
        html_text = render_history_html(store)
        assert 'class="dot"' in html_text
        assert 'class="line"' not in html_text

    def test_write_history_html(self, store, tmp_path):
        record(store, 1.0, 1000.0)
        target = write_history_html(tmp_path / "history.html", store)
        assert target.exists()
        assert "<!DOCTYPE html>" in target.read_text()


class TestSeriesSparklines:
    def _record_fleet(self, store, started_unix, with_series=True):
        from repro.observability.timeseries import FlightRecorder

        series = None
        if with_series:
            recorder = FlightRecorder(cadence_hours=1.0, max_points=64)
            recorder.record_origin(40)
            for hour in range(1, 30):
                churn_sample(recorder, float(hour), 40.0 - hour % 7,
                             float(hour % 7), float(2 * hour), 0.0)
            recorder.sample("fleet.recovery_yield", 29.0, 0.5,
                            help="recovered fraction")
            series = recorder.to_dict()
        return store.record_run(RunRecord(
            kind="fleet", experiment="fleet", started_unix=started_unix,
            outcome="ok", accuracy=0.5,
            config={"campaign": "flash", "quick": True},
            series=series,
        ))

    def test_fleet_run_renders_sparkline_cards(self, store):
        self._record_fleet(store, 1000.0)
        html_text = render_history_html(store)
        assert "simulation-time series" in html_text
        assert 'class="spark-line"' in html_text
        assert "fleet.pool_free" in html_text
        assert "fleet.recovery_yield" in html_text
        # sampling caption states cadence and reservoir bound
        assert "reservoir cap 64" in html_text

    def test_only_latest_run_gets_sparklines(self, store):
        self._record_fleet(store, 1000.0)
        self._record_fleet(store, 2000.0, with_series=False)
        html_text = render_history_html(store)
        # The newest run carries no series blob: no sparkline section.
        assert 'class="spark-line"' not in html_text

    def test_runs_without_series_render_fine(self, store):
        record(store, 1.0, 1000.0)
        html_text = render_history_html(store)
        assert "simulation-time series" not in html_text
        assert "<!DOCTYPE html>" in html_text
