"""Tests for wall-time attribution (repro.observability.profile)."""

import pytest

from repro.observability import trace
from repro.observability.profile import (
    AttributionRow,
    attribute_spans,
    build_report,
    render_report,
)


def _span(name, start, duration, children=(), **attrs):
    """Hand-built finished span with explicit wall-clock timing."""
    return trace.Span(
        name=name,
        attrs=dict(attrs),
        started_s=start,
        duration_s=duration,
        children=list(children),
        started_unix=start,
    )


def _forest():
    """experiment(10s) -> phase(6s) -> capture(2s, 2s); phase self=2s."""
    captures = [
        _span("capture", 1.0, 2.0),
        _span("capture", 3.0, 2.0),
    ]
    phase = _span("phase", 1.0, 6.0, children=captures)
    return [_span("experiment", 0.0, 10.0, children=[phase])]


class TestAttribution:
    def test_self_time_excludes_children(self):
        rows = {row.name: row for row in attribute_spans(_forest())}
        assert rows["experiment"].total_s == 10.0
        assert rows["experiment"].self_s == pytest.approx(4.0)
        assert rows["phase"].total_s == 6.0
        assert rows["phase"].self_s == pytest.approx(2.0)
        assert rows["capture"].count == 2
        assert rows["capture"].total_s == 4.0
        assert rows["capture"].self_s == 4.0  # leaves own their time

    def test_rows_sorted_by_self_time_descending(self):
        rows = attribute_spans(_forest())
        self_times = [row.self_s for row in rows]
        assert self_times == sorted(self_times, reverse=True)

    def test_self_time_clamped_against_clock_jitter(self):
        # A child that (spuriously) outlasts its parent must not
        # produce negative self time.
        child = _span("child", 0.0, 2.0)
        parent = _span("parent", 0.0, 1.0, children=[child])
        rows = {row.name: row for row in attribute_spans([parent])}
        assert rows["parent"].self_s == 0.0

    def test_unfinished_span_counts_as_zero(self):
        open_span = trace.Span(name="open", started_unix=0.0)
        rows = attribute_spans([open_span])
        assert rows == [
            AttributionRow(name="open", count=1, total_s=0.0, self_s=0.0)
        ]

    def test_mean_and_dict_shape(self):
        row = AttributionRow(name="capture", count=4, total_s=2.0, self_s=1.0)
        assert row.mean_s == 0.5
        payload = row.to_dict()
        assert payload == {
            "name": "capture", "count": 4,
            "total_s": 2.0, "self_s": 1.0, "mean_s": 0.5,
        }

    def test_defaults_to_collected_forest(self):
        trace.enable()
        with trace.span("root"):
            pass
        assert [row.name for row in attribute_spans()] == ["root"]


class TestReport:
    def test_report_shape_and_coverage(self):
        report = build_report(_forest(), wall_s=10.5)
        assert report["spans_total_s"] == 10.0
        assert report["wall_s"] == 10.5
        assert report["coverage"] == pytest.approx(10.0 / 10.5, abs=1e-4)
        assert {row["name"] for row in report["rows"]} == {
            "experiment", "phase", "capture",
        }
        assert "kernels" not in report

    def test_report_without_wall_omits_coverage(self):
        report = build_report(_forest())
        assert "coverage" not in report and "wall_s" not in report

    def test_self_times_partition_the_total(self):
        report = build_report(_forest())
        assert sum(r["self_s"] for r in report["rows"]) == pytest.approx(
            report["spans_total_s"]
        )

    def test_render_contains_rows_and_coverage(self):
        text = render_report(build_report(_forest(), wall_s=10.5))
        assert "span" in text and "self%" in text
        assert "experiment" in text and "capture" in text
        assert "kernels: " not in text
        assert "measured wall time" in text and "95.2%" in text

    def test_render_without_coverage_line(self):
        text = render_report(build_report(_forest()))
        assert "measured wall time" not in text
