"""Tests for time-series containers, statistics and text rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.analysis.report import render_series_chart, render_table
from repro.analysis.stats import (
    ols_slope,
    route_length_stats,
    theil_sen_slope,
)
from repro.analysis.timeseries import DeltaPsSeries, SeriesBundle, length_class


def welch_t_statistic(a, b) -> float:
    """Welch's t statistic between two samples (unequal variances)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size < 2 or b.size < 2:
        raise AnalysisError("Welch's t needs >= 2 points per sample")
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    denominator = (var_a / a.size + var_b / b.size) ** 0.5
    if denominator == 0.0:
        raise AnalysisError("both samples are constant")
    return float((a.mean() - b.mean()) / denominator)


def make_series(name="r", length=1000.0, values=(0.0, 0.5, 1.0), burn=1):
    series = DeltaPsSeries(route_name=name, nominal_delay_ps=length,
                           burn_value=burn)
    for hour, value in enumerate(values):
        series.append(float(hour), float(value))
    return series


class TestDeltaPsSeries:
    def test_centering_at_first_point(self):
        series = make_series(values=(2.0, 2.5, 3.0))
        assert list(series.centered) == [0.0, 0.5, 1.0]

    def test_out_of_order_append_rejected(self):
        series = make_series()
        with pytest.raises(AnalysisError):
            series.append(1.0, 0.0)

    def test_window_selects_inclusive_range(self):
        series = make_series(values=(0, 1, 2, 3, 4))
        window = series.window(1.0, 3.0)
        assert window.hours == [1.0, 2.0, 3.0]
        assert window.burn_value == series.burn_value

    def test_empty_series_centered_rejected(self):
        series = DeltaPsSeries(route_name="e", nominal_delay_ps=1000.0)
        with pytest.raises(AnalysisError):
            _ = series.centered


class TestSeriesBundle:
    def test_duplicate_route_rejected(self):
        bundle = SeriesBundle("b")
        bundle.add(make_series("a"))
        with pytest.raises(AnalysisError):
            bundle.add(make_series("a"))

    def test_grouping_by_length(self):
        bundle = SeriesBundle("b")
        bundle.add(make_series("a", length=1020.0))
        bundle.add(make_series("b", length=1015.0))
        bundle.add(make_series("c", length=4995.0))
        groups = bundle.by_length()
        assert {len(v) for v in groups.values()} == {1, 2}

    def test_length_class_snapping(self):
        assert length_class(1020.0) == 1000.0
        assert length_class(4995.0) == 5000.0
        assert length_class(777.0) == 777.0  # outside every band


class TestStats:
    def test_route_length_stats_columns(self):
        stats = route_length_stats([100.0, 200.0, 300.0, 400.0])
        assert stats.mean == pytest.approx(250.0)
        assert stats.minimum == 100.0
        assert stats.maximum == 400.0
        assert stats.p50 == pytest.approx(250.0)
        assert stats.count == 4

    def test_single_value_stats(self):
        stats = route_length_stats([42.0])
        assert stats.sd == 0.0
        assert stats.mean == 42.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            route_length_stats([])

    def test_ols_slope_exact_on_line(self):
        x = np.arange(10.0)
        assert ols_slope(x, 3.0 * x + 1.0) == pytest.approx(3.0)

    def test_theil_sen_robust_to_outlier(self):
        x = np.arange(20.0)
        y = 2.0 * x
        y[7] = 1000.0  # gross outlier
        assert theil_sen_slope(x, y) == pytest.approx(2.0, abs=0.2)
        assert abs(ols_slope(x, y) - 2.0) > 1.0

    def test_welch_t_detects_separation(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 50)
        b = rng.normal(3.0, 1.0, 50)
        assert welch_t_statistic(b, a) > 5.0

    @given(
        slope=st.floats(min_value=-5.0, max_value=5.0),
        noise_seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_theil_sen_near_truth_property(self, slope, noise_seed):
        rng = np.random.default_rng(noise_seed)
        x = np.arange(30.0)
        y = slope * x + rng.normal(0.0, 0.1, 30)
        assert theil_sen_slope(x, y) == pytest.approx(slope, abs=0.1)


class TestReport:
    def test_table_renders_all_rows(self):
        text = render_table(["a", "b"], [[1, 2.5], [3, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5

    def test_table_width_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            render_table(["a"], [[1, 2]])

    def test_chart_contains_both_glyphs(self):
        up = make_series("u", values=np.linspace(0, 2, 30), burn=1)
        down = make_series("d", values=np.linspace(0, -2, 30), burn=0)
        chart = render_series_chart([up, down], smooth=False)
        assert "#" in chart and "o" in chart

    def test_chart_marks_stress_change(self):
        series = make_series(values=np.linspace(0, 1, 30))
        chart = render_series_chart([series], stress_change_hour=15.0,
                                    smooth=False)
        assert "|" in chart

    def test_empty_chart_rejected(self):
        with pytest.raises(AnalysisError):
            render_series_chart([])
