"""Tests for bit-recovery classifiers and scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.analysis.timeseries import DeltaPsSeries
from repro.core.classify import (
    BurnTrendClassifier,
    MatchedFilterClassifier,
    NullReferencedSlopeClassifier,
    RecoverySlopeClassifier,
    two_means_split,
)
from repro.core.metrics import grouped_accuracy, score_recovery


def cluster_separation(features) -> float:
    """Bimodality score: inter-cluster gap over pooled in-cluster spread
    around :func:`two_means_split`'s threshold."""
    data = np.asarray(features, dtype=float).ravel()
    if data.size < 2:
        raise AnalysisError("separation needs >= 2 features")
    threshold = two_means_split(data)
    lower = data[data <= threshold]
    upper = data[data > threshold]
    if lower.size == 0 or upper.size == 0:
        return 0.0
    pooled = float(np.sqrt((lower.var() * lower.size + upper.var() * upper.size)
                           / data.size))
    gap = float(upper.mean() - lower.mean())
    return gap / max(pooled, 1e-9)


def synthetic_series(name, drift, length=5000.0, points=40, noise=0.05,
                     seed=1, burn=None, transient=False):
    """A centred series with linear drift or a recovery transient."""
    rng = np.random.default_rng(seed)
    series = DeltaPsSeries(route_name=name, nominal_delay_ps=length,
                           burn_value=burn)
    for hour in range(points):
        if transient:
            value = drift * (1.0 - np.exp(-((hour / 32.0) ** 0.55)))
        else:
            value = drift * hour / points
        series.append(float(hour), value + float(rng.normal(0.0, noise)))
    return series


class TestTwoMeansSplit:
    def test_separates_two_clusters(self):
        values = [0.0, 0.1, -0.05, 2.0, 2.1, 1.95]
        threshold = two_means_split(values)
        assert 0.2 < threshold < 1.9

    def test_single_point_cluster(self):
        threshold = two_means_split([0.0, 0.0, 0.0, 5.0])
        assert 0.0 < threshold < 5.0

    def test_degenerate_identical_values(self):
        assert two_means_split([1.0, 1.0, 1.0]) == 1.0

    def test_too_few_values_rejected(self):
        with pytest.raises(AnalysisError):
            two_means_split([1.0])

    @given(
        gap=st.floats(min_value=1.0, max_value=10.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_threshold_lands_between_clusters(self, gap, seed):
        rng = np.random.default_rng(seed)
        low = rng.normal(0.0, 0.1, 10)
        high = rng.normal(gap, 0.1, 10)
        threshold = two_means_split(np.concatenate([low, high]))
        assert low.max() < threshold < high.min()


class TestBurnTrendClassifier:
    def test_classifies_clean_drifts(self):
        classifier = BurnTrendClassifier()
        up = synthetic_series("u", drift=2.0, seed=2)
        down = synthetic_series("d", drift=-2.0, seed=3)
        assert classifier.classify(up) == 1
        assert classifier.classify(down) == 0

    def test_classify_many(self):
        classifier = BurnTrendClassifier()
        series = [synthetic_series(f"s{i}", drift=(1 if i % 2 else -1), seed=i)
                  for i in range(6)]
        bits = classifier.classify_many(series)
        assert bits == {f"s{i}": (1 if i % 2 else 0) for i in range(6)}

    def test_too_short_series_rejected(self):
        classifier = BurnTrendClassifier()
        short = DeltaPsSeries(route_name="x", nominal_delay_ps=1000.0)
        short.append(0.0, 0.0)
        with pytest.raises(AnalysisError):
            classifier.classify(short)


class TestRecoverySlopeClassifier:
    def test_separates_recovery_from_flat(self):
        classifier = RecoverySlopeClassifier()
        series = []
        for i in range(4):
            series.append(synthetic_series(
                f"rec{i}", drift=-2.0, transient=True, seed=i, points=25))
        for i in range(4):
            series.append(synthetic_series(
                f"flat{i}", drift=0.0, seed=10 + i, points=25))
        bits = classifier.classify_many(series, conditioned_to=0)
        assert all(bits[f"rec{i}"] == 1 for i in range(4))
        assert all(bits[f"flat{i}"] == 0 for i in range(4))

    def test_conditioned_to_one_mirrors(self):
        classifier = RecoverySlopeClassifier()
        series = []
        for i in range(4):
            series.append(synthetic_series(
                f"rec{i}", drift=2.0, transient=True, seed=i, points=25))
        for i in range(4):
            series.append(synthetic_series(
                f"flat{i}", drift=0.0, seed=10 + i, points=25))
        bits = classifier.classify_many(series, conditioned_to=1)
        assert all(bits[f"rec{i}"] == 0 for i in range(4))
        assert all(bits[f"flat{i}"] == 1 for i in range(4))

    def test_invalid_conditioned_to(self):
        with pytest.raises(AnalysisError):
            RecoverySlopeClassifier().classify_many([], conditioned_to=2)


class TestNullReferencedClassifier:
    def _series_pair(self, victim_transient):
        victim = [
            synthetic_series("a", drift=victim_transient[0], transient=True,
                             seed=1, points=25),
            synthetic_series("b", drift=victim_transient[1], transient=True,
                             seed=2, points=25),
        ]
        null = [
            synthetic_series("a", drift=0.0, seed=11, points=25),
            synthetic_series("b", drift=0.0, seed=12, points=25),
            synthetic_series("a", drift=0.0, seed=13, points=25),
            synthetic_series("b", drift=0.0, seed=14, points=25),
        ]
        return victim, null

    def test_detects_transient_against_null(self):
        victim, null = self._series_pair((-2.0, 0.0))
        bits = NullReferencedSlopeClassifier().classify_many(
            victim, null, conditioned_to=0
        )
        assert bits == {"a": 1, "b": 0}

    def test_missing_null_route_rejected(self):
        victim, null = self._series_pair((-2.0, 0.0))
        with pytest.raises(AnalysisError):
            NullReferencedSlopeClassifier().classify_many(
                victim, null[:1], conditioned_to=0
            )

    def test_empty_null_rejected(self):
        victim, _ = self._series_pair((-2.0, 0.0))
        with pytest.raises(AnalysisError):
            NullReferencedSlopeClassifier().classify_many(victim, [])


class TestMatchedFilter:
    def test_projects_recovery_shape(self):
        classifier = MatchedFilterClassifier()
        rec = synthetic_series("r", drift=-2.0, transient=True, seed=5,
                               points=25)
        flat = synthetic_series("f", drift=0.0, seed=6, points=25)
        assert classifier.feature(rec) > classifier.feature(flat)

    def test_classify_many(self):
        classifier = MatchedFilterClassifier()
        series = [
            synthetic_series(f"r{i}", drift=-2.0, transient=True, seed=i,
                             points=25) for i in range(3)
        ] + [
            synthetic_series(f"f{i}", drift=0.0, seed=20 + i, points=25)
            for i in range(3)
        ]
        bits = classifier.classify_many(series, conditioned_to=0)
        assert all(bits[f"r{i}"] == 1 for i in range(3))
        assert all(bits[f"f{i}"] == 0 for i in range(3))


class TestClusterSeparation:
    def test_bimodal_scores_higher_than_unimodal(self):
        rng = np.random.default_rng(7)
        bimodal = np.concatenate([rng.normal(0, 0.1, 10),
                                  rng.normal(3, 0.1, 10)])
        unimodal = rng.normal(0, 0.5, 20)
        assert cluster_separation(bimodal) > cluster_separation(unimodal)


class TestMetrics:
    def test_score_recovery(self):
        score = score_recovery({"a": 1, "b": 0}, {"a": 1, "b": 1})
        assert score.correct_bits == 1
        assert score.accuracy == 0.5
        assert score.bit_error_rate == 0.5

    def test_missing_truth_rejected(self):
        with pytest.raises(AnalysisError):
            score_recovery({"a": 1}, {"b": 1})

    def test_empty_recovery_rejected(self):
        with pytest.raises(AnalysisError):
            score_recovery({}, {})

    def test_grouped_accuracy(self):
        score = score_recovery(
            {"a": 1, "b": 0, "c": 1}, {"a": 1, "b": 1, "c": 1}
        )
        groups = {"a": 1000.0, "b": 1000.0, "c": 5000.0}
        accuracy = grouped_accuracy(score, groups)
        assert accuracy == {1000.0: 0.5, 5000.0: 1.0}

    def test_grouped_accuracy_missing_group_rejected(self):
        score = score_recovery({"a": 1}, {"a": 1})
        with pytest.raises(AnalysisError):
            grouped_accuracy(score, {})
