"""Sim-clock time series: downsampling determinism and recorder state.

The whole point of :mod:`repro.observability.timeseries` is that the
retained points are a pure function of the offered sample stream --
never of batching, wall time or randomness.  These tests pin the
scalar and vectorised intake paths identical (including mid-batch
stride doublings), and the dump/merge contract against the metrics
registry's semantics (idempotence, adoption, union-trim).
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.observability.timeseries import (
    DEFAULT_CADENCE_HOURS,
    DEFAULT_MAX_POINTS,
    FlightRecorder,
    GaugeSeries,
    RateSeries,
    SERIES_DROPPED,
    SERIES_IN_FLIGHT,
    SERIES_LIFECYCLE,
    SERIES_POOL_FREE,
)
from tests.oracles.churn import churn_sample


def _offer_scalar(series, samples):
    for t, v in samples:
        series.observe(t, v)


class TestGaugeSeries:
    def test_retains_everything_below_cap(self):
        g = GaugeSeries("g", max_points=16)
        samples = [(float(i), float(i * i)) for i in range(10)]
        _offer_scalar(g, samples)
        assert g.points == [[t, v] for t, v in samples]
        assert g.stride == 1
        assert g.offered == 10

    def test_overflow_halves_and_doubles_stride(self):
        g = GaugeSeries("g", max_points=8)
        _offer_scalar(g, [(float(i), 0.0) for i in range(9)])
        # The ninth append overflowed: every other point dropped,
        # stride doubled, so only even offered indices survive.
        assert g.stride == 2
        assert [p[0] for p in g.points] == [0.0, 2.0, 4.0, 6.0, 8.0]
        _offer_scalar(g, [(float(i), 0.0) for i in range(9, 12)])
        assert [p[0] for p in g.points] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_last_survives_downsampling(self):
        g = GaugeSeries("g", max_points=4)
        _offer_scalar(g, [(float(i), float(-i)) for i in range(100)])
        assert g.last_t == 99.0
        assert g.last_value == -99.0
        assert len(g.points) <= 4

    def test_bounded_over_long_streams(self):
        g = GaugeSeries("g", max_points=64)
        _offer_scalar(g, [(float(i), 1.0) for i in range(100_000)])
        assert len(g.points) <= 64
        assert g.offered == 100_000

    def test_max_points_validation(self):
        with pytest.raises(ConfigurationError):
            GaugeSeries("g", max_points=1)

    def test_observe_many_misaligned_rejected(self):
        g = GaugeSeries("g")
        with pytest.raises(ConfigurationError):
            g.observe_many([0.0, 1.0], [5.0])

    def test_rate_series_kind(self):
        assert RateSeries("r").kind == "rate"
        assert GaugeSeries("g").kind == "gauge"


class TestVectorisedParity:
    """observe_many must replay observe's transitions exactly."""

    def _parity(self, n, max_points, chunks):
        ts = np.linspace(0.0, 500.0, n)
        values = np.sin(ts / 7.0) * 100.0
        scalar = GaugeSeries("s", max_points=max_points)
        for t, v in zip(ts, values):
            scalar.observe(t, v)
        vector = GaugeSeries("v", max_points=max_points)
        for lo, hi in chunks:
            vector.observe_many(ts[lo:hi], values[lo:hi])
        a, b = scalar.to_dict(), vector.to_dict()
        a.pop("help"), b.pop("help")
        assert a == b

    def test_single_batch(self):
        self._parity(500, 64, [(0, 500)])

    def test_batch_boundaries_do_not_matter(self):
        cuts = [0, 1, 7, 63, 64, 65, 200, 499, 500]
        chunks = list(zip(cuts, cuts[1:]))
        self._parity(500, 64, chunks)

    def test_mid_batch_halving(self):
        # max_points=8 forces several halvings inside one batch.
        self._parity(1000, 8, [(0, 1000)])

    def test_scalar_then_vector_then_scalar(self):
        ts = np.arange(300, dtype=np.float64)
        values = ts * 3.0
        scalar = GaugeSeries("s", max_points=32)
        mixed = GaugeSeries("m", max_points=32)
        for t, v in zip(ts, values):
            scalar.observe(t, v)
        for t, v in zip(ts[:50], values[:50]):
            mixed.observe(t, v)
        mixed.observe_many(ts[50:250], values[50:250])
        for t, v in zip(ts[250:], values[250:]):
            mixed.observe(t, v)
        assert scalar.points == mixed.points
        assert scalar.stride == mixed.stride
        assert scalar.offered == mixed.offered

    def test_empty_batch_is_a_no_op(self):
        g = GaugeSeries("g")
        g.observe(1.0, 2.0)
        g.observe_many([], [])
        assert g.points == [[1.0, 2.0]]
        assert g.offered == 1


class TestFlightRecorder:
    def test_get_or_create_and_type_conflict(self):
        rec = FlightRecorder()
        g = rec.gauge("a", help="first")
        assert rec.gauge("a") is g
        with pytest.raises(ConfigurationError):
            rec.rate("a")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(cadence_hours=0.0)
        with pytest.raises(ConfigurationError):
            FlightRecorder(max_points=1)

    def test_churn_sample_populates_core_series(self):
        rec = FlightRecorder()
        rec.record_origin(40)
        rec.churn_window([1.0], [38.0], [2.0], [4.0], [0.0])
        assert set(rec.names()) == {
            SERIES_POOL_FREE, SERIES_IN_FLIGHT,
            SERIES_LIFECYCLE, SERIES_DROPPED,
        }
        assert rec.series[SERIES_POOL_FREE].points == [[0.0, 40.0],
                                                       [1.0, 38.0]]
        assert rec.series[SERIES_LIFECYCLE].kind == "rate"

    def test_probe_evaluated_at_grid_times(self):
        rec = FlightRecorder()
        rec.add_probe("debt", lambda t: t * 2.0, help="synthetic")
        rec.record_origin(1)
        rec.churn_window([4.0, 5.0], [1.0, 1.0], [0.0, 0.0],
                         [0.0, 0.0], [0.0, 0.0])
        assert rec.series["debt"].points == [[0.0, 0.0], [4.0, 8.0],
                                             [5.0, 10.0]]

    def test_churn_window_matches_scalar_loop(self):
        ts = np.linspace(0.5, 90.0, 400)
        free = np.abs(np.cos(ts)) * 50.0
        events = np.arange(400, dtype=np.float64)
        drops = np.floor(ts / 10.0)
        scalar = FlightRecorder(max_points=64)
        for i in range(400):
            churn_sample(scalar, ts[i], free[i], 50.0 - free[i],
                         events[i], drops[i])
        vector = FlightRecorder(max_points=64)
        vector.churn_window(ts, free, 50.0 - free, events, drops)
        assert scalar.to_json() == vector.to_json()

    def test_json_round_trip(self, tmp_path):
        rec = FlightRecorder(cadence_hours=2.0, max_points=16)
        rec.record_origin(8)
        rec.sample("yield", 5.0, 0.5, help="recovered fraction")
        path = rec.save(tmp_path / "series.json")
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["cadence_hours"] == 2.0
        assert payload["series"]["yield"]["last"] == [5.0, 0.5]
        # Canonical form: re-serialising the parse is a fixed point.
        assert json.dumps(payload, sort_keys=True, indent=1) == rec.to_json()

    def test_defaults(self):
        rec = FlightRecorder()
        assert rec.cadence_hours == DEFAULT_CADENCE_HOURS
        assert rec.max_points == DEFAULT_MAX_POINTS


class TestDumpMerge:
    def test_dump_ids_are_unique_and_idempotent(self):
        src = FlightRecorder()
        src.sample("g", 1.0, 2.0)
        dump = src.dump_state()
        assert dump["dump_id"] != src.dump_state()["dump_id"]
        dst = FlightRecorder()
        assert dst.merge_state(dump) is True
        assert dst.merge_state(dump) is False
        assert dst.series["g"].offered == 1

    def test_absent_series_adopted_wholesale(self):
        src = FlightRecorder(max_points=8)
        for i in range(20):
            src.sample_rate("events", float(i), float(i))
        dst = FlightRecorder(max_points=8)
        dst.merge_state(src.dump_state())
        assert dst.series["events"].to_dict() == \
            src.series["events"].to_dict()
        assert dst.series["events"].kind == "rate"

    def test_present_series_union_trimmed(self):
        a = FlightRecorder(max_points=8)
        b = FlightRecorder(max_points=8)
        for i in range(0, 6):
            a.sample("g", float(i), 1.0)
        for i in range(6, 12):
            b.sample("g", float(i), 2.0)
        a.merge_state(b.dump_state())
        merged = a.series["g"]
        assert len(merged.points) <= 8
        times = [p[0] for p in merged.points]
        assert times == sorted(times)
        assert merged.last_t == 11.0
        assert merged.last_value == 2.0
        assert merged.offered == 12

    def test_unknown_kind_rejected(self):
        dst = FlightRecorder()
        with pytest.raises(ConfigurationError):
            dst.merge_state({"series": {"x": {"kind": "psychic"}}})
