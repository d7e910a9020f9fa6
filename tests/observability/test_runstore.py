"""The run store: recording, querying, resolving and pruning runs."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.errors import ConfigurationError, PersistenceError
from repro.observability.metrics import MetricsRegistry
from repro.observability.runstore import (
    RUNSTORE_SCHEMA,
    RunRecord,
    RunStore,
    config_hash,
    fault_plan_hash,
    resolve_runstore_path,
    summarise_route_status,
)
from tests.oracles.churn import churn_sample


def make_record(**overrides) -> RunRecord:
    base = dict(
        kind="experiment",
        experiment="exp1",
        started_unix=1_000.0,
        outcome="ok",
        wall_seconds=1.5,
        exit_code=0,
        accuracy=0.95,
        seed=7,
        config={"seed": 7, "burn_hours": 40},
        argv=["exp1", "--quick"],
    )
    base.update(overrides)
    return RunRecord(**base)


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "runs.db")


class TestRecordAndRead:
    def test_record_returns_id_and_lists(self, store):
        run_id = store.record_run(make_record())
        runs = store.list_runs()
        assert len(runs) == 1
        assert runs[0]["run_id"] == run_id
        assert runs[0]["accuracy"] == pytest.approx(0.95)
        assert runs[0]["config_hash"] == config_hash(
            {"seed": 7, "burn_hours": 40}
        )

    def test_get_run_parses_json_blobs(self, store):
        run_id = store.record_run(make_record(
            route_status={"r1": "ok", "r2": "ok", "r3": "degraded"},
            extra={"note": "hello"},
        ))
        run = store.get_run(run_id)
        assert run["config"] == {"seed": 7, "burn_hours": 40}
        assert run["route_status"] == {"ok": 2, "degraded": 1}
        assert run["extra"] == {"note": "hello"}
        assert run["argv"] == ["exp1", "--quick"]

    def test_seed_rows_round_trip(self, store):
        rows = [
            {"seed": 2, "value": 0.9, "elapsed_s": 1.0, "shard": 0,
             "worker_pid": 11, "resumed": False},
            {"seed": 1, "value": 1.0, "elapsed_s": 2.0, "shard": 1,
             "worker_pid": 12, "resumed": True},
        ]
        run_id = store.record_run(make_record(kind="sweep", seed_rows=rows))
        run = store.get_run(run_id)
        assert [r["seed"] for r in run["seed_results"]] == [1, 2]
        assert store.seed_values(run_id) == [1.0, 0.9]
        assert run["seed_results"][0]["resumed"] == 1

    def test_duplicate_seed_keeps_one_row(self, store):
        # (run_id, seed) is the primary key: a seed that is journalled
        # and then (wrongly) re-emitted records exactly one row.
        rows = [
            {"seed": 1, "value": 0.5, "resumed": True},
            {"seed": 1, "value": 0.7, "resumed": False},
        ]
        run_id = store.record_run(make_record(kind="sweep", seed_rows=rows))
        assert store.seed_values(run_id) == [0.7]

    def test_metrics_state_is_lossless(self, store):
        registry = MetricsRegistry()
        registry.counter("captures_total", "captures").inc(5)
        hist = registry.histogram("capture_latency_seconds", "latency")
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        run_id = store.record_run(
            make_record(metrics_state=registry.dump_state())
        )
        replayed = MetricsRegistry()
        replayed.merge_state(store.get_run(run_id)["metrics"])
        snap = replayed.snapshot()
        assert snap["counters"]["captures_total"] == 5
        assert snap["histograms"]["capture_latency_seconds"]["count"] == 3

    def test_git_fields_come_from_manifest(self, store):
        run_id = store.record_run(make_record(
            manifest={"git_revision": "abc123def456", "git_dirty": True,
                      "kernels": {"capture": "batched", "aging": "array"}},
        ))
        run = store.get_run(run_id)
        assert run["git_revision"] == "abc123def456"
        assert run["git_dirty"] == 1
        assert run["kernels"] == {"capture": "batched", "aging": "array"}


class TestSeriesBlob:
    def test_series_round_trips_losslessly(self, store):
        from repro.observability.timeseries import FlightRecorder

        recorder = FlightRecorder(cadence_hours=2.0, max_points=16)
        recorder.record_origin(32)
        churn_sample(recorder, 2.0, 30.0, 2.0, 4.0, 0.0)
        recorder.sample("fleet.recovery_yield", 5.0, 0.75)
        run_id = store.record_run(make_record(
            kind="fleet", series=recorder.to_dict()
        ))
        run = store.get_run(run_id)
        assert run["series"] == recorder.to_dict()
        # The stored blob replays into a fresh recorder (shard merge).
        replayed = FlightRecorder(cadence_hours=2.0, max_points=16)
        replayed.merge_state(run["series"])
        assert replayed.to_json() == recorder.to_json()

    def test_series_defaults_to_none(self, store):
        run_id = store.record_run(make_record())
        assert store.get_run(run_id)["series"] is None

    def test_v1_store_migrates_in_place(self, tmp_path):
        # Build a genuine v1 database: current schema minus the
        # series_json column, stamped with user_version=1.
        path = tmp_path / "runs.db"
        store = RunStore(path)
        store.record_run(make_record())
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE runs DROP COLUMN series_json")
        conn.execute("PRAGMA user_version=1")
        conn.close()

        migrated = RunStore(path)
        runs = migrated.list_runs()
        assert len(runs) == 1  # old rows stay readable
        assert migrated.get_run(runs[0]["run_id"])["series"] is None
        new_id = migrated.record_run(make_record(
            kind="fleet", series={"version": 1, "series": {}}
        ))
        assert migrated.get_run(new_id)["series"] == {
            "version": 1, "series": {},
        }
        migrated.close()
        conn = sqlite3.connect(path)
        assert conn.execute(
            "PRAGMA user_version"
        ).fetchone()[0] == RUNSTORE_SCHEMA
        conn.close()


class TestResolve:
    def test_latest_and_latest_n(self, store):
        ids = [
            store.record_run(make_record(started_unix=1000.0 + i))
            for i in range(3)
        ]
        assert store.resolve("latest") == ids[2]
        assert store.resolve("latest~1") == ids[1]
        assert store.resolve("latest~2") == ids[0]

    def test_latest_filters_by_experiment(self, store):
        a = store.record_run(make_record(started_unix=1000.0))
        store.record_run(make_record(experiment="exp2",
                                     started_unix=2000.0))
        assert store.resolve("latest", experiment="exp1") == a

    def test_prefix_resolution(self, store):
        run_id = store.record_run(make_record())
        assert store.resolve(run_id[:6]) == run_id

    def test_unknown_and_overreach_raise(self, store):
        store.record_run(make_record())
        with pytest.raises(ConfigurationError):
            store.resolve("zzzzzz")
        with pytest.raises(ConfigurationError):
            store.resolve("latest~5")
        with pytest.raises(ConfigurationError):
            store.resolve("latest~x")


class TestListFilters:
    def test_kind_experiment_and_limit(self, store):
        store.record_run(make_record(kind="sweep", started_unix=1.0))
        store.record_run(make_record(experiment="exp2", started_unix=2.0))
        store.record_run(make_record(started_unix=3.0))
        assert len(store.list_runs(kind="sweep")) == 1
        assert len(store.list_runs(experiment="exp1")) == 2
        assert len(store.list_runs(limit=1)) == 1
        # newest first
        assert store.list_runs()[0]["started_unix"] == 3.0

    def test_config_hash_groups_series(self, store):
        store.record_run(make_record(config={"seed": 1, "burn_hours": 40}))
        store.record_run(make_record(config={"seed": 2, "burn_hours": 40}))
        store.record_run(make_record(config={"seed": 1, "burn_hours": 80}))
        series_hash = config_hash({"burn_hours": 40})
        assert len(store.list_runs(config_hash=series_hash)) == 2


class TestGcAndExport:
    def test_gc_keep(self, store):
        for i in range(5):
            store.record_run(make_record(
                started_unix=1000.0 + i,
                seed_rows=[{"seed": 1, "value": 1.0}],
            ))
        removed = store.gc(keep=2)
        assert removed == 3
        assert store.count_runs() == 2
        # seed rows of pruned runs go with them
        conn = sqlite3.connect(store.path)
        orphans = conn.execute(
            "SELECT COUNT(*) FROM seed_results WHERE run_id NOT IN "
            "(SELECT run_id FROM runs)"
        ).fetchone()[0]
        conn.close()
        assert orphans == 0

    def test_gc_before_unix(self, store):
        store.record_run(make_record(started_unix=100.0))
        store.record_run(make_record(started_unix=2000.0))
        assert store.gc(before_unix=1000.0) == 1
        assert store.count_runs() == 1

    def test_export_runs_is_json_ready(self, store):
        store.record_run(make_record())
        document = store.export_runs()
        text = json.dumps(document)
        assert json.loads(text)["runs"][0]["config"] == {
            "seed": 7, "burn_hours": 40,
        }


class TestSchemaAndPath:
    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "runs.db"
        store = RunStore(path)
        store.record_run(make_record())
        store.close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version={RUNSTORE_SCHEMA + 1}")
        conn.close()
        with pytest.raises(PersistenceError):
            RunStore(path).list_runs()

    def test_wal_mode(self, store):
        store.record_run(make_record())
        mode = store._connect().execute(
            "PRAGMA journal_mode"
        ).fetchone()[0]
        assert mode == "wal"

    def test_resolve_runstore_path_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNSTORE", raising=False)
        assert str(resolve_runstore_path()) == ".repro/runs.db"
        monkeypatch.setenv("REPRO_RUNSTORE", "/tmp/envstore.db")
        assert str(resolve_runstore_path()) == "/tmp/envstore.db"
        assert str(resolve_runstore_path("/tmp/cli.db")) == "/tmp/cli.db"
        assert resolve_runstore_path("off") is None
        monkeypatch.setenv("REPRO_RUNSTORE", "off")
        assert resolve_runstore_path() is None
        monkeypatch.setenv("REPRO_RUNSTORE", "0")
        assert resolve_runstore_path() is None

    def test_concurrent_writers(self, tmp_path):
        path = tmp_path / "runs.db"
        a, b = RunStore(path), RunStore(path)
        a.record_run(make_record(started_unix=1.0))
        b.record_run(make_record(started_unix=2.0))
        a.record_run(make_record(started_unix=3.0))
        assert a.count_runs() == 3
        assert b.count_runs() == 3


class TestHashes:
    def test_config_hash_excludes_seed(self):
        assert config_hash({"seed": 1, "x": 2}) == config_hash(
            {"seed": 9, "x": 2}
        )
        assert config_hash({"x": 2}) != config_hash({"x": 3})
        assert config_hash(None) is None

    def test_fault_plan_hash(self):
        assert fault_plan_hash({"a": 1}) == fault_plan_hash({"a": 1})
        assert fault_plan_hash({"a": 1}) != fault_plan_hash({"a": 2})
        assert fault_plan_hash(None) is None

    def test_summarise_route_status(self):
        assert summarise_route_status(
            {"r1": "ok", "r2": "ok", "r3": "degraded"}
        ) == {"ok": 2, "degraded": 1}
        assert summarise_route_status(None) is None
        assert summarise_route_status({}) is None
