"""The run store: a durable, queryable history of every invocation.

Pentimento's evaluation is longitudinal -- recovery accuracy is a
statistic over many seeded rentals, and a perf or mitigation claim only
means something against a recorded baseline.  This module keeps that
record: a stdlib-``sqlite3`` database (WAL journal, atomic transactions,
safe under concurrent writers) at ``.repro/runs.db`` by default, with
every experiment, sweep, chaos storm, profile and bench invocation
landing as one row plus its per-seed results.

Each run row stores the full provenance needed to trend and gate
against it months later:

* the :class:`~repro.observability.manifest.RunManifest` (version,
  interpreter, platform, argv, git revision + dirty flag);
* a canonical hash of the experiment config (so runs group into
  comparable (experiment, config-hash) series);
* the fault-plan hash for chaos runs;
* the metrics registry's lossless ``dump_state()`` (reservoirs
  included, so cross-run latency comparisons are statistical, not just
  point deltas);
* a route-status summary, the outcome and the wall time.

Per-seed rows carry shard/worker attribution under ``--jobs N`` and an
explicit ``resumed`` flag for seeds replayed from a checkpoint journal;
``(run_id, seed)`` is the primary key, so a killed-and-resumed sweep
records exactly one row per seed.

Selection: the ``REPRO_RUNSTORE`` environment variable or the CLI's
``--runstore PATH`` override the default path; the value ``off`` (or
``0``, or empty) disables recording entirely.  The CLI records every
eligible invocation automatically -- see ``repro runs list|show|
compare|export|gc``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.errors import ConfigurationError, PersistenceError

__all__ = [
    "DEFAULT_RUNSTORE_PATH",
    "RUNSTORE_ENV",
    "RUNSTORE_SCHEMA",
    "RunRecord",
    "RunStore",
    "resolve_runstore_path",
    "config_hash",
    "fault_plan_hash",
    "summarise_route_status",
]

PathLike = Union[str, Path]

#: Where the run database lives unless overridden.
DEFAULT_RUNSTORE_PATH = ".repro/runs.db"

#: Environment override: a path, or ``off``/``0``/empty to disable.
RUNSTORE_ENV = "REPRO_RUNSTORE"

#: Bumped on any incompatible table change; stored in ``PRAGMA
#: user_version`` and checked on open.  v2 added ``series_json`` (the
#: fleet flight recorder's sim-time series blob); v1 stores migrate in
#: place on open.
RUNSTORE_SCHEMA = 2

_CREATE_TABLES = """
CREATE TABLE IF NOT EXISTS runs (
    run_id          TEXT PRIMARY KEY,
    kind            TEXT NOT NULL,
    experiment      TEXT,
    started_unix    REAL NOT NULL,
    wall_seconds    REAL,
    outcome         TEXT NOT NULL,
    exit_code       INTEGER,
    accuracy        REAL,
    seed            INTEGER,
    jobs            INTEGER,
    config_hash     TEXT,
    config_json     TEXT,
    kernels_json    TEXT,
    fault_plan_hash TEXT,
    git_revision    TEXT,
    git_dirty       INTEGER,
    argv_json       TEXT,
    manifest_json   TEXT,
    metrics_json    TEXT,
    route_status_json TEXT,
    extra_json      TEXT,
    series_json     TEXT
);
CREATE TABLE IF NOT EXISTS seed_results (
    run_id     TEXT NOT NULL,
    seed       INTEGER NOT NULL,
    value      REAL,
    elapsed_s  REAL,
    shard      INTEGER,
    worker_pid INTEGER,
    resumed    INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, seed)
);
CREATE INDEX IF NOT EXISTS idx_runs_series
    ON runs (experiment, config_hash, started_unix);
CREATE INDEX IF NOT EXISTS idx_runs_started
    ON runs (started_unix);
"""


def resolve_runstore_path(
    cli_path: Optional[str] = None,
) -> Optional[Path]:
    """Where recording should go, or ``None`` when disabled.

    Precedence: explicit CLI value, then :data:`RUNSTORE_ENV`, then
    :data:`DEFAULT_RUNSTORE_PATH`.  At either level the values ``off``,
    ``0`` and the empty string disable recording.
    """
    value = cli_path if cli_path is not None else os.environ.get(RUNSTORE_ENV)
    if value is None:
        value = DEFAULT_RUNSTORE_PATH
    if str(value).strip().lower() in ("", "off", "0", "none"):
        return None
    return Path(value)


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def config_hash(config: Optional[dict]) -> Optional[str]:
    """A short stable hash of a config dict (canonical-JSON sha256).

    Runs with equal hashes are directly comparable: same experiment
    parameters, differing only in code version, seed set or machine.
    ``seed`` is excluded -- a seed sweep of one config is one series.
    """
    if config is None:
        return None
    scrubbed = {k: v for k, v in dict(config).items() if k != "seed"}
    digest = hashlib.sha256(_canonical_json(scrubbed).encode())
    return digest.hexdigest()[:12]


def fault_plan_hash(plan: Optional[dict]) -> Optional[str]:
    """A short stable hash of a serialised fault plan."""
    if plan is None:
        return None
    digest = hashlib.sha256(_canonical_json(dict(plan)).encode())
    return digest.hexdigest()[:12]


def summarise_route_status(route_status: Optional[dict]) -> Optional[dict]:
    """Collapse a per-route status dict to ``{status: count}``."""
    if not route_status:
        return None
    summary: dict[str, int] = {}
    for status in route_status.values():
        summary[status] = summary.get(status, 0) + 1
    return summary


@dataclass(frozen=True)
class RunRecord:
    """Everything one invocation stores (see :meth:`RunStore.record_run`)."""

    kind: str
    started_unix: float
    outcome: str
    experiment: Optional[str] = None
    wall_seconds: Optional[float] = None
    exit_code: Optional[int] = None
    accuracy: Optional[float] = None
    seed: Optional[int] = None
    jobs: Optional[int] = None
    config: Optional[dict] = None
    kernels: Optional[dict] = None
    fault_plan: Optional[dict] = None
    manifest: Optional[dict] = None
    metrics_state: Optional[dict] = None
    route_status: Optional[dict] = None
    argv: Sequence[str] = ()
    seed_rows: Sequence[dict] = ()
    extra: dict = field(default_factory=dict)
    series: Optional[dict] = None
    run_id: Optional[str] = None


class RunStore:
    """One run database: open lazily, write atomically.

    Every write happens in its own transaction with a generous busy
    timeout, so concurrent recorders (parallel CI jobs, a sweep and a
    bench) serialise instead of corrupting; WAL mode keeps readers
    unblocked while a writer commits.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = None

    # -- lifecycle ----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is not None:
            return self._conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            conn = sqlite3.connect(self.path, timeout=30.0)
        except sqlite3.Error as exc:
            raise PersistenceError(
                f"cannot open run store {self.path}: {exc}"
            ) from exc
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA busy_timeout=30000")
        conn.execute("PRAGMA synchronous=NORMAL")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            with conn:
                conn.executescript(_CREATE_TABLES)
                conn.execute(f"PRAGMA user_version={RUNSTORE_SCHEMA}")
        elif version == 1:
            # v1 -> v2: the sim-time series blob column.  Purely
            # additive, so old rows stay readable (series = None).
            with conn:
                conn.execute("ALTER TABLE runs ADD COLUMN series_json TEXT")
                conn.execute(f"PRAGMA user_version={RUNSTORE_SCHEMA}")
        elif version != RUNSTORE_SCHEMA:
            conn.close()
            raise PersistenceError(
                f"run store {self.path} has schema {version}; this build "
                f"reads {RUNSTORE_SCHEMA} (move the file aside or gc it)"
            )
        self._conn = conn
        return conn

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunStore":
        self._connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing ------------------------------------------------------

    def record_run(self, record: RunRecord) -> str:
        """Insert one run (and its seed rows) atomically; returns its id."""
        conn = self._connect()
        run_id = record.run_id or uuid.uuid4().hex[:12]
        manifest = record.manifest or {}
        kernels = record.kernels
        if kernels is None:
            kernels = manifest.get("kernels")
        with conn:
            conn.execute(
                """
                INSERT INTO runs (
                    run_id, kind, experiment, started_unix, wall_seconds,
                    outcome, exit_code, accuracy, seed, jobs,
                    config_hash, config_json, kernels_json,
                    fault_plan_hash, git_revision, git_dirty, argv_json,
                    manifest_json, metrics_json, route_status_json,
                    extra_json, series_json
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?,
                          ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    run_id,
                    record.kind,
                    record.experiment,
                    float(record.started_unix),
                    record.wall_seconds,
                    record.outcome,
                    record.exit_code,
                    record.accuracy,
                    record.seed,
                    record.jobs,
                    config_hash(record.config),
                    _dump_or_none(record.config),
                    _dump_or_none(kernels),
                    fault_plan_hash(record.fault_plan),
                    manifest.get("git_revision"),
                    _as_int_or_none(manifest.get("git_dirty")),
                    _dump_or_none(list(record.argv) or None),
                    _dump_or_none(record.manifest),
                    _dump_or_none(record.metrics_state),
                    _dump_or_none(
                        summarise_route_status(record.route_status)
                    ),
                    _dump_or_none(record.extra or None),
                    _dump_or_none(record.series),
                ),
            )
            conn.executemany(
                """
                INSERT OR REPLACE INTO seed_results (
                    run_id, seed, value, elapsed_s, shard, worker_pid,
                    resumed
                ) VALUES (?, ?, ?, ?, ?, ?, ?)
                """,
                [
                    (
                        run_id,
                        int(row["seed"]),
                        row.get("value"),
                        row.get("elapsed_s"),
                        row.get("shard"),
                        row.get("worker_pid"),
                        int(bool(row.get("resumed", False))),
                    )
                    for row in record.seed_rows
                ],
            )
        return run_id

    # -- reading ------------------------------------------------------

    _SUMMARY_COLUMNS = (
        "run_id, kind, experiment, started_unix, wall_seconds, outcome, "
        "exit_code, accuracy, seed, jobs, config_hash, fault_plan_hash, "
        "git_revision, git_dirty"
    )

    def list_runs(
        self,
        kind: Optional[str] = None,
        experiment: Optional[str] = None,
        config_hash: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Run summaries, newest first."""
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if experiment is not None:
            clauses.append("experiment = ?")
            params.append(experiment)
        if config_hash is not None:
            clauses.append("config_hash = ?")
            params.append(config_hash)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = (
            f"SELECT {self._SUMMARY_COLUMNS} FROM runs {where} "
            f"ORDER BY started_unix DESC, run_id DESC"
        )
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        rows = self._connect().execute(sql, params).fetchall()
        return [dict(row) for row in rows]

    def resolve(self, ref: str, experiment: Optional[str] = None) -> str:
        """A run id from a reference: id prefix, ``latest`` or ``latest~N``.

        ``latest`` picks the newest run (optionally filtered to
        ``experiment``); ``latest~N`` the N-th newest before it.
        Ambiguous or unknown references raise
        :class:`~repro.errors.ConfigurationError`.
        """
        ref = ref.strip()
        if ref.startswith("latest"):
            back = 0
            if ref != "latest":
                try:
                    back = int(ref.split("~", 1)[1])
                except (IndexError, ValueError):
                    raise ConfigurationError(
                        f"bad run reference {ref!r}; use latest or latest~N"
                    ) from None
            runs = self.list_runs(experiment=experiment, limit=back + 1)
            if len(runs) <= back:
                raise ConfigurationError(
                    f"run store has {len(runs)} matching run(s); "
                    f"cannot resolve {ref!r}"
                )
            return runs[back]["run_id"]
        rows = self._connect().execute(
            "SELECT run_id FROM runs WHERE run_id LIKE ? "
            "ORDER BY started_unix DESC LIMIT 3",
            (ref + "%",),
        ).fetchall()
        if not rows:
            raise ConfigurationError(
                f"no run matches {ref!r} in {self.path}"
            )
        if len(rows) > 1:
            matches = ", ".join(row["run_id"] for row in rows)
            raise ConfigurationError(
                f"run reference {ref!r} is ambiguous ({matches}, ...)"
            )
        return rows[0]["run_id"]

    def get_run(self, run_id: str) -> dict:
        """One full run: every stored column, JSON blobs parsed, seed rows
        attached under ``"seed_results"``."""
        conn = self._connect()
        row = conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise ConfigurationError(
                f"no run {run_id!r} in {self.path}"
            )
        run = dict(row)
        for column in ("config_json", "kernels_json", "argv_json",
                       "manifest_json", "metrics_json",
                       "route_status_json", "extra_json", "series_json"):
            run[column[: -len("_json")]] = _load_or_none(run.pop(column))
        run["seed_results"] = [
            dict(seed_row)
            for seed_row in conn.execute(
                "SELECT seed, value, elapsed_s, shard, worker_pid, resumed "
                "FROM seed_results WHERE run_id = ? ORDER BY seed",
                (run_id,),
            ).fetchall()
        ]
        return run

    def seed_values(self, run_id: str) -> list[float]:
        """The per-seed metric values of one run, in seed order."""
        rows = self._connect().execute(
            "SELECT value FROM seed_results WHERE run_id = ? "
            "AND value IS NOT NULL ORDER BY seed",
            (run_id,),
        ).fetchall()
        return [float(row["value"]) for row in rows]

    def count_runs(self) -> int:
        """Total runs stored."""
        return int(
            self._connect().execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        )

    # -- maintenance --------------------------------------------------

    def gc(
        self,
        keep: Optional[int] = None,
        before_unix: Optional[float] = None,
        vacuum: bool = False,
    ) -> int:
        """Delete old runs; returns how many were removed.

        ``keep`` retains the N newest runs; ``before_unix`` drops runs
        started before the timestamp.  Both may combine (a run is
        deleted if either rule selects it).  ``vacuum`` compacts the
        file afterwards.
        """
        if keep is None and before_unix is None:
            raise ConfigurationError(
                "gc needs a retention rule: keep=N and/or before_unix=T"
            )
        if keep is not None and keep < 0:
            raise ConfigurationError(f"keep must be >= 0, got {keep}")
        conn = self._connect()
        doomed: set[str] = set()
        if keep is not None:
            rows = conn.execute(
                "SELECT run_id FROM runs "
                "ORDER BY started_unix DESC, run_id DESC "
                "LIMIT -1 OFFSET ?",
                (int(keep),),
            ).fetchall()
            doomed.update(row["run_id"] for row in rows)
        if before_unix is not None:
            rows = conn.execute(
                "SELECT run_id FROM runs WHERE started_unix < ?",
                (float(before_unix),),
            ).fetchall()
            doomed.update(row["run_id"] for row in rows)
        with conn:
            conn.executemany(
                "DELETE FROM seed_results WHERE run_id = ?",
                [(run_id,) for run_id in doomed],
            )
            conn.executemany(
                "DELETE FROM runs WHERE run_id = ?",
                [(run_id,) for run_id in doomed],
            )
        if vacuum:
            conn.execute("VACUUM")
        return len(doomed)

    def export_runs(
        self,
        kind: Optional[str] = None,
        experiment: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """The selected runs as one JSON-ready document (full rows)."""
        summaries = self.list_runs(kind=kind, experiment=experiment,
                                   limit=limit)
        return {
            "runstore_schema": RUNSTORE_SCHEMA,
            "path": str(self.path),
            "runs": [self.get_run(row["run_id"]) for row in summaries],
        }


def _dump_or_none(payload) -> Optional[str]:
    if payload is None:
        return None
    return json.dumps(payload, sort_keys=True, default=str)


def _load_or_none(text: Optional[str]):
    if text is None:
        return None
    return json.loads(text)


def _as_int_or_none(value) -> Optional[int]:
    if value is None:
        return None
    return int(bool(value))
