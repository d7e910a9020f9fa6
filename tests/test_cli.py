"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.observability.metrics import registry
from tests.oracles.churn import reference_churn

#: The committed fault plan (raise-site specs and fleet sections).
_FAULT_PLAN = str(
    Path(__file__).resolve().parent.parent / "plans" / "chaos-default.json"
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_exp1_flags(self):
        args = build_parser().parse_args(
            ["exp1", "--quick", "--seed", "9", "--burn-hours", "12"]
        )
        assert args.quick and args.seed == 9 and args.burn_hours == 12

    def test_table1_flags(self):
        args = build_parser().parse_args(["table1", "--compare"])
        assert args.compare

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_every_subcommand_has_observability_flags(self):
        for argv in (["exp1"], ["exp2"], ["exp3"], ["sweep", "exp1"],
                     ["table1"], ["report"], ["profile", "exp1"]):
            args = build_parser().parse_args(argv + ["--trace"])
            assert args.trace and args.metrics_out is None

    def test_trace_accepts_optional_file(self):
        args = build_parser().parse_args(["exp1", "--trace", "out.jsonl"])
        assert args.trace == "out.jsonl"
        args = build_parser().parse_args(["exp1", "--trace"])
        assert args.trace is True
        args = build_parser().parse_args(["exp1"])
        assert args.trace is False

    def test_chrome_trace_flag(self):
        args = build_parser().parse_args(
            ["sweep", "exp1", "--chrome-trace", "trace.json"]
        )
        assert args.chrome_trace == "trace.json"

    def test_profile_flags(self):
        args = build_parser().parse_args(
            ["profile", "exp1", "--quick", "--seed", "5",
             "--json", "prof.json"]
        )
        assert args.experiment == "exp1"
        assert args.quick and args.seed == 5
        assert args.profile_json == "prof.json"

    def test_bench_diff_flags(self):
        args = build_parser().parse_args(
            ["bench", "diff", "old.json", "new.json", "--gate", "80"]
        )
        assert args.old == "old.json" and args.new == "new.json"
        assert args.gate == 80.0

    def test_bench_diff_record_flags(self):
        args = build_parser().parse_args(
            ["bench", "diff", "old.json", "new.json", "--runstore", "r.db",
             "--no-record"]
        )
        assert args.runstore == "r.db" and args.no_record

    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "exp2", "--seeds", "1:4,9", "--jobs", "3"]
        )
        assert args.experiment == "exp2"
        assert args.seeds == "1:4,9" and args.jobs == "3"
        assert not args.paper

    def test_sweep_jobs_auto_accepted(self):
        args = build_parser().parse_args(["sweep", "exp1", "--jobs", "auto"])
        assert args.jobs == "auto"

    def test_sweep_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "exp9"])

    def test_sweep_resume_flag(self):
        args = build_parser().parse_args(
            ["sweep", "exp1", "--resume", "sweep.journal"]
        )
        assert args.resume == "sweep.journal"
        assert build_parser().parse_args(["sweep", "exp1"]).resume is None

    def test_fleet_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--campaign", "scan", "--devices", "512",
             "--victims", "3", "--batch-hours", "9", "--quick"]
        )
        assert args.campaign == "scan"
        assert args.devices == 512 and args.victims == 3
        assert args.batch_hours == 9.0
        assert args.quick

    def test_fleet_engine_flag_rejected(self, capsys):
        """The churn engine is no longer a setting."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--engine", "bulk"])
        assert "--engine" in capsys.readouterr().err

    def test_fleet_has_observability_flags(self):
        args = build_parser().parse_args(["fleet", "--trace"])
        assert args.trace and args.metrics_out is None

    def test_fleet_rejects_unknown_campaign(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--campaign", "psychic"])

    def test_fleet_series_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--series", "series.json",
             "--series-cadence", "0.5"]
        )
        assert args.series == "series.json"
        assert args.series_cadence == 0.5
        defaults = build_parser().parse_args(["fleet"])
        assert defaults.series is None
        assert defaults.series_cadence == 1.0

    def test_fleet_chaos_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--fault-plan", "storm.json", "--seeds", "1:3",
             "--resume", "fleet.journal"]
        )
        assert args.fault_plan == "storm.json"
        assert args.seeds == "1:3"
        assert args.resume == "fleet.journal"
        defaults = build_parser().parse_args(["fleet"])
        assert defaults.fault_plan is None
        assert defaults.seeds is None and defaults.resume is None

    def test_chaos_flags(self):
        args = build_parser().parse_args(
            ["chaos", "exp2", "--seed", "3", "--fault-plan", "storm.json"]
        )
        assert args.target == "exp2"
        assert args.seed == 3 and args.fault_plan == "storm.json"
        assert not args.paper

    def test_chaos_sweep_flags(self):
        args = build_parser().parse_args(
            ["chaos", "sweep", "--experiment", "exp2", "--seeds", "1:4",
             "--jobs", "2", "--resume", "chaos.journal"]
        )
        assert args.target == "sweep" and args.experiment == "exp2"
        assert args.seeds == "1:4" and args.jobs == "2"
        assert args.resume == "chaos.journal"

    def test_chaos_quick_is_the_default_scale(self):
        for argv in (["chaos", "exp1"], ["chaos", "exp1", "--quick"]):
            assert not build_parser().parse_args(argv).paper
        assert build_parser().parse_args(["chaos", "exp1", "--paper"]).paper

    def test_chaos_quick_and_paper_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["chaos", "exp1", "--quick",
                                       "--paper"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_chaos_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "exp9"])

    def test_chaos_has_observability_flags(self):
        args = build_parser().parse_args(["chaos", "exp1", "--trace"])
        assert args.trace is True


class TestSeedSpec:
    def test_comma_list_and_ranges(self):
        from repro.cli import parse_seed_spec

        assert parse_seed_spec("1,2,5") == [1, 2, 5]
        assert parse_seed_spec("1:4") == [1, 2, 3, 4]
        assert parse_seed_spec("1:3,9, 11") == [1, 2, 3, 9, 11]

    def test_invalid_specs_rejected(self):
        from repro.cli import parse_seed_spec

        for spec in ("", "a", "3:1", "1:2:3"):
            with pytest.raises(ValueError):
                parse_seed_spec(spec)


class TestMain:
    def test_table1_prints_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "/kmac_app_rsp" in out

    def test_exp1_quick(self, capsys):
        code = main(["exp1", "--quick", "--no-figure",
                     "--burn-hours", "16", "--recovery-hours", "8",
                     "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered" in out

    def test_exp1_figure_panels(self, capsys):
        main(["exp1", "--quick", "--burn-hours", "16",
              "--recovery-hours", "8", "--seed", "5"])
        out = capsys.readouterr().out
        assert "ps routes" in out

    def test_exp2_quick(self, capsys):
        assert main(["exp2", "--quick", "--no-figure",
                     "--burn-hours", "24", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "accuracy by length" in out

    def test_exp3_quick(self, tmp_path, capsys):
        store_path = tmp_path / "runs.db"
        assert main(["exp3", "--quick", "--no-figure",
                     "--recovery-hours", "8", "--seed", "19",
                     "--runstore", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "boards probed" in out

        from repro.observability.runstore import RunStore

        with RunStore(store_path) as store:
            run = store.get_run(store.resolve("latest"))
        ident = run["extra"]["identification"]
        assert set(ident) == {"scores", "devices", "chosen", "gap",
                              "victim_board"}
        assert ident["chosen"] in ident["scores"]
        assert ident["victim_board"] in ident["scores"]
        assert ident["gap"] >= 0.0

    def test_sweep_quick(self, capsys):
        assert main(["sweep", "exp1", "--seeds", "5,6"]) == 0
        out = capsys.readouterr().out
        assert "exp1 recovery accuracy" in out
        assert "seeds=2 jobs=1" in out

    def test_sweep_with_jobs(self, capsys):
        assert main(["sweep", "exp1", "--seeds", "5:6", "--jobs", "2"]) == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_sweep_bad_seed_spec_fails_cleanly(self, capsys):
        assert main(["sweep", "exp1", "--seeds", "9:1"]) == 2
        assert "invalid --seeds" in capsys.readouterr().err

    def test_sweep_bad_jobs_fails_cleanly(self, capsys):
        assert main(["sweep", "exp1", "--seeds", "1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_non_numeric_jobs_fails_cleanly(self, capsys):
        assert main(["sweep", "exp1", "--seeds", "1", "--jobs", "lots"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_jobs_auto_runs(self, capsys):
        assert main(["sweep", "exp1", "--seeds", "5", "--jobs", "auto"]) == 0
        assert "jobs=auto" in capsys.readouterr().out

    def test_fleet_quick(self, capsys):
        assert main(["fleet", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "recovery yield" in out
        assert "lifecycle events" in out

    def test_fleet_churn_bench(self, capsys):
        assert main(["fleet", "--campaign", "churn", "--quick",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "capacity misses" in out

    def test_fleet_series_end_to_end(self, tmp_path, capsys):
        """--series writes the document, lands it in the run store and
        adds the sim-clock tracks to the Chrome trace."""
        import json

        series_path = tmp_path / "series.json"
        trace_path = tmp_path / "trace.json"
        store_path = tmp_path / "runs.db"
        assert main([
            "fleet", "--devices", "40", "--horizon-hours", "60",
            "--victims", "1", "--seed", "3",
            "--series", str(series_path),
            "--chrome-trace", str(trace_path),
            "--runstore", str(store_path),
        ]) == 0
        assert "sim-time series written" in capsys.readouterr().out

        payload = json.loads(series_path.read_text())
        assert payload["version"] == 1
        assert "fleet.pool_free" in payload["series"]
        assert payload["series"]["fleet.pool_free"]["points"][0] == \
            [0.0, 40.0]

        from repro.observability.runstore import RunStore
        from repro.observability.timeline import SIM_CLOCK_PID

        with RunStore(store_path) as store:
            run = store.get_run(store.resolve("latest"))
        assert run["kind"] == "fleet"
        assert run["experiment"] == "fleet"
        assert run["series"] == payload

        document = json.loads(trace_path.read_text())
        sim = [e for e in document["traceEvents"]
               if e.get("pid") == SIM_CLOCK_PID and e["ph"] == "C"]
        assert {e["name"] for e in sim} == set(payload["series"])

    @staticmethod
    def _fleet_outputs(tmp_path, name, argv):
        """Run ``repro fleet`` once; returns (series bytes, result)."""
        series = tmp_path / f"{name}-series.json"
        output = tmp_path / f"{name}-result.json"
        assert main(["fleet", *argv, "--series", str(series),
                     "--output", str(output), "--no-record"]) == 0
        return series.read_bytes(), json.loads(output.read_text())

    def _engine_outputs(self, tmp_path, argv):
        bulk = self._fleet_outputs(tmp_path, "bulk", argv)
        with reference_churn():
            reference = self._fleet_outputs(tmp_path, "reference", argv)
        return bulk, reference

    def test_fleet_series_engine_invariant(self, tmp_path):
        """The CLI surface reproduces the acceptance gate: the bulk
        engine and the per-event churn oracle write byte-identical
        series files."""
        bulk, reference = self._engine_outputs(tmp_path, [
            "--devices", "40", "--horizon-hours", "60", "--victims", "1",
            "--seed", "5",
        ])
        assert bulk == reference

    @pytest.mark.parametrize("plan", [None, _FAULT_PLAN],
                             ids=["plain", "default-plan"])
    def test_fleet_quick_engine_invariant(self, tmp_path, plan):
        """``fleet --quick --seed 3``, plain and under the committed
        fault plan: byte-identical series documents and equal results
        on the bulk engine and the per-event churn oracle."""
        argv = ["--quick", "--seed", "3"]
        if plan is not None:
            argv += ["--fault-plan", plan]
        (bulk_series, bulk_result), (ref_series, ref_result) = (
            self._engine_outputs(tmp_path, argv)
        )
        assert bulk_series == ref_series
        assert bulk_result == ref_result
        if plan is not None:
            assert bulk_result["faults"], "the storm injected no faults"

    def test_fleet_with_committed_fault_plan(self, tmp_path, capsys):
        """The committed chaos plan drives a quick campaign end to end
        and its hash lands in the run store."""
        store_path = tmp_path / "runs.db"
        assert main(["fleet", "--quick", "--seed", "3",
                     "--fault-plan", _FAULT_PLAN,
                     "--runstore", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "recovery yield" in out
        assert "faults injected" in out
        assert "region r0" in out

        from repro.observability.runstore import RunStore

        with RunStore(store_path) as store:
            run = store.get_run(store.resolve("latest"))
        assert run["fault_plan_hash"]

    def test_fleet_missing_fault_plan_fails_cleanly(self, tmp_path, capsys):
        assert main(["fleet", "--quick", "--seed", "3", "--fault-plan",
                     str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "absent.json" in err

    def test_fleet_churn_rejects_chaos_flags(self, capsys):
        assert main(["fleet", "--campaign", "churn", "--quick",
                     "--fault-plan", "storm.json"]) == 2
        assert "pure-churn" in capsys.readouterr().err

    def test_fleet_resume_requires_seeds(self, capsys):
        assert main(["fleet", "--quick",
                     "--resume", "fleet.journal"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_fleet_sweep_resume_round_trip(self, tmp_path, capsys):
        """A journalled fleet sweep rerun from its journal reports the
        identical per-seed distribution plus the resumed-count line."""
        journal = tmp_path / "fleet.journal"
        argv = ["fleet", "--devices", "40", "--horizon-hours", "60",
                "--victims", "1", "--seeds", "3,4",
                "--resume", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        assert "sweep over 40 boards" in first
        assert f"journal: {journal}" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed 2 seed(s)" in second
        assert second.replace("resumed 2 seed(s) from the journal\n",
                              "") == first

    def test_sweep_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "sweep.journal"
        assert main(["sweep", "exp1", "--seeds", "5,6",
                     "--resume", str(journal)]) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        assert f"journal: {journal}" in first
        assert main(["sweep", "exp1", "--seeds", "5,6",
                     "--resume", str(journal)]) == 0
        second = capsys.readouterr().out
        # The resumed run reports the identical distribution.
        assert first == second


class TestChaosCommand:
    def test_chaos_exp1_quick_passes_gate(self, capsys):
        assert main(["chaos", "exp1", "--quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "chaos exp1" in out
        assert "within bound" in out
        assert "retries=" in out

    def test_chaos_with_committed_plan(self, capsys):
        assert main(["chaos", "exp1", "--quick", "--seed", "1",
                     "--fault-plan", _FAULT_PLAN]) == 0
        assert "within bound" in capsys.readouterr().out

    def test_chaos_sweep_reports_bound(self, capsys):
        assert main(["chaos", "sweep", "--experiment", "exp1",
                     "--seeds", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "chaos recovery accuracy" in out
        assert "bound=0.85" in out

    def test_chaos_sweep_resume_round_trip(self, tmp_path, capsys):
        """A journalled chaos sweep rerun from its journal reports the
        identical distribution and names the journal both times."""
        journal = tmp_path / "chaos.journal"
        argv = ["chaos", "sweep", "--experiment", "exp1", "--seeds", "1,2",
                "--resume", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        assert "exp1 chaos recovery accuracy" in first
        assert f"journal: {journal}" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert registry.counter("sweep_seeds_resumed_total").value == 2

    def test_chaos_missing_plan_fails_cleanly(self, tmp_path, capsys):
        assert main(["chaos", "exp1",
                     "--fault-plan", str(tmp_path / "ghost.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ghost.json" in err


class TestErrorReporting:
    """ReproError -> one line on stderr, exit 2; stack under REPRO_DEBUG."""

    def _corrupt_journal(self, tmp_path):
        path = tmp_path / "broken.journal"
        path.write_text("{half a json")
        return path

    def test_repro_error_is_one_line_exit_2(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        journal = self._corrupt_journal(tmp_path)
        assert main(["sweep", "exp1", "--seeds", "5",
                     "--resume", str(journal)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "broken.journal" in err
        assert "Traceback" not in err

    def test_repro_debug_adds_traceback(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        journal = self._corrupt_journal(tmp_path)
        assert main(["sweep", "exp1", "--seeds", "5",
                     "--resume", str(journal)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "error: " in err

    def test_non_repro_errors_still_propagate(self, monkeypatch):
        """Only ReproError is swallowed; genuine bugs keep their stack."""
        import repro.cli as cli

        def explode(args, run):
            raise RuntimeError("a real bug")

        monkeypatch.setattr(cli, "_cmd_table1", explode)
        with pytest.raises(RuntimeError, match="a real bug"):
            main(["table1"])


class TestObservabilityFlags:
    def test_trace_prints_span_tree(self, capsys):
        code = main(["exp1", "--quick", "--no-figure", "--trace",
                     "--burn-hours", "16", "--recovery-hours", "8",
                     "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "experiment [" in out
        assert "phase.measurement [" in out
        assert "sensor.capture [" in out

    def test_metrics_out_writes_valid_json(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        code = main(["exp1", "--quick", "--no-figure",
                     "--burn-hours", "16", "--recovery-hours", "8",
                     "--seed", "5", "--metrics-out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        counters = payload["metrics"]["counters"]
        assert counters["captures_total"] > 0
        assert counters["protocol_cycles_total"] > 0
        latency = payload["metrics"]["histograms"]["capture_latency_seconds"]
        assert latency["count"] > 0 and latency["p95"] >= latency["p50"]
        assert payload["manifest"]["config"]["burn_hours"] == 16
        assert payload["manifest"]["seed"] == 5

    def test_archive_embeds_manifest(self, tmp_path):
        target = tmp_path / "exp1.json"
        assert main(["exp1", "--quick", "--no-figure",
                     "--burn-hours", "16", "--recovery-hours", "8",
                     "--seed", "5", "--output", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == 2
        assert payload["manifest"]["seed"] == 5


def _walk_span_dicts(payload):
    yield payload
    for child in payload.get("children", ()):
        yield from _walk_span_dicts(child)


class TestShardedTraceCollection:
    def test_sharded_sweep_writes_worker_spans(self, tmp_path, capsys,
                                               monkeypatch):
        """Acceptance: ``repro sweep exp1 --seeds 1:8 --jobs 4 --trace
        out.jsonl`` captures spans from every worker -- each shard has
        at least one worker-attributed span in the written forest."""
        import repro.montecarlo as montecarlo

        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 4)
        target = tmp_path / "out.jsonl"
        code = main(["sweep", "exp1", "--seeds", "1:8", "--jobs", "4",
                     "--trace", str(target)])
        assert code == 0
        assert "spans written to" in capsys.readouterr().out
        roots = [json.loads(line)
                 for line in target.read_text().splitlines() if line]
        spans = [sp for root in roots for sp in _walk_span_dicts(root)]
        worker_spans = [sp for sp in spans
                        if sp.get("attrs", {}).get("worker_pid")]
        per_shard = {}
        for sp in worker_spans:
            shard = sp["attrs"]["shard"]
            per_shard[shard] = per_shard.get(shard, 0) + 1
        assert sorted(per_shard) == list(range(8))
        assert all(count > 0 for count in per_shard.values())
        # More than one worker process actually contributed.
        assert len({sp["attrs"]["worker_pid"] for sp in worker_spans}) > 1

    def test_chrome_trace_export_from_experiment(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        code = main(["exp1", "--quick", "--no-figure",
                     "--burn-hours", "16", "--recovery-hours", "8",
                     "--seed", "5", "--chrome-trace", str(target)])
        assert code == 0
        assert "Chrome trace written to" in capsys.readouterr().out
        document = json.loads(target.read_text())
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert xs and all(
            {"name", "ts", "dur", "pid", "tid"} <= set(e) for e in xs
        )
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert any(e["name"] == "capture_words_total" for e in counters)


class TestProfileCommand:
    def test_profile_exp1_quick_covers_wall_time(self, tmp_path, capsys):
        """Acceptance: the attribution table's total accounts for at
        least 90% of the measured wall time."""
        target = tmp_path / "prof.json"
        code = main(["profile", "exp1", "--quick", "--seed", "5",
                     "--json", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "self%" in out and "experiment" in out
        assert "measured wall time" in out
        report = json.loads(target.read_text())
        assert report["experiment"] == "exp1"
        assert report["coverage"] >= 0.9
        assert report["rows"] and report["wall_s"] > 0
        assert "kernels" not in report


class TestBenchCommand:
    @staticmethod
    def _suite(tmp_path, name, seconds):
        path = tmp_path / name
        path.write_text(json.dumps(
            {"exp1": {"total_seconds": seconds, "recovery_accuracy": 1.0}}
        ))
        return str(path)

    def test_identical_suites_pass_gate(self, tmp_path, capsys):
        old = self._suite(tmp_path, "old.json", 2.0)
        new = self._suite(tmp_path, "new.json", 2.0)
        assert main(["bench", "diff", old, new, "--gate", "80"]) == 0
        out = capsys.readouterr().out
        assert "no regression past the 80% gate" in out

    def test_regression_past_gate_fails(self, tmp_path, capsys):
        old = self._suite(tmp_path, "old.json", 1.0)
        new = self._suite(tmp_path, "new.json", 5.0)
        assert main(["bench", "diff", old, new, "--gate", "80"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed past the 80% gate" in captured.err
        assert "exp1.total_seconds" in captured.err

    def test_without_gate_only_reports(self, tmp_path, capsys):
        old = self._suite(tmp_path, "old.json", 1.0)
        new = self._suite(tmp_path, "new.json", 5.0)
        assert main(["bench", "diff", old, new]) == 0
        assert "+400.0%" in capsys.readouterr().out

    def test_missing_suite_fails_cleanly(self, tmp_path, capsys):
        old = self._suite(tmp_path, "old.json", 1.0)
        assert main(["bench", "diff", old,
                     str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err


class TestBenchJson:
    def test_json_document_written(self, tmp_path, capsys):
        old = TestBenchCommand._suite(tmp_path, "old.json", 1.0)
        new = TestBenchCommand._suite(tmp_path, "new.json", 5.0)
        target = tmp_path / "diff.json"
        assert main(["bench", "diff", old, new, "--gate", "80",
                     "--json", str(target)]) == 1
        document = json.loads(target.read_text())
        assert document["verdict"] == "fail"
        assert document["failures"] == ["exp1.total_seconds"]
        by_key = {d["key"]: d for d in document["deltas"]}
        assert by_key["exp1.total_seconds"]["gate"] == "fail"
        assert f"bench diff written to {target}" in capsys.readouterr().out

    def test_json_without_gate(self, tmp_path):
        old = TestBenchCommand._suite(tmp_path, "old.json", 1.0)
        new = TestBenchCommand._suite(tmp_path, "new.json", 1.0)
        target = tmp_path / "diff.json"
        assert main(["bench", "diff", old, new,
                     "--json", str(target)]) == 0
        document = json.loads(target.read_text())
        assert document["verdict"] == "pass"
        assert document["gate_pct"] is None


class TestRunRecording:
    def test_experiment_records_a_run(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert main(["exp1", "--quick", "--no-figure",
                     "--runstore", str(db)]) == 0
        capsys.readouterr()
        from repro.observability.runstore import RunStore

        runs = RunStore(db).list_runs()
        assert len(runs) == 1
        assert runs[0]["kind"] == "experiment"
        assert runs[0]["experiment"] == "exp1"
        assert runs[0]["outcome"] == "ok"
        assert runs[0]["accuracy"] is not None
        assert runs[0]["wall_seconds"] > 0.0

    def test_sweep_records_seed_rows(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert main(["sweep", "exp1", "--seeds", "1:3",
                     "--runstore", str(db)]) == 0
        capsys.readouterr()
        from repro.observability.runstore import RunStore

        store = RunStore(db)
        run = store.get_run(store.resolve("latest"))
        assert run["kind"] == "sweep"
        assert [row["seed"] for row in run["seed_results"]] == [1, 2, 3]
        assert run["config"]["seeds"] == [1, 2, 3]
        assert "kernels" not in run["manifest"]
        assert run["metrics"]["dump_id"]

    def test_no_record_suppresses_recording(self, tmp_path, capsys):
        db = tmp_path / "runs.db"
        assert main(["exp1", "--quick", "--no-figure", "--no-record",
                     "--runstore", str(db)]) == 0
        capsys.readouterr()
        assert not db.exists()

    def test_bench_row_redirected_or_skipped(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.observability.runstore import RunStore

        default, other = tmp_path / "default.db", tmp_path / "other.db"
        monkeypatch.setenv("REPRO_RUNSTORE", str(default))
        diff = ["bench", "diff", _BENCH, _BENCH]
        assert main(diff + ["--runstore", str(other)]) == 0
        assert not default.exists()
        runs = RunStore(other).list_runs()
        assert [run["kind"] for run in runs] == ["bench"]
        assert main(diff + ["--no-record"]) == 0
        assert main(diff + ["--no-record", "--runstore", str(other)]) == 0
        capsys.readouterr()
        assert not default.exists()
        assert len(RunStore(other).list_runs()) == 1

    def test_runstore_off_disables(self, tmp_path, capsys):
        assert main(["exp1", "--quick", "--no-figure",
                     "--runstore", "off"]) == 0
        capsys.readouterr()

    def test_resumed_sweep_records_one_row_per_seed(self, tmp_path,
                                                    capsys):
        # Record/replay idempotence along the runstore path: a journal
        # resume re-emits completed seeds, the store keeps one row each.
        db = tmp_path / "runs.db"
        journal = tmp_path / "sweep.journal"
        assert main(["sweep", "exp1", "--seeds", "1:3",
                     "--resume", str(journal),
                     "--runstore", str(db)]) == 0
        assert main(["sweep", "exp1", "--seeds", "1:3",
                     "--resume", str(journal),
                     "--runstore", str(db)]) == 0
        capsys.readouterr()
        from repro.observability.runstore import RunStore

        store = RunStore(db)
        first = store.get_run(store.resolve("latest~1"))
        second = store.get_run(store.resolve("latest"))
        assert [row["seed"] for row in first["seed_results"]] == [1, 2, 3]
        assert [row["seed"] for row in second["seed_results"]] == [1, 2, 3]
        # the resumed run replayed every seed from the journal
        assert all(row["resumed"] for row in second["seed_results"])
        assert not any(row["resumed"] for row in first["seed_results"])
        # replayed values are bit-identical to the originals
        assert [row["value"] for row in second["seed_results"]] == \
            [row["value"] for row in first["seed_results"]]

    def test_metrics_state_replays_idempotently(self, tmp_path, capsys):
        # dump_state -> store -> merge_state twice must count once.
        db = tmp_path / "runs.db"
        assert main(["exp1", "--quick", "--no-figure",
                     "--runstore", str(db)]) == 0
        capsys.readouterr()
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.runstore import RunStore

        store = RunStore(db)
        state = store.get_run(store.resolve("latest"))["metrics"]
        replay = MetricsRegistry()
        replay.merge_state(state)
        once = replay.snapshot()["counters"]["experiments_total"]
        replay.merge_state(state)  # same dump_id: a no-op
        twice = replay.snapshot()["counters"]["experiments_total"]
        assert once == twice == 1.0


_BENCH = str(Path(__file__).resolve().parent.parent / "BENCH_perf.json")

_FLEET = ["fleet", "--devices", "40", "--horizon-hours", "80",
          "--victims", "1"]

_FLEET_CONFIG = {"arrival_rate_per_hour": 40 / 48.0, "campaign": "flash",
                 "devices": 40, "horizon_hours": 80.0,
                 "mean_rental_hours": 12.0, "victims": 1}

#: Every recorded sub-command and the run-store row it writes: kind,
#: experiment, accuracy, jobs, seed, config (its hash for the experiment
#: dataclasses), fault-plan hash, whether route status is kept, and the
#: ``extra`` keys.
_RECORDED_RUNS = {
    "exp1": (["exp1", "--quick", "--no-figure", "--burn-hours", "16",
              "--recovery-hours", "8", "--seed", "5"],
             ("experiment", "exp1", 1.0, None, 5, "37dfaf240012", None,
              True, ["phases"])),
    "exp2": (["exp2", "--quick", "--no-figure"],
             ("experiment", "exp2", 1.0, None, 2, "082bf50a4690", None,
              True, ["phases"])),
    "exp3": (["exp3", "--quick", "--no-figure"],
             ("experiment", "exp3", 10 / 12, None, 3, "44d2bd863281", None,
              True, ["identification", "phases"])),
    "sweep": (["sweep", "exp1", "--seeds", "1:2"],
              ("sweep", "exp1", 1.0, 1, None,
               {"experiment": "exp1", "quick": True, "seeds": [1, 2]},
               None, False, ["phases"])),
    "chaos": (["chaos", "exp1", "--seed", "1", "--fault-plan", _FAULT_PLAN],
              ("chaos", "exp1", 1.0, None, 1,
               {"experiment": "exp1", "quick": True, "seed": 1},
               "99f37402bc04", False, ["events", "phases"])),
    "chaos-sweep": (["chaos", "sweep", "--experiment", "exp1",
                     "--seeds", "1:2"],
                    ("chaos", "exp1", 1.0, 1, None,
                     {"experiment": "exp1", "quick": True, "seeds": [1, 2]},
                     "99f37402bc04", False, ["events", "phases"])),
    "fleet": ([*_FLEET, "--seed", "3"],
              ("fleet", "fleet", 1.0, None, 3,
               {**_FLEET_CONFIG, "seed": 3},
               None, False, ["events", "fleet", "phases"])),
    "fleet-seeds": ([*_FLEET, "--seeds", "2:3", "--fault-plan", _FAULT_PLAN],
                    ("fleet", "fleet", 0.5, None, 1,
                     {**_FLEET_CONFIG, "seed": 1, "seeds": [2, 3]},
                     "99f37402bc04", False,
                     ["events", "fleet_sweep", "phases"])),
    "profile": (["profile", "exp1", "--quick"],
                ("profile", "exp1", 1.0, None, 1, "a279fe96147e", None,
                 False, ["phases"])),
    "bench": (["bench", "diff", _BENCH, _BENCH, "--gate", "80"],
              ("bench", None, None, None, None,
               {"old": _BENCH, "new": _BENCH, "gate": 80.0},
               None, False, ["bench_diff"])),
}


class TestRunRecordParity:
    """Each recorded sub-command stores the same row fields it always has."""

    @pytest.mark.parametrize("name", sorted(_RECORDED_RUNS))
    def test_recorded_row(self, name, tmp_path, monkeypatch, capsys):
        from repro.observability.runstore import RunStore

        argv, want = _RECORDED_RUNS[name]
        db = tmp_path / "runs.db"
        # Every case records through the environment's default store.
        monkeypatch.setenv("REPRO_RUNSTORE", str(db))
        assert main(argv) == 0
        capsys.readouterr()
        store = RunStore(db)
        run = store.get_run(store.resolve("latest"))
        config = (run["config"] if isinstance(want[5], dict)
                  else run["config_hash"])
        got = (run["kind"], run["experiment"], run["accuracy"],
               run["jobs"], run["seed"], config, run["fault_plan_hash"],
               run["route_status"] is not None, sorted(run["extra"]))
        assert got == want


class TestProgressFlag:
    def test_jsonl_progress_on_stderr(self, tmp_path, capsys):
        assert main(["sweep", "exp1", "--seeds", "1:2",
                     "--progress", "jsonl", "--no-record"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line)
                 for line in captured.err.splitlines() if line]
        events = [line["event"] for line in lines]
        assert "phase" in events
        assert events.count("seed_done") == 2
        # stdout stays byte-parseable (the chaos CI compares it)
        assert "seed_done" not in captured.out

    def test_progress_off_is_silent(self, capsys):
        assert main(["sweep", "exp1", "--seeds", "1:2",
                     "--progress", "off", "--no-record"]) == 0
        assert capsys.readouterr().err == ""

    def test_auto_is_silent_when_piped(self, capsys):
        assert main(["sweep", "exp1", "--seeds", "1:2",
                     "--no-record"]) == 0
        assert capsys.readouterr().err == ""


class TestRunsCommand:
    @staticmethod
    def _seed_store(tmp_path, values_by_run):
        import time as _time

        from repro.observability.runstore import RunRecord, RunStore

        db = tmp_path / "runs.db"
        store = RunStore(db)
        for i, values in enumerate(values_by_run):
            store.record_run(RunRecord(
                kind="sweep", experiment="exp1",
                started_unix=1000.0 + i, outcome="ok",
                accuracy=sum(values) / len(values),
                config={"experiment": "exp1", "quick": True},
                seed_rows=[{"seed": j + 1, "value": v}
                           for j, v in enumerate(values)],
            ))
        return db

    def test_list_and_show(self, tmp_path, capsys):
        db = self._seed_store(tmp_path, [[1.0, 0.9]])
        assert main(["runs", "list", "--runstore", str(db)]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "exp1" in out
        assert main(["runs", "show", "latest",
                     "--runstore", str(db)]) == 0
        out = capsys.readouterr().out
        assert "seeds     2 recorded" in out

    def test_list_json(self, tmp_path, capsys):
        db = self._seed_store(tmp_path, [[1.0]])
        assert main(["runs", "list", "--json",
                     "--runstore", str(db)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["experiment"] == "exp1"

    def test_compare_gate_detects_regression(self, tmp_path, capsys):
        db = self._seed_store(tmp_path, [
            [1.0, 0.99, 1.0, 0.98],
            [0.70, 0.69, 0.71, 0.68],  # seeded 30% regression
        ])
        assert main(["runs", "compare", "latest~1", "latest",
                     "--gate", "--runstore", str(db)]) == 1
        captured = capsys.readouterr()
        assert "CONFIRMED" in captured.out
        assert "regression" in captured.err

    def test_compare_ok_passes_gate(self, tmp_path, capsys):
        db = self._seed_store(tmp_path, [[1.0, 0.99], [1.0, 0.99]])
        assert main(["runs", "compare", "latest~1", "latest",
                     "--gate", "--runstore", str(db)]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_compare_json_file(self, tmp_path, capsys):
        db = self._seed_store(tmp_path, [[1.0], [0.5]])
        target = tmp_path / "cmp.json"
        assert main(["runs", "compare", "latest~1", "latest",
                     "--json", str(target),
                     "--runstore", str(db)]) == 0
        capsys.readouterr()
        assert json.loads(target.read_text())["verdict"] == "CONFIRMED"

    def test_export_and_gc(self, tmp_path, capsys):
        db = self._seed_store(tmp_path, [[1.0], [0.9], [0.8]])
        target = tmp_path / "export.json"
        assert main(["runs", "export", "--output", str(target),
                     "--runstore", str(db)]) == 0
        assert len(json.loads(target.read_text())["runs"]) == 3
        capsys.readouterr()
        assert main(["runs", "gc", "--keep", "1",
                     "--runstore", str(db)]) == 0
        assert "removed 2 run(s)" in capsys.readouterr().out

    def test_missing_store_fails_cleanly(self, tmp_path, capsys):
        assert main(["runs", "list", "--runstore",
                     str(tmp_path / "absent.db")]) == 2
        assert "nothing has been recorded" in capsys.readouterr().err

    def test_unknown_ref_fails_cleanly(self, tmp_path, capsys):
        db = self._seed_store(tmp_path, [[1.0]])
        assert main(["runs", "show", "zzz", "--runstore", str(db)]) == 2
        assert "error:" in capsys.readouterr().err


class TestReportHistory:
    def test_history_html_written(self, tmp_path, capsys):
        db = TestRunsCommand._seed_store(tmp_path, [[1.0], [0.9]])
        target = tmp_path / "history.html"
        assert main(["report", "--history", "--output", str(target),
                     "--runstore", str(db)]) == 0
        html_text = target.read_text()
        assert "<!DOCTYPE html>" in html_text
        assert "<h2>exp1</h2>" in html_text
        assert "<svg" in html_text

    def test_history_without_store_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", "--history", "--runstore",
                     str(tmp_path / "absent.db")]) == 2
        assert "nothing has been recorded" in capsys.readouterr().err
