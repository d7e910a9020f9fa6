"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro exp1 --quick
    python -m repro exp2 --seed 7
    python -m repro exp3 --quick --recovery-hours 20
    python -m repro sweep exp1 --seeds 1:16 --jobs 4
    python -m repro table1 --compare
    python -m repro exp1 --quick --trace --metrics-out run.json
    python -m repro sweep exp1 --seeds 1:8 --jobs 4 --trace spans.jsonl
    python -m repro sweep exp1 --seeds 1:64 --jobs 4 --resume sweep.journal
    python -m repro chaos exp1 --quick
    python -m repro chaos sweep --experiment exp2 --seeds 1:8 --jobs 2
    python -m repro fleet --quick --fault-plan plans/chaos-default.json
    python -m repro fleet --quick --seeds 1:4 --resume fleet.journal
    python -m repro profile exp1 --quick
    python -m repro bench diff OLD_BENCH.json BENCH_perf.json --gate 80
    python -m repro runs list --experiment exp1
    python -m repro runs compare latest~1 latest --gate
    python -m repro report --history --output history.html

Every sub-command except ``bench`` and ``runs`` accepts the
observability flags: ``--trace`` prints the run's span tree (experiment
-> phase -> capture; give it a FILE to also write the forest as JSON
Lines), ``--metrics-out FILE`` writes the metrics registry, span tree
and run manifest as one JSON document, and ``--chrome-trace FILE``
exports the spans in the Chrome Trace Event Format for Perfetto /
``chrome://tracing``.

Every experiment/sweep/chaos/fleet/profile/bench invocation is also
recorded into the run store (``.repro/runs.db`` by default;
``--runstore PATH`` / ``REPRO_RUNSTORE`` override, value ``off``
disables, as does ``--no-record``), and ``--progress auto|tty|jsonl|
off`` streams live progress to stderr while long runs execute.  The
recorded history is queried with ``repro runs list|show|compare|
export|gc`` and rendered with ``repro report --history``.

Each sub-command is declared once, in :func:`build_parser`, together
with its handler and the run-store kind it records as.  A handler
``handler(args, run)`` prints its output, fills ``run`` (a
:class:`RunFields`: config, accuracy, extra fields and the like) with
what the run store and the exporters need, and returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from repro import __version__
from repro.errors import ReproError
from repro.experiments import render_experiment_panels
from repro.observability import trace
from repro.opentitan import build_table1, render_table1


@dataclass
class RunFields:
    """What a handler reports about its run, beyond printing it.

    ``main`` passes a fresh one to the handler, records it in the run
    store and hands it to the exporters.  The handler fills it as it
    goes, so a run that fails part-way still records what it had set.
    """

    experiment: Optional[str] = None
    config: Any = None
    accuracy: Optional[float] = None
    jobs: Optional[int] = None
    fault_plan: Optional[dict] = None
    route_status: Optional[dict] = None
    extra: dict = field(default_factory=dict)
    #: the fleet's sim-time series, as a document and as the recorder
    #: the Chrome trace draws its counter tracks from
    series: Optional[dict] = None
    sim_recorder: Any = None


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Pentimento reproduction: regenerate the paper's experiments "
            "on the simulated substrate."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, kind: Optional[str] = None,
                **kwargs) -> argparse.ArgumentParser:
        """Declare sub-command ``name``: its parser, its handler and the
        run-store kind it records as (None: not recorded)."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler, run_kind=kind)
        return p

    def record_flags(p: argparse.ArgumentParser) -> None:
        """Where a recorded invocation lands in the run store."""
        p.add_argument("--runstore", type=str, default=None,
                       metavar="PATH",
                       help="run-store database to record into (default: "
                            ".repro/runs.db or $REPRO_RUNSTORE; 'off' "
                            "disables recording)")
        p.add_argument("--no-record", action="store_true",
                       help="do not record this invocation in the run "
                            "store")

    def observability(p: argparse.ArgumentParser) -> None:
        """The flag set every sub-command carries."""
        p.add_argument("--trace", nargs="?", const=True, default=False,
                       metavar="FILE",
                       help="collect and print the run's span tree; with "
                            "FILE, also write it as JSON Lines (one root "
                            "span per line, worker spans included)")
        p.add_argument("--metrics-out", type=str, default=None,
                       metavar="FILE",
                       help="write metrics + spans + manifest as JSON")
        p.add_argument("--chrome-trace", type=str, default=None,
                       metavar="FILE",
                       help="export spans as Chrome Trace Event JSON "
                            "(open in Perfetto or chrome://tracing); "
                            "implies span collection")
        record_flags(p)
        p.add_argument("--progress", type=str, default="auto",
                       choices=("auto", "tty", "jsonl", "off"),
                       help="live progress on stderr: a rewritten status "
                            "line (tty), one JSON object per event "
                            "(jsonl), or nothing; 'auto' shows the tty "
                            "view only on a terminal (default)")

    def fault_plan_flag(p: argparse.ArgumentParser, default: str) -> None:
        """The one fault plan document ``chaos`` and ``fleet`` read."""
        p.add_argument("--fault-plan", type=str, default=None,
                       metavar="FILE",
                       help="fault plan JSON: raise-site specs storm the "
                            "experiments, fleet sections (failed/partial "
                            "wipes, outages, preemption storms, "
                            "retirements, thermal excursions) storm the "
                            "campaigns; see plans/chaos-default.json "
                            f"(default: {default})")

    for name, help_text, hours in (
        ("exp1", "Experiment 1 / Figure 6 (lab)",
         ("--burn-hours", "--recovery-hours")),
        ("exp2", "Experiment 2 / Figure 7 (cloud TM1)", ("--burn-hours",)),
        ("exp3", "Experiment 3 / Figure 8 (cloud TM2)",
         ("--recovery-hours",)),
    ):
        pe = command(name, _cmd_experiment, "experiment", help=help_text)
        pe.add_argument("--quick", action="store_true",
                        help="shrunken config for smoke runs")
        pe.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the config's)")
        pe.add_argument("--no-figure", action="store_true",
                        help="suppress the ASCII figure panels")
        pe.add_argument("--output", type=str, default=None, metavar="FILE",
                        help="archive the full result (series + "
                             "provenance) as JSON")
        observability(pe)
        for flag in hours:
            pe.add_argument(flag, type=int, default=None)

    pt = command("table1", _cmd_table1, help="Table 1 (OpenTitan study)")
    pt.add_argument("--seed", type=int, default=1)
    pt.add_argument("--compare", action="store_true",
                    help="interleave the paper's published rows")
    observability(pt)

    ps = command(
        "sweep", _cmd_sweep, "sweep",
        help="Monte Carlo seed sweep of an experiment (robustness)",
    )
    ps.add_argument("experiment", choices=("exp1", "exp2", "exp3"))
    ps.add_argument("--seeds", type=str, default="1:8", metavar="SPEC",
                    help="comma-separated seeds and A:B inclusive ranges, "
                         "e.g. '1,2,5' or '1:20' (default: 1:8)")
    ps.add_argument("--jobs", type=str, default="1", metavar="N",
                    help="worker processes to shard the seeds over, or "
                         "'auto' for one per CPU; requests beyond the "
                         "machine are clamped (default: 1, sequential)")
    ps.add_argument("--paper", action="store_true",
                    help="paper-scale configs (default: quick)")
    ps.add_argument("--resume", type=str, default=None, metavar="PATH",
                    help="journal per-seed completions to PATH and skip "
                         "seeds already recorded there (checkpoint/"
                         "resume; the resumed result is bit-identical "
                         "to an uninterrupted run)")
    observability(ps)

    pc = command(
        "chaos", _cmd_chaos, "chaos",
        help="run an experiment under a fault storm and gate on the "
             "documented recovery-accuracy bound",
    )
    pc.add_argument("target", choices=("exp1", "exp2", "exp3", "sweep"),
                    help="experiment to storm, or 'sweep' for a Monte "
                         "Carlo chaos sweep")
    pc.add_argument("--experiment", choices=("exp1", "exp2", "exp3"),
                    default="exp1",
                    help="experiment for 'chaos sweep' (default: exp1)")
    scale = pc.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true",
                       help="shrunken configs (the default)")
    scale.add_argument("--paper", action="store_true",
                       help="paper-scale configs instead of quick")
    pc.add_argument("--seed", type=int, default=0,
                    help="experiment seed for a single chaos run "
                         "(default: 0)")
    fault_plan_flag(pc, "the committed default storm")
    pc.add_argument("--seeds", type=str, default="1:4", metavar="SPEC",
                    help="seed spec for 'chaos sweep' (default: 1:4)")
    pc.add_argument("--jobs", type=str, default="1", metavar="N",
                    help="worker processes for 'chaos sweep' "
                         "(default: 1)")
    pc.add_argument("--resume", type=str, default=None, metavar="PATH",
                    help="checkpoint journal for 'chaos sweep'")
    observability(pc)

    pr = command(
        "report", _cmd_report,
        help="run every evaluation artefact and emit a markdown report",
    )
    pr.add_argument("--scale", choices=("quick", "paper"), default="quick")
    pr.add_argument("--seed", type=int, default=1)
    pr.add_argument("--output", type=str, default=None, metavar="FILE",
                    help="write the report to a file instead of stdout")
    pr.add_argument("--history", action="store_true",
                    help="render the run store's cross-run history as a "
                         "self-contained HTML report (accuracy trends, "
                         "latency percentiles, counter deltas) instead "
                         "of running the evaluation artefacts")
    pr.add_argument("--experiment", choices=("exp1", "exp2", "exp3"),
                    default=None,
                    help="restrict --history to one experiment")
    pr.add_argument("--limit", type=int, default=50,
                    help="runs per trend series in --history "
                         "(default: 50)")
    observability(pr)

    pp = command(
        "profile", _cmd_profile, "profile",
        help="run one experiment under tracing and print wall-time "
             "attribution (per-phase self vs children)",
    )
    pp.add_argument("experiment", choices=("exp1", "exp2", "exp3"))
    pp.add_argument("--quick", action="store_true",
                    help="shrunken config for smoke runs")
    pp.add_argument("--seed", type=int, default=None,
                    help="experiment seed (default: the config's)")
    pp.add_argument("--json", dest="profile_json", type=str, default=None,
                    metavar="FILE",
                    help="also write the attribution report as JSON")
    observability(pp)

    pf = command(
        "fleet", _cmd_fleet, "fleet",
        help="fleet-scale event-driven cloud simulation: attacker "
             "campaigns over a churning board pool, or a pure-churn "
             "throughput run",
    )
    pf.add_argument("--campaign", choices=("flash", "scan", "churn"),
                    default="flash",
                    help="flash re-acquisition race, marketplace "
                         "scanning, or a pure-churn throughput run "
                         "(default: flash)")
    pf.add_argument("--devices", type=int, default=None,
                    help="fleet size (default: 1024; churn: 100000)")
    pf.add_argument("--horizon-hours", type=float, default=None,
                    help="simulated horizon (default: 336)")
    pf.add_argument("--victims", type=int, default=None,
                    help="victim tenancies to stage (default: 4)")
    pf.add_argument("--arrivals", type=int, default=None,
                    help="churn run only: background arrivals to replay "
                         "(default: 500000)")
    pf.add_argument("--batch-hours", type=float, default=None,
                    help="cap bulk windows at this many simulated hours "
                         "(results are batch-invariant; default: "
                         "unbounded)")
    pf.add_argument("--arrival-rate", type=float, default=None,
                    help="background arrivals per hour (default: "
                         "scaled to the fleet)")
    pf.add_argument("--mean-rental", type=float, default=None,
                    help="mean background rental hours (default: 12)")
    pf.add_argument("--seed", type=int, default=1,
                    help="scenario seed (default: 1)")
    pf.add_argument("--quick", action="store_true",
                    help="shrunken scenario for smoke runs")
    pf.add_argument("--output", type=str, default=None, metavar="FILE",
                    help="write the campaign result as JSON")
    pf.add_argument("--series", type=str, default=None, metavar="FILE",
                    help="record sim-time telemetry (pool occupancy, "
                         "aging debt, recovery yield, ...) and write the "
                         "series document to FILE; also lands in the "
                         "run store and the Chrome trace")
    pf.add_argument("--series-cadence", type=float, default=1.0,
                    metavar="HOURS",
                    help="sim-hours between flight-recorder samples "
                         "(default: 1.0)")
    fault_plan_flag(pf, "no faults; results stay bit-identical across "
                        "--batch-hours either way")
    pf.add_argument("--seeds", type=str, default=None, metavar="SPEC",
                    help="run the campaign as a multi-seed sweep over "
                         "this seed spec (e.g. '1:8'); reports mean "
                         "recovery yield (flash/scan only)")
    pf.add_argument("--resume", type=str, default=None, metavar="PATH",
                    help="with --seeds: journal per-seed campaigns to "
                         "PATH and resume a killed sweep bit-identically")
    observability(pf)

    pb = command("bench", _cmd_bench, "bench",
                 help="benchmark-suite utilities")
    bench_sub = pb.add_subparsers(dest="bench_command", required=True)
    pbd = bench_sub.add_parser(
        "diff",
        help="compare two BENCH_*.json suites key by key; optionally "
             "fail past a regression threshold",
    )
    pbd.add_argument("old", help="baseline suite JSON (e.g. the "
                                 "committed BENCH_perf.json)")
    pbd.add_argument("new", help="freshly generated suite JSON")
    pbd.add_argument("--gate", type=float, default=None, metavar="PCT",
                     help="exit nonzero if any benchmark regressed by "
                          "more than PCT percent (omit to report only)")
    pbd.add_argument("--json", dest="bench_json", type=str, default=None,
                     metavar="FILE",
                     help="also write the comparison (per-key deltas and "
                          "gate verdicts) as one JSON document")
    record_flags(pbd)

    pu = command(
        "runs", _cmd_runs,
        help="query the run store: list, inspect, statistically compare "
             "and prune recorded runs",
    )
    runs_sub = pu.add_subparsers(dest="runs_command", required=True)

    def runstore_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--runstore", type=str, default=None,
                       metavar="PATH",
                       help="run-store database (default: .repro/runs.db "
                            "or $REPRO_RUNSTORE)")

    pul = runs_sub.add_parser("list", help="recorded runs, newest first")
    runstore_flag(pul)
    pul.add_argument("--kind", type=str, default=None,
                     help="filter by kind (experiment/sweep/chaos/"
                          "profile/bench)")
    pul.add_argument("--experiment", type=str, default=None,
                     help="filter by experiment (exp1/exp2/exp3)")
    pul.add_argument("--limit", type=int, default=20,
                     help="most recent N runs (default: 20)")
    pul.add_argument("--json", dest="runs_json", action="store_true",
                     help="print the summaries as JSON")

    pus = runs_sub.add_parser(
        "show", help="one run in full (manifest, metrics, seed rows)"
    )
    runstore_flag(pus)
    pus.add_argument("ref", help="run id prefix, 'latest' or 'latest~N'")
    pus.add_argument("--json", dest="runs_json", action="store_true",
                     help="print the full stored row as JSON")

    puc = runs_sub.add_parser(
        "compare",
        help="statistically compare two recorded runs (bootstrap CI + "
             "rank test on per-seed accuracy and latency reservoirs)",
    )
    runstore_flag(puc)
    puc.add_argument("ref_a", help="baseline run (id prefix / latest~N)")
    puc.add_argument("ref_b", help="new run (id prefix / latest~N)")
    puc.add_argument("--experiment", type=str, default=None,
                     help="resolve latest/latest~N within one experiment")
    puc.add_argument("--gate", action="store_true",
                     help="exit nonzero when a CONFIRMED regression is "
                          "found (the CI gate)")
    puc.add_argument("--min-effect-pct", type=float, default=5.0,
                     metavar="PCT",
                     help="effect-size floor below which a drift is OK "
                          "(default: 5)")
    puc.add_argument("--alpha", type=float, default=0.05,
                     help="rank-test significance level (default: 0.05)")
    puc.add_argument("--json", dest="runs_json", type=str, default=None,
                     metavar="FILE",
                     help="also write the comparison as one JSON "
                          "document ('-' for stdout)")

    pue = runs_sub.add_parser(
        "export", help="selected runs (full rows) as one JSON document"
    )
    runstore_flag(pue)
    pue.add_argument("--output", type=str, default=None, metavar="FILE",
                     help="write to FILE instead of stdout")
    pue.add_argument("--kind", type=str, default=None)
    pue.add_argument("--experiment", type=str, default=None)
    pue.add_argument("--limit", type=int, default=None)

    pug = runs_sub.add_parser(
        "gc", help="prune old runs from the store"
    )
    runstore_flag(pug)
    pug.add_argument("--keep", type=int, default=None, metavar="N",
                     help="retain only the N newest runs")
    pug.add_argument("--before-days", type=float, default=None,
                     metavar="D",
                     help="drop runs started more than D days ago")
    pug.add_argument("--vacuum", action="store_true",
                     help="compact the database file afterwards")
    return parser


def _emit(text: str, path: Optional[str], label: str = "written") -> None:
    """Write ``text`` to ``path`` and say so, or print it without one."""
    if path:
        Path(path).write_text(text)
        print(f"{label} to {path}")
    else:
        print(text)


def _experiment_config(args, experiment: str):
    """The config an experiment runs with, and its runner: the quick or
    paper preset, with ``--seed`` and any ``--burn-hours`` /
    ``--recovery-hours`` the sub-command has applied."""
    from repro.montecarlo import _resolve_experiment

    config_cls, runner = _resolve_experiment(experiment)
    config = config_cls.quick() if args.quick else config_cls.paper()
    updates = {
        name: getattr(args, name)
        for name in ("seed", "burn_hours", "recovery_hours")
        if getattr(args, name, None) is not None
    }
    return (replace(config, **updates) if updates else config), runner


def _finish_observability(args, run: RunFields) -> int:
    """Print the span tree / write the export files after a command.

    Returns 0, or 1 if an export file could not be written (the run
    itself already happened, so the tree is still printed first).
    """
    if getattr(args, "trace", False):
        rendered = trace.render_tree()
        if rendered:
            print("\n-- span tree " + "-" * 27)
            print(rendered)
    trace_file = getattr(args, "trace", None)
    if isinstance(trace_file, str):
        from repro.observability.export import write_spans_jsonl

        try:
            path = write_spans_jsonl(trace_file)
        except OSError as exc:
            print(f"repro: cannot write spans to {trace_file}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"spans written to {path}")
    chrome_trace = getattr(args, "chrome_trace", None)
    if chrome_trace:
        from repro.observability.timeline import write_trace_events

        try:
            path = write_trace_events(chrome_trace,
                                      sim_series=run.sim_recorder)
        except OSError as exc:
            print(f"repro: cannot write Chrome trace to {chrome_trace}: "
                  f"{exc}", file=sys.stderr)
            return 1
        print(f"Chrome trace written to {path} "
              f"(open in https://ui.perfetto.dev)")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from repro.observability.export import write_metrics_json
        from repro.observability.manifest import build_manifest

        manifest = build_manifest(
            config=run.config,
            argv=list(sys.argv),
            include_spans=False,
        )
        try:
            path = write_metrics_json(metrics_out, manifest=manifest.to_dict())
        except OSError as exc:
            print(f"repro: cannot write metrics to {metrics_out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"metrics written to {path}")
    return 0


def _cmd_fleet(args, run: RunFields) -> int:
    import math as _math

    from repro.cloud.campaigns import (
        ChurnModel,
        FleetScenario,
        FlashAttackPlan,
        ScanPlan,
        run_churn_benchmark,
        run_flash_campaign,
        run_scan_campaign,
    )

    run.experiment = "fleet"
    if args.campaign == "churn":
        for flag, value in (("--fault-plan", args.fault_plan),
                            ("--seeds", args.seeds),
                            ("--resume", args.resume)):
            if value:
                print(f"repro: {flag} applies to flash/scan campaigns, "
                      f"not the pure-churn benchmark", file=sys.stderr)
                return 2
    if args.resume and not args.seeds:
        print("repro: --resume requires --seeds (it journals a "
              "multi-seed sweep)", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan:
        from repro.reliability.faults import load_fault_plan

        fault_plan = load_fault_plan(args.fault_plan)
        run.fault_plan = fault_plan.to_dict()

    recorder = None
    if args.series:
        from repro.observability.timeseries import FlightRecorder

        recorder = FlightRecorder(cadence_hours=args.series_cadence)

    def _save_series() -> None:
        if recorder is None:
            return
        recorder.save(args.series)
        print(f"sim-time series written to {args.series} "
              f"({len(recorder.names())} series)")
        run.series = recorder.to_dict()
        run.sim_recorder = recorder

    if args.campaign == "churn":
        devices = args.devices or (10_000 if args.quick else 100_000)
        arrivals = args.arrivals or (50_000 if args.quick else 500_000)
        stats = run_churn_benchmark(
            devices=devices,
            arrivals=arrivals,
            seed=args.seed,
            batch_hours=args.batch_hours or _math.inf,
            arrival_rate_per_hour=args.arrival_rate or 60.0,
            recorder=recorder,
        )
        _save_series()
        run.config = {
            "campaign": "churn", "devices": devices,
            "arrivals": arrivals, "seed": args.seed,
        }
        run.extra["fleet"] = stats
        print(f"churn: {stats['events']} lifecycle "
              f"events over {devices} boards in "
              f"{stats['seconds']:.3f}s "
              f"({stats['events_per_second']:,.0f} events/sec, "
              f"{stats['dropped_arrivals']} capacity misses)")
        if args.output:
            _emit(json.dumps(stats, indent=1), args.output)
        return 0

    devices = args.devices or (256 if args.quick else 1024)
    horizon = args.horizon_hours or (200.0 if args.quick else 336.0)
    victims = args.victims or (2 if args.quick else 4)
    # Default churn keeps the pool about half-occupied so campaigns see
    # contention without starving.
    rate = (args.arrival_rate if args.arrival_rate is not None
            else devices / 48.0)
    rental = args.mean_rental or 12.0
    scenario = FleetScenario(
        devices=devices,
        horizon_hours=horizon,
        churn=ChurnModel(arrival_rate_per_hour=rate,
                         mean_rental_hours=rental),
        routes=4 if args.quick else 8,
        seed=args.seed,
        batch_hours=args.batch_hours or _math.inf,
    )
    attack_plan = (FlashAttackPlan(victims=victims)
                   if args.campaign == "flash"
                   else ScanPlan(victims=victims))
    run.config = {
        "campaign": args.campaign, "devices": devices,
        "horizon_hours": horizon, "victims": victims,
        "arrival_rate_per_hour": rate,
        "mean_rental_hours": rental, "seed": args.seed,
    }

    if args.seeds:
        from repro.cloud.campaigns import (
            fleet_journal_context,
            run_fleet_sweep,
        )

        seeds = _parse_seeds(args)
        if seeds is None:
            return 2
        journal = None
        if args.resume:
            from repro.reliability.checkpoint import SweepJournal

            journal = SweepJournal.load(args.resume, context=(
                fleet_journal_context(
                    scenario, args.campaign, attack_plan=attack_plan,
                    fault_plan=fault_plan,
                )
            ))
        run.config["seeds"] = seeds
        sweep = run_fleet_sweep(
            scenario, seeds, campaign=args.campaign,
            attack_plan=attack_plan, fault_plan=fault_plan,
            journal=journal, recorder=recorder,
        )
        _save_series()
        run.accuracy = sweep.mean_yield
        run.extra["fleet_sweep"] = sweep.to_dict()
        print(f"{args.campaign} sweep over {devices} "
              f"boards, {horizon:.0f}h horizon, {len(seeds)} seeds:")
        for seed, payload in zip(sweep.seeds, sweep.results):
            payload = payload or {}
            recovered = payload.get("recovered", "-")
            print(f"  seed {seed:<6} yield "
                  f"{payload.get('recovery_yield', 0.0):.2f}  "
                  f"recovered {recovered}")
        print(f"  mean recovery yield {sweep.mean_yield:.3f}")
        if args.resume:
            print(f"journal: {args.resume}")
        if sweep.resumed_seeds:
            print(f"resumed {sweep.resumed_seeds} seed(s) from the "
                  f"journal")
        if args.output:
            _emit(json.dumps(sweep.to_dict(), indent=1), args.output)
        return 0

    campaign = (run_flash_campaign if args.campaign == "flash"
                else run_scan_campaign)
    result = campaign(scenario, attack_plan, recorder=recorder,
                      fault_plan=fault_plan)
    _save_series()
    run.accuracy = result.recovery_yield
    run.extra["fleet"] = result.to_dict()
    print(f"{args.campaign} campaign over {devices} "
          f"boards, {horizon:.0f}h horizon:")
    print(f"  victims attempted   {result.victims_attempted} "
          f"(+{result.victims_skipped} skipped on capacity)")
    print(f"  recovered           {result.recovered}")
    print(f"  recovery yield      {result.recovery_yield:.2f}")
    print(f"  mean accuracy       {result.mean_accuracy:.2f}")
    print(f"  boards probed       {result.boards_probed}")
    print(f"  lifecycle events    {result.lifecycle_events}"
          f" (+{result.tracked_events} tracked)")
    print(f"  capacity misses     {result.dropped_arrivals}")
    if fault_plan is not None:
        ledger = ", ".join(f"{site}={count}" for site, count
                           in sorted(result.faults.items())) or "none"
        print(f"  faults injected     {ledger}")
        print(f"  failed wipes        {result.failed_wipes} "
              f"(+{result.partial_wipes} partial)")
        print(f"  preempted/retired   {result.preempted}/"
              f"{result.retired_boards} (rent retries "
              f"{result.rent_retries})")
        for region, status in sorted(result.region_status.items()):
            print(f"  region {region:<12} {status['status']} "
                  f"({status['boards']} boards, "
                  f"{status['retired']} retired, "
                  f"{status['outage_hours']:.0f}h dark)")
    if args.output:
        _emit(json.dumps(result.to_dict(), indent=1), args.output)
    return 0


#: The figure each experiment sub-command draws.
_FIGURES = {
    "exp1": "Figure 6 (Experiment 1, lab)",
    "exp2": "Figure 7 (Experiment 2, cloud TM1)",
    "exp3": "Figure 8 (Experiment 3, cloud TM2)",
}


def _cmd_experiment(args, run: RunFields) -> int:
    """``exp1``, ``exp2`` and ``exp3``: one run of the experiment."""
    name = run.experiment = args.command
    config, runner = _experiment_config(args, name)
    run.config = config
    result = runner(config)
    run.accuracy = result.recovery_score.accuracy
    run.route_status = result.route_status
    if getattr(result, "identification", None) is not None:
        run.extra["identification"] = dict(
            asdict(result.identification), victim_board=result.victim_board,
        )
    if not args.no_figure:
        print(render_experiment_panels(
            result.bundle, _FIGURES[name],
            stress_change_hour=getattr(result, "stress_change_hour", None),
        ))
    print(f"\n{result.recovery_score}")
    if name != "exp1":
        accuracy = {k: round(v, 2)
                    for k, v in result.accuracy_by_length().items()}
        print(f"accuracy by length: {accuracy}")
    if name == "exp3":
        print(f"boards probed: {result.devices_probed}")
    if args.output:
        from repro.persistence import save_experiment

        print(f"archived to {save_experiment(result, args.output)}")
    return 0


def parse_seed_spec(spec: str) -> list[int]:
    """Expand a ``--seeds`` spec: comma list with A:B inclusive ranges."""
    seeds: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            lo_text, hi_text = token.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {token!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(token))
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def _parse_seeds(args) -> Optional[list[int]]:
    """``--seeds`` expanded, or None after printing a diagnostic (the
    caller then exits 2)."""
    try:
        return parse_seed_spec(args.seeds)
    except ValueError as exc:
        print(f"repro: invalid --seeds spec {args.seeds!r}: {exc}",
              file=sys.stderr)
        return None


def _parse_jobs(args):
    """``--jobs`` as an int or ``"auto"``, or None after printing a
    diagnostic (the caller then exits 2)."""
    if args.jobs == "auto":
        return "auto"
    try:
        jobs = int(args.jobs)
    except ValueError:
        print(f"repro: --jobs must be an integer or 'auto', "
              f"got {args.jobs!r}", file=sys.stderr)
        return None
    if jobs < 1:
        print(f"repro: --jobs must be >= 1, got {jobs}",
              file=sys.stderr)
        return None
    return jobs


def _cmd_sweep(args, run: RunFields, plan=None) -> int:
    """``sweep``, and ``chaos sweep`` with its fault ``plan``, which
    also gates the sweep's worst seed on the documented bound."""
    from repro.montecarlo import experiment_sweep

    run.experiment = args.experiment
    seeds = _parse_seeds(args)
    if seeds is None:
        return 2
    jobs = _parse_jobs(args)
    if jobs is None:
        return 2
    quick = not args.paper
    run.config = {"experiment": args.experiment, "quick": quick,
                  "seeds": seeds}
    run.jobs = jobs if isinstance(jobs, int) else None
    result = experiment_sweep(
        args.experiment, seeds, quick=quick, jobs=jobs,
        journal_path=args.resume, fault_plan=plan,
    )
    run.accuracy = result.mean
    print(result)
    counts = f"seeds={len(seeds)} jobs={args.jobs}"
    below = False
    if plan is None:
        print(f"min={result.minimum:.3f} max={result.maximum:.3f} "
              f"{counts}")
    else:
        from repro.reliability.chaos import CHAOS_ACCURACY_BOUNDS

        bound = CHAOS_ACCURACY_BOUNDS.get(args.experiment, 0.5)
        below = result.minimum < bound
        verdict = "BELOW BOUND" if below else "within bound"
        print(f"min={result.minimum:.3f} bound={bound:.2f} ({verdict}) "
              f"{counts}")
    if args.resume:
        print(f"journal: {args.resume}")
    if below:
        print(f"repro: chaos sweep of {args.experiment} fell below "
              f"the documented bound", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args, run: RunFields) -> int:
    from repro.reliability.chaos import run_chaos

    run.experiment = (args.experiment if args.target == "sweep"
                      else args.target)
    if args.fault_plan:
        from repro.reliability.faults import load_fault_plan

        plan = load_fault_plan(args.fault_plan)
    else:
        from repro.reliability.chaos import default_chaos_plan

        plan = default_chaos_plan()
    run.fault_plan = plan.to_dict()
    if args.target == "sweep":
        return _cmd_sweep(args, run, plan=plan)
    quick = not args.paper
    run.config = {
        "experiment": args.target, "quick": quick, "seed": args.seed,
    }
    report = run_chaos(args.target, quick=quick, seed=args.seed, plan=plan)
    run.accuracy = report.accuracy
    print(report)
    if not report.passed:
        print(f"repro: chaos {args.target} fell below the documented "
              f"bound", file=sys.stderr)
        return 1
    return 0


def _cmd_table1(args, run: RunFields) -> int:
    rows = build_table1(seed=args.seed)
    print(render_table1(rows, compare=args.compare))
    return 0


def _cmd_profile(args, run: RunFields) -> int:
    from time import perf_counter

    from repro.observability.profile import build_report, render_report

    run.experiment = args.experiment
    config, runner = _experiment_config(args, args.experiment)
    run.config = config
    trace.enable()
    start = perf_counter()
    result = runner(config)
    wall = perf_counter() - start
    report = build_report(wall_s=wall)
    report["experiment"] = args.experiment
    run.accuracy = result.recovery_score.accuracy
    print(render_report(report))
    print(f"\n{result.recovery_score}")
    if args.profile_json:
        _emit(json.dumps(report, indent=1), args.profile_json,
              "profile written")
    return 0


def _cmd_bench(args, run: RunFields) -> int:
    from repro.errors import ConfigurationError
    from repro.observability.benchdiff import (
        deltas_to_dict,
        diff_suites,
        gate_failures,
        load_suite,
        render_deltas,
    )

    try:
        deltas = diff_suites(load_suite(args.old), load_suite(args.new))
        failures = (gate_failures(deltas, args.gate)
                    if args.gate is not None else [])
    except ConfigurationError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    summary = deltas_to_dict(deltas, gate_pct=args.gate)
    run.config = {"old": args.old, "new": args.new, "gate": args.gate}
    run.extra["bench_diff"] = summary
    if args.bench_json:
        _emit(json.dumps(summary, indent=1), args.bench_json,
              "bench diff written")
    print(render_deltas(deltas, gate_pct=args.gate))
    if failures:
        print(f"\nbench diff: {len(failures)} benchmark(s) regressed past "
              f"the {args.gate:g}% gate:", file=sys.stderr)
        for delta in failures:
            print(f"  {delta.key}: {delta.old:g} -> {delta.new:g} "
                  f"({delta.regression_pct:+.1f}% worse)", file=sys.stderr)
        return 1
    if args.gate is not None:
        print(f"bench diff: no regression past the {args.gate:g}% gate")
    return 0


def _cmd_report(args, run: RunFields) -> int:
    if args.history:
        return _cmd_report_history(args)
    from repro.reporting import generate_reproduction_report

    report = generate_reproduction_report(scale=args.scale, seed=args.seed)
    _emit(report, args.output, "report written")
    return 0


def _open_runstore(args):
    """The run store named by ``--runstore``/env, or None + diagnostic.

    Query verbs never create the database: an absent file means nothing
    was recorded yet, which is a message, not an empty schema on disk.
    """
    from repro.observability.runstore import RunStore, resolve_runstore_path

    path = resolve_runstore_path(getattr(args, "runstore", None))
    if path is None:
        print("repro: the run store is disabled (REPRO_RUNSTORE=off); "
              "pass --runstore PATH", file=sys.stderr)
        return None
    if not path.exists():
        print(f"repro: no run store at {path} -- nothing has been "
              f"recorded yet", file=sys.stderr)
        return None
    return RunStore(path)


def _cmd_report_history(args) -> int:
    from repro.observability.history import render_history_html

    store = _open_runstore(args)
    if store is None:
        return 2
    html = render_history_html(
        store, experiment=args.experiment, limit=args.limit
    )
    _emit(html, args.output, "history written")
    return 0


def _cmd_runs(args, run: RunFields) -> int:
    from repro.observability import analytics

    store = _open_runstore(args)
    if store is None:
        return 2

    if args.runs_command == "list":
        runs = store.list_runs(kind=args.kind, experiment=args.experiment,
                               limit=args.limit)
        if args.runs_json:
            print(json.dumps(runs, indent=1))
            return 0
        if not runs:
            print("(no runs)")
            return 0
        print(f"{'run':<14} {'kind':<10} {'exp':<5} {'outcome':<8} "
              f"{'accuracy':>9} {'wall_s':>8}  {'config':<14} git")
        for run in runs:
            acc = run.get("accuracy")
            wall = run.get("wall_seconds")
            git = run.get("git_revision") or "-"
            if run.get("git_dirty"):
                git += "+"
            print(f"{run['run_id'][:12]:<14} {run['kind']:<10} "
                  f"{(run.get('experiment') or '-'):<5} "
                  f"{run['outcome']:<8} "
                  f"{(f'{acc:.4f}' if acc is not None else '-'):>9} "
                  f"{(f'{wall:.2f}' if wall is not None else '-'):>8}  "
                  f"{(run.get('config_hash') or '-'):<14} {git}")
        print(f"{len(runs)} run(s) in {store.path}")
        return 0

    if args.runs_command == "show":
        run = store.get_run(store.resolve(args.ref))
        if args.runs_json:
            print(json.dumps(run, indent=1, default=str))
            return 0
        print(f"run       {run['run_id']}")
        print(f"kind      {run['kind']}"
              + (f"  ({run['experiment']})" if run.get("experiment")
                 else ""))
        print(f"outcome   {run['outcome']}"
              + (f"  exit={run['exit_code']}"
                 if run.get("exit_code") is not None else ""))
        for key in ("accuracy", "wall_seconds", "seed", "jobs",
                    "config_hash", "fault_plan_hash", "git_revision"):
            if run.get(key) is not None:
                print(f"{key:<9} {run[key]}")
        if run.get("git_dirty"):
            print("git_dirty yes (uncommitted changes at record time)")
        if run.get("config"):
            print(f"config    {json.dumps(run['config'], sort_keys=True)}")
        if run.get("kernels"):
            print(f"kernels   {run['kernels']}")
        if run.get("route_status"):
            print(f"routes    {run['route_status']}")
        if run.get("seed_results"):
            values = [r["value"] for r in run["seed_results"]
                      if r["value"] is not None]
            print(f"seeds     {len(run['seed_results'])} recorded"
                  + (f", mean={sum(values) / len(values):.4f}"
                     if values else ""))
        if run.get("argv"):
            print(f"argv      {' '.join(run['argv'])}")
        return 0

    if args.runs_command == "compare":
        comparison = analytics.compare_runs(
            store, args.ref_a, args.ref_b,
            alpha=args.alpha, min_effect_pct=args.min_effect_pct,
            experiment=args.experiment,
        )
        print(analytics.render_comparison(comparison))
        if args.runs_json:
            _emit(json.dumps(comparison.to_dict(), indent=1),
                  None if args.runs_json == "-" else args.runs_json,
                  "comparison written")
        if args.gate and comparison.regressions:
            print(f"repro: runs compare: {len(comparison.regressions)} "
                  f"CONFIRMED regression(s)", file=sys.stderr)
            return 1
        return 0

    if args.runs_command == "export":
        _emit(json.dumps(
            store.export_runs(kind=args.kind, experiment=args.experiment,
                              limit=args.limit),
            indent=1, default=str,
        ), args.output, "exported")
        return 0

    if args.runs_command == "gc":
        before_unix = None
        if args.before_days is not None:
            import time as _time

            before_unix = _time.time() - args.before_days * 86400.0
        removed = store.gc(keep=args.keep, before_unix=before_unix,
                           vacuum=args.vacuum)
        print(f"removed {removed} run(s); {store.count_runs()} remain")
        return 0

    print(f"repro: unknown runs sub-command {args.runs_command!r}",
          file=sys.stderr)
    return 2


def _record_run(args, run: RunFields, store_path, collector, outcome,
                exit_code, started_unix, wall_seconds) -> None:
    """Persist one invocation; a recording failure warns, never fails
    the run it describes."""
    from repro.errors import PersistenceError
    from repro.observability.manifest import build_manifest
    from repro.observability.metrics import registry
    from repro.observability.runstore import RunRecord, RunStore

    manifest = build_manifest(
        config=run.config,
        argv=list(sys.argv),
        include_spans=False,
        include_metrics=False,  # metrics travel losslessly below
    )
    extra = dict(run.extra)
    if collector is not None:
        if collector.event_counts:
            extra["events"] = dict(collector.event_counts)
        if collector.phases:
            extra["phases"] = [p["name"] for p in collector.phases]
    record = RunRecord(
        kind=args.run_kind,
        experiment=run.experiment,
        started_unix=started_unix,
        wall_seconds=wall_seconds,
        outcome=outcome,
        exit_code=exit_code,
        accuracy=run.accuracy,
        seed=manifest.seed,
        jobs=run.jobs,
        config=manifest.config,
        fault_plan=run.fault_plan,
        manifest=manifest.to_dict(),
        metrics_state=registry.dump_state(),
        route_status=run.route_status,
        argv=list(sys.argv[1:]),
        seed_rows=collector.seed_rows if collector is not None else (),
        extra=extra,
        series=run.series,
    )
    try:
        with RunStore(store_path) as store:
            store.record_run(record)
    except PersistenceError as exc:
        print(f"repro: run not recorded: {exc}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    import time as _time
    from time import perf_counter

    args = build_parser().parse_args(argv)
    if getattr(args, "trace", False) or getattr(args, "chrome_trace", None):
        trace.enable()

    from repro.observability import progress as _progress

    store_path = None
    collector = None
    view = None
    if args.run_kind is not None:
        if not getattr(args, "no_record", False):
            from repro.observability.runstore import resolve_runstore_path

            store_path = resolve_runstore_path(
                getattr(args, "runstore", None)
            )
        if store_path is not None:
            collector = _progress.CollectingEmitter()
        view = _progress.make_progress(getattr(args, "progress", None))
    emitter = _progress.compose(view, collector)
    previous = _progress.set_emitter(emitter) if emitter is not None else None

    run = RunFields()
    started_unix = _time.time()
    t0 = perf_counter()
    outcome = "ok"
    try:
        code = args.handler(args, run)
        outcome = "ok" if not code else "failed"
    except ReproError as exc:
        # One actionable line for the operator; the stack only under
        # REPRO_DEBUG=1 (it names internals, not the fix).
        if os.environ.get("REPRO_DEBUG") == "1":
            traceback.print_exc(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        outcome, code = "error", 2
    finally:
        if emitter is not None:
            emitter.close()
            _progress.set_emitter(previous)
    if store_path is not None:
        _record_run(args, run, store_path, collector, outcome, code,
                    started_unix, perf_counter() - t0)
    if outcome == "error":
        return 2
    finish_code = _finish_observability(args, run)
    return code or finish_code


if __name__ == "__main__":
    sys.exit(main())
