"""Monte Carlo robustness sweeps: the one seed loop.

Single-seed results can flatter or slander an attack; the paper's
claims are statistical.  :func:`run_monte_carlo` repeats any
seed-parameterised metric over a seed set and summarises the
distribution, and :func:`experiment_sweep` wraps the three experiment
drivers so robustness numbers (mean recovery accuracy with a
percentile interval) are one call away -- under a fault plan too
(``repro chaos sweep``).  Fleet campaign sweeps
(:func:`repro.cloud.campaigns.run_fleet_sweep`) are metrics over the
same loop, so every sweep shares one checkpoint/resume path
(:class:`~repro.reliability.checkpoint.SweepJournal`).  A metric
returns its value, or ``(value, payload)`` with a JSON-ready dict the
loop journals, replays and returns per seed.

Both accept ``jobs``: with ``jobs > 1`` the seed set shards across a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Seeds are fully
independent evaluations, so the sharded sweep returns a bit-identical
:class:`MonteCarloResult` to the sequential one -- results are
collected in submission order -- and each worker returns one pickled
outcome per seed: the value, its wall time and pid, plus the worker's
metrics registry *and its span forest*, merged into the parent's so
``captures_total`` and friends still reflect the whole sweep and
``--trace`` under ``--jobs N`` shows every worker's subtree (tagged
with ``worker_pid``/``shard``) instead of only the parent's skeleton.

A worker whose metric raises still ships whatever partial metrics and
spans it accumulated before failing: the parent merges every shard's
state first and re-raises the original exception afterwards, so a
crash late in a long sweep does not silently discard the telemetry of
the seeds that did complete.

``jobs`` may also be ``"auto"`` (one worker per available CPU), and
explicit values are clamped to the machine: oversubscribing a host
with more workers than CPUs was measured *slower* than sequential
(0.89x at ``jobs=2`` on one CPU), so requests the hardware cannot
honour fall back to the sequential path with a log line instead of
silently degrading throughput.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.observability import trace
from repro.observability.log import get_logger
from repro.observability.metrics import registry
from repro.observability.progress import note_seed_done

_log = get_logger("montecarlo")

T = TypeVar("T")


@dataclass(frozen=True)
class MonteCarloResult:
    """Distribution summary of one metric over seeds."""

    metric_name: str
    seeds: tuple[int, ...]
    values: tuple[float, ...]
    #: Per seed, the payload dict the metric returned (else ``None``).
    payloads: tuple[Optional[dict], ...] = ()

    @property
    def mean(self) -> float:
        """Mean of the metric over seeds."""
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation over seeds."""
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def minimum(self) -> float:
        """Smallest observed value."""
        return float(np.min(self.values))

    @property
    def maximum(self) -> float:
        """Largest observed value."""
        return float(np.max(self.values))

    def percentile_interval(self, coverage: float = 0.9) -> tuple[float, float]:
        """Central percentile interval of the observed values."""
        if not 0.0 < coverage < 1.0:
            raise AnalysisError("coverage must be in (0, 1)")
        tail = (1.0 - coverage) / 2.0 * 100.0
        lo, hi = np.percentile(self.values, [tail, 100.0 - tail])
        return float(lo), float(hi)

    def __str__(self) -> str:
        lo, hi = self.percentile_interval()
        return (
            f"{self.metric_name}: {self.mean:.3f} +/- {self.std:.3f} "
            f"(90% interval [{lo:.3f}, {hi:.3f}], n={len(self.values)})"
        )


def _available_cpus() -> int:
    """CPUs this process may use (separate function so tests can patch)."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Union[int, str], n_seeds: int) -> int:
    """Resolve a requested ``jobs`` value to an effective worker count.

    ``"auto"`` asks for one worker per available CPU.  Explicit integer
    requests are validated (``>= 1``) and then clamped to the CPU count
    and the seed count -- extra workers past either bound only add
    scheduling overhead.  Returns the number of workers actually worth
    spawning (``1`` means run sequentially).
    """
    cpus = _available_cpus()
    if isinstance(jobs, str):
        if jobs != "auto":
            raise ConfigurationError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}"
            )
        requested = cpus
    else:
        requested = int(jobs)
        if requested < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    effective = min(requested, cpus, n_seeds)
    if effective < requested:
        _log.info("jobs_clamped", requested=requested, effective=effective,
                  cpus=cpus, seeds=n_seeds)
    return effective


def _require_picklable(metric: Callable[[int], float]) -> None:
    try:
        pickle.dumps(metric)
    except Exception as exc:
        raise ConfigurationError(
            "jobs > 1 requires a picklable metric (a module-level "
            f"function or functools.partial of one): {exc}"
        ) from exc


def _record_seed_run(elapsed_seconds: float) -> None:
    registry.counter(
        "montecarlo_runs_total", "seeded metric evaluations"
    ).inc()
    registry.histogram(
        "montecarlo_run_seconds", "wall time per seeded evaluation"
    ).observe(elapsed_seconds)


@dataclass
class _SeedOutcome:
    """Everything a worker ships back to the parent for one seed.

    ``value`` is ``None`` exactly when the metric raised; the partial
    ``metrics_state``/``trace_state`` are shipped either way, so a
    failed shard still contributes its telemetry to the merged view.
    ``payload`` is the metric's JSON-ready dict, when it returned one.
    ``error`` carries the original exception when it pickles (the
    common case) and its formatted traceback text always.
    """

    seed: int
    pid: int
    elapsed_s: float
    metrics_state: dict = field(default_factory=dict)
    trace_state: dict = field(default_factory=dict)
    value: Optional[float] = None
    payload: Optional[dict] = None
    error: Optional[BaseException] = None
    error_text: Optional[str] = None


def _split(output) -> tuple[float, Optional[dict]]:
    """A metric returns its value, or ``(value, payload)``."""
    if isinstance(output, tuple):
        value, payload = output
        return float(value), payload
    return float(output), None


def _isolated(work: Callable[[], T]) -> tuple[T, dict]:
    """Run ``work()`` against an empty metrics registry.

    Returns ``work``'s result and exactly the metric state it produced,
    which is what a journal entry stores and a resume replays.  On exit
    -- a crash or Ctrl-C included -- the parent state is restored with
    that state merged on top, as if ``work`` had run in place.  The
    registry keeps its merged dump ids throughout, so a dump merged
    before (or inside) ``work`` still counts once afterwards.
    """
    parent_state = registry.dump_state()
    registry.clear_instruments()
    try:
        result = work()
    finally:
        seed_state = registry.dump_state()
        registry.clear_instruments()
        registry.merge_state(parent_state)
        registry.merge_state(seed_state)
    return result, seed_state


def _evaluate_seed(
    metric: Callable[[int], float], seed: int, collect_spans: bool = False
) -> _SeedOutcome:
    """Worker-side evaluation: value, wall time, metrics and spans.

    Resets the (forked/fresh) worker observability state first so the
    returned dumps hold exactly what this one seed produced.  The
    evaluation runs inside a ``montecarlo.seed`` span when the parent
    is tracing, mirroring the sequential path's tree shape.  A raising
    metric is caught so the partial state still makes it back; the
    parent re-raises after merging.
    """
    registry.reset()
    trace.clear()
    if collect_spans:
        trace.enable()
    else:
        trace.disable()
    start = perf_counter()
    value = payload = error = error_text = None
    try:
        with trace.span("montecarlo.seed", seed=int(seed)):
            value, payload = _split(metric(int(seed)))
    except Exception as exc:
        error = exc
        error_text = _traceback.format_exc()
    outcome = _SeedOutcome(
        seed=int(seed),
        pid=os.getpid(),
        elapsed_s=perf_counter() - start,
        metrics_state=registry.dump_state(),
        trace_state=trace.dump_state() if collect_spans else {},
        value=value,
        payload=payload,
        error=error,
        error_text=error_text,
    )
    if error is not None:
        try:
            pickle.dumps(outcome)
        except Exception:
            # The metric's exception does not pickle; ship the
            # traceback text and let the parent raise on our behalf.
            outcome = dataclasses.replace(outcome, error=None)
    return outcome


#: One evaluated seed: its value and the metric's payload (or ``None``).
_Evaluated = tuple[float, Optional[dict]]


def _resume_from_journal(
    journal, seeds: Sequence[int]
) -> dict[int, _Evaluated]:
    """Replay journaled seeds: values, payloads and metric/span state.

    The journal entries carry their original ``dump_id``s, so merging
    is idempotent; the counters and (for parallel-journaled runs) span
    forests of skipped seeds land in the parent exactly as a live run
    of those seeds would have left them.  A payload comes back from the
    entry's ``extra`` field.
    """
    collect_spans = trace.is_enabled()
    resumed: dict[int, _Evaluated] = {}
    for index, seed in enumerate(seeds):
        if seed not in journal:
            continue
        entry = journal.get(seed)
        state = entry.get("metrics_state")
        if state:
            registry.merge_state(state)
        trace_state = entry.get("trace_state")
        if collect_spans and trace_state:
            trace.merge_state(trace_state, shard=index, resumed=True)
        resumed[seed] = (float(entry["value"]), entry.get("extra"))
        note_seed_done(seed, resumed[seed][0], resumed=True)
        registry.counter(
            "sweep_seeds_resumed_total",
            "sweep seeds skipped via a resume journal",
        ).inc()
    if resumed:
        _log.info("seeds_resumed", n=len(resumed),
                  journal=str(journal.path))
    return resumed


def _run_sequential(
    metric: Callable[[int], float], pending: Sequence[tuple[int, int]],
    journal=None,
) -> list[_Evaluated]:
    """Evaluate the ``(position, seed)`` pairs in this process."""
    evaluated = []
    for _, seed in pending:
        start = perf_counter()

        def evaluate() -> _Evaluated:
            with trace.span("montecarlo.seed", seed=seed):
                result = _split(metric(seed))
            _record_seed_run(perf_counter() - start)
            return result

        if journal is None:
            value, payload = evaluate()
        else:
            # Journaled: the entry (written only for a *completed*
            # seed) carries exactly this seed's metric deltas.
            (value, payload), seed_state = _isolated(evaluate)
            journal.record(seed, value, metrics_state=seed_state,
                           extra=payload)
        evaluated.append((value, payload))
        note_seed_done(seed, value, elapsed_s=perf_counter() - start)
    return evaluated


def _run_parallel(
    metric: Callable[[int], float], pending: Sequence[tuple[int, int]],
    jobs: int, journal=None,
) -> list[_Evaluated]:
    """Shard the ``(position, seed)`` pairs over worker processes.

    Each worker returns its pickled :class:`_SeedOutcome` (value,
    payload, wall time, pid and the metrics/span blobs); outcomes merge
    in submission order, keeping the sharded sweep bit-identical to the
    sequential one.  A seed's spans are tagged with its ``shard``: its
    position in the full seed list, also after a resume.
    """
    _require_picklable(metric)
    collect_spans = trace.is_enabled()
    evaluated = []
    first_failure = None
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = [
            pool.submit(_evaluate_seed, metric, seed, collect_spans)
            for _, seed in pending
        ]
        # Collect in submission order: result ordering (and hence the
        # MonteCarloResult) is deterministic regardless of which worker
        # finishes first.
        try:
            for (shard, seed), future in zip(pending, futures):
                outcome = future.result()
                if collect_spans and outcome.trace_state:
                    trace.merge_state(outcome.trace_state, shard=shard)
                if outcome.value is None:
                    registry.merge_state(outcome.metrics_state)
                    registry.counter(
                        "montecarlo_worker_failures_total",
                        "seeded evaluations that raised in a worker",
                    ).inc()
                    _log.info("worker_seed_failed", seed=outcome.seed,
                              pid=outcome.pid)
                    if first_failure is None:
                        first_failure = outcome
                    continue

                def absorb() -> None:
                    registry.merge_state(outcome.metrics_state)
                    _record_seed_run(outcome.elapsed_s)

                if journal is None:
                    absorb()
                else:
                    # Journaled: fold the parent-side per-seed accounting
                    # into the state the journal stores, so a resume
                    # replays it all in one merge.
                    _, seed_state = _isolated(absorb)
                    journal.record(
                        seed, outcome.value,
                        metrics_state=seed_state,
                        trace_state=(
                            outcome.trace_state
                            if collect_spans and outcome.trace_state
                            else None
                        ),
                        extra=outcome.payload,
                    )
                evaluated.append((outcome.value, outcome.payload))
                note_seed_done(seed, outcome.value,
                               elapsed_s=outcome.elapsed_s,
                               shard=shard, worker_pid=outcome.pid)
        except BaseException:
            # Ctrl-C (or any other non-metric failure) while collecting:
            # drop the queued seeds, let running workers finish their
            # current seed, and leave the journal consistent -- a
            # --resume of the same sweep picks up from here.
            pool.shutdown(wait=True, cancel_futures=True)
            _log.warning("sweep_interrupted", completed=len(evaluated),
                         total=len(pending))
            raise
    if first_failure is not None:
        # Every shard's partial metrics/spans are merged by now; only
        # then surface the failure, matching what the sequential path
        # leaves behind when a metric raises mid-sweep.
        if first_failure.error is not None:
            raise first_failure.error
        raise AnalysisError(
            f"seed {first_failure.seed} failed in worker "
            f"{first_failure.pid}:\n{first_failure.error_text}"
        )
    return evaluated


def run_monte_carlo(
    metric: Callable[[int], float],
    seeds: Sequence[int],
    metric_name: str = "metric",
    jobs: Union[int, str] = 1,
    journal=None,
) -> MonteCarloResult:
    """Evaluate ``metric(seed)`` for every seed and summarise.

    This is the one seed loop behind every multi-seed sweep
    (:func:`experiment_sweep`, its chaos form, and
    :func:`repro.cloud.campaigns.run_fleet_sweep`).  A metric returns
    its value, or ``(value, payload)`` with a JSON-ready ``payload``
    dict; payloads come back per seed on
    :attr:`MonteCarloResult.payloads`, from workers and journals alike.

    ``jobs > 1`` shards the seeds over that many worker processes; the
    metric must then be picklable.  ``jobs="auto"`` uses one worker per
    available CPU, and explicit requests are clamped to the machine (see
    :func:`resolve_jobs`).  Values come back in seed order either way,
    so the result is independent of ``jobs``.

    ``journal`` (a :class:`~repro.reliability.checkpoint.SweepJournal`)
    turns on checkpoint/resume: every completed seed is journaled
    atomically with its per-seed metric state (and payload, in the
    entry's ``extra`` field), seeds already journaled are skipped (their
    value, payload and telemetry replayed, ``sweep_seeds_resumed_total``
    counts them), and a sweep killed partway resumes to the same
    :class:`MonteCarloResult` an uninterrupted run produces.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    seeds = [int(s) for s in seeds]
    if journal is not None and len(set(seeds)) != len(seeds):
        raise ConfigurationError(
            "checkpoint/resume requires unique seeds (the journal is "
            "keyed by seed); drop the duplicates or the journal"
        )
    effective = resolve_jobs(jobs, len(seeds))
    if not isinstance(jobs, str) and jobs > 1 and effective == 1:
        # The caller explicitly asked for sharding, so hold the metric to
        # the documented picklability contract even though the clamp
        # sends us down the sequential path (spawning workers here would
        # oversubscribe the CPU and run slower than sequential).
        _require_picklable(metric)
        _log.info("sharding_skipped", requested=jobs,
                  cpus=_available_cpus(), seeds=len(seeds),
                  reason="not beneficial on this machine")
    with trace.phase("montecarlo", total=len(seeds), metric=metric_name,
                     jobs=effective):
        resumed = (
            _resume_from_journal(journal, seeds)
            if journal is not None else {}
        )
        pending = [
            (position, seed) for position, seed in enumerate(seeds)
            if seed not in resumed
        ]
        if not pending:
            run: list[_Evaluated] = []
        elif effective == 1:
            run = _run_sequential(metric, pending, journal)
        else:
            run = _run_parallel(metric, pending, effective, journal)
        fresh = iter(run)
        evaluated = [
            resumed[s] if s in resumed else next(fresh) for s in seeds
        ]
    _log.info("monte_carlo_done", metric=metric_name, n=len(seeds),
              jobs=effective, resumed=len(resumed))
    return MonteCarloResult(
        metric_name=metric_name, seeds=tuple(seeds),
        values=tuple(value for value, _ in evaluated),
        payloads=tuple(payload for _, payload in evaluated),
    )


def _experiment_registry() -> dict:
    # Imported lazily: repro.experiments sits above this module in the
    # layering and is heavy to import.
    from repro.experiments import (
        Experiment1Config,
        Experiment2Config,
        Experiment3Config,
        run_experiment1,
        run_experiment2,
        run_experiment3,
    )

    return {
        "exp1": (Experiment1Config, run_experiment1),
        "exp2": (Experiment2Config, run_experiment2),
        "exp3": (Experiment3Config, run_experiment3),
    }


def _resolve_experiment(experiment: str) -> tuple:
    runners = _experiment_registry()
    if experiment not in runners:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; choose from "
            f"{sorted(runners)}"
        )
    return runners[experiment]


def _experiment_metric(
    experiment: str, quick: bool, overrides: tuple, seed: int,
    plan_payload: Optional[dict] = None,
) -> float:
    """Recovery accuracy of one seeded run (module-level: picklable).

    With ``plan_payload`` (a serialised
    :class:`~repro.reliability.faults.FaultPlan`) the run executes under
    that plan re-seeded for ``seed``, so every experiment seed sees its
    own -- but always the same -- fault sequence regardless of ``jobs``.
    """
    config_cls, runner = _resolve_experiment(experiment)
    config = (config_cls.quick(seed=seed) if quick
              else config_cls.paper(seed=seed))
    if overrides:
        config = dataclasses.replace(config, **dict(overrides))
    if plan_payload is None:
        return runner(config).recovery_score.accuracy
    from repro.reliability.faults import (
        FaultPlan,
        derive_plan_seed,
        fault_plan,
    )

    plan = FaultPlan.from_dict(plan_payload)
    with fault_plan(plan.reseeded(derive_plan_seed(plan.seed, seed))):
        return runner(config).recovery_score.accuracy


def experiment_sweep(
    experiment: str,
    seeds: Sequence[int],
    quick: bool = True,
    config_overrides: Optional[dict] = None,
    jobs: Union[int, str] = 1,
    journal_path=None,
    fault_plan=None,
) -> MonteCarloResult:
    """Recovery-accuracy distribution of one experiment over seeds.

    ``experiment`` is ``"exp1"``, ``"exp2"`` or ``"exp3"``; ``quick``
    selects the shrunken configs; ``config_overrides`` are applied with
    :func:`dataclasses.replace`; ``jobs`` (an integer or ``"auto"``)
    shards the seeds over worker processes (``repro sweep --jobs`` on
    the command line).

    ``fault_plan`` (a :class:`~repro.reliability.faults.FaultPlan`)
    makes it a chaos sweep (``repro chaos sweep``): every seed runs
    under the plan re-seeded with
    :func:`~repro.reliability.faults.derive_plan_seed`, and the metric
    is named "chaos recovery accuracy".

    ``journal_path`` enables checkpoint/resume (``repro sweep
    --resume PATH``): completed seeds are journaled there and skipped
    on the next invocation.  The journal refuses to resume a sweep run
    with different parameters (experiment, quick flag, overrides, seed
    set or fault plan).
    """
    _resolve_experiment(experiment)  # fail fast, before any worker spawns
    overrides = (
        tuple(sorted(config_overrides.items())) if config_overrides else ()
    )
    if fault_plan is None:
        plan_payload, label = None, "recovery accuracy"
    else:
        plan_payload, label = fault_plan.to_dict(), "chaos recovery accuracy"
    journal = None
    if journal_path is not None:
        from repro.reliability.checkpoint import SweepJournal

        context = {
            "experiment": experiment,
            "quick": bool(quick),
            "overrides": [list(pair) for pair in overrides],
            "seeds": [int(s) for s in seeds],
            "metric": label.replace(" ", "_"),
        }
        if plan_payload is not None:
            context["chaos_plan"] = plan_payload
        journal = SweepJournal.load(journal_path, context=context)
    metric = partial(_experiment_metric, experiment, quick, overrides,
                     plan_payload=plan_payload)
    return run_monte_carlo(
        metric, seeds, metric_name=f"{experiment} {label}",
        jobs=jobs, journal=journal,
    )
