"""Tests for the Monte Carlo robustness harness."""

import pytest

import repro.montecarlo as montecarlo
from repro.errors import AnalysisError, ConfigurationError
from repro.montecarlo import (
    MonteCarloResult,
    experiment_sweep,
    resolve_jobs,
    run_monte_carlo,
)
from repro.observability import trace
from repro.observability.metrics import registry


def _tenth(seed: int) -> float:
    """Module-level metric: picklable for the jobs > 1 path."""
    return float(seed) / 10.0


def _boom_on_two(seed: int) -> float:
    """Records work, then crashes on seed 2 -- partial-state fixture."""
    registry.counter("partial_work_total").inc()
    if seed == 2:
        raise ValueError("seed 2 exploded")
    return float(seed)


def _boom_unpicklable(seed: int) -> float:
    """Raises an exception that cannot travel between processes."""
    exc = RuntimeError("cannot travel")
    exc.payload = lambda: None  # lambdas do not pickle
    raise exc


def _tenth_boom_on_three(seed: int) -> float:
    """_tenth, except the process dies at seed 3 (kill-after-K fixture)."""
    if seed == 3:
        raise RuntimeError("killed at seed 3")
    return _tenth(seed)


def _tenth_interrupt_on_three(seed: int) -> float:
    """_tenth, except seed 3 hits Ctrl-C (interrupt-safety fixture)."""
    if seed == 3:
        raise KeyboardInterrupt
    return _tenth(seed)


@pytest.fixture
def four_cpus(monkeypatch):
    """Pretend the machine has four CPUs so the pool path really runs.

    CI containers can report a single CPU, which would clamp every
    ``jobs > 1`` request down to the sequential path and silently skip
    the ProcessPoolExecutor coverage these tests exist for.
    """
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 4)


class TestRunner:
    def test_evaluates_every_seed(self):
        result = run_monte_carlo(lambda s: float(s) / 10.0, [1, 2, 3],
                                 metric_name="demo")
        assert result.values == (0.1, 0.2, 0.3)
        assert result.mean == pytest.approx(0.2)
        assert result.minimum == pytest.approx(0.1)
        assert result.maximum == pytest.approx(0.3)

    def test_single_seed_has_zero_std(self):
        result = run_monte_carlo(lambda s: 0.5, [7])
        assert result.std == 0.0

    def test_percentile_interval(self):
        result = run_monte_carlo(lambda s: float(s), range(1, 101))
        lo, hi = result.percentile_interval(0.9)
        assert lo == pytest.approx(5.95, abs=1.0)
        assert hi == pytest.approx(95.05, abs=1.0)

    def test_invalid_coverage_rejected(self):
        result = run_monte_carlo(lambda s: 1.0, [1, 2])
        with pytest.raises(AnalysisError):
            result.percentile_interval(1.5)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo(lambda s: 1.0, [])

    def test_str_summary(self):
        result = run_monte_carlo(lambda s: 0.9, [1, 2, 3],
                                 metric_name="accuracy")
        assert "accuracy" in str(result)
        assert "n=3" in str(result)


class TestParallelRunner:
    def test_jobs_bit_identical_to_sequential(self, four_cpus):
        seeds = [3, 1, 4, 1, 5, 9]
        sequential = run_monte_carlo(_tenth, seeds, metric_name="demo")
        parallel = run_monte_carlo(_tenth, seeds, metric_name="demo", jobs=3)
        assert parallel == sequential

    def test_more_jobs_than_seeds(self):
        result = run_monte_carlo(_tenth, [2], jobs=8)
        assert result.values == (0.2,)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo(_tenth, [1], jobs=0)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(_tenth, [1], jobs=-2)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(_tenth, [1], jobs="turbo")

    def test_unpicklable_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo(lambda s: 1.0, [1, 2], jobs=2)

    def test_unpicklable_metric_rejected_even_when_clamped(self, monkeypatch):
        """An explicit jobs=2 request holds the documented contract even
        when the machine only has one CPU and the run falls back to the
        sequential path."""
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 1)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(lambda s: 1.0, [1, 2], jobs=2)

    def test_worker_metrics_merge_into_parent_registry(self, four_cpus):
        run_monte_carlo(_tenth, [1, 2, 3], jobs=2)
        assert registry.counter("montecarlo_runs_total").value == 3
        assert registry.histogram("montecarlo_run_seconds").count == 3

    def test_jobs_auto_runs_every_seed(self):
        result = run_monte_carlo(_tenth, [1, 2, 3], jobs="auto")
        assert result.values == (0.1, 0.2, 0.3)

    def test_auto_metric_need_not_pickle_on_one_cpu(self, monkeypatch):
        """``auto`` on a single-CPU machine resolves to the sequential
        path, which accepts any callable."""
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 1)
        result = run_monte_carlo(lambda s: float(s), [4], jobs="auto")
        assert result.values == (4.0,)


class TestWorkerSpans:
    def test_worker_spans_merged_with_attribution(self, four_cpus):
        """--trace under --jobs N: every worker's subtree comes back,
        tagged with the worker's pid and its shard index."""
        trace.enable()
        run_monte_carlo(_tenth, [1, 2, 3], jobs=2)
        (root,) = trace.roots()
        assert root.name == "montecarlo"
        seed_spans = [c for c in root.children
                      if c.name == "montecarlo.seed"]
        assert len(seed_spans) == 3
        for sp in seed_spans:
            assert sp.attrs["worker_pid"] > 0
            assert sp.finished
        assert {sp.attrs["seed"] for sp in seed_spans} == {1, 2, 3}
        assert {sp.attrs["shard"] for sp in seed_spans} == {0, 1, 2}

    def test_no_spans_collected_when_tracing_off(self, four_cpus):
        run_monte_carlo(_tenth, [1, 2], jobs=2)
        assert trace.roots() == ()

    def test_sharded_tree_matches_sequential_shape(self, four_cpus):
        trace.enable()
        run_monte_carlo(_tenth, [1, 2], jobs=1)
        sequential = [c.name for c in trace.roots()[0].children]
        trace.clear()
        run_monte_carlo(_tenth, [1, 2], jobs=2)
        sharded = [c.name for c in trace.roots()[0].children]
        assert sharded == sequential == ["montecarlo.seed"] * 2


class TestWorkerCrash:
    def test_crash_reraises_original_exception(self, four_cpus):
        with pytest.raises(ValueError, match="seed 2 exploded"):
            run_monte_carlo(_boom_on_two, [1, 2, 3], jobs=2)

    def test_crashed_shard_still_ships_partial_metrics(self, four_cpus):
        with pytest.raises(ValueError):
            run_monte_carlo(_boom_on_two, [1, 2, 3], jobs=2)
        # Every shard incremented the counter before seed 2 raised, and
        # the parent merged all three dumps before re-raising.
        assert registry.counter("partial_work_total").value == 3
        assert registry.counter("montecarlo_worker_failures_total").value == 1
        # Only the seeds that completed count as runs.
        assert registry.counter("montecarlo_runs_total").value == 2

    def test_crashed_shard_still_ships_spans(self, four_cpus):
        trace.enable()
        with pytest.raises(ValueError):
            run_monte_carlo(_boom_on_two, [1, 2, 3], jobs=2)
        (root,) = trace.roots()
        seed_spans = [c for c in root.children
                      if c.name == "montecarlo.seed"]
        assert {sp.attrs["seed"] for sp in seed_spans} == {1, 2, 3}
        assert all(sp.finished for sp in seed_spans)

    def test_unpicklable_exception_surfaces_as_traceback_text(
        self, four_cpus
    ):
        with pytest.raises(AnalysisError) as excinfo:
            run_monte_carlo(_boom_unpicklable, [1, 2], jobs=2)
        message = str(excinfo.value)
        assert "cannot travel" in message
        assert "RuntimeError" in message
        assert "failed in worker" in message


class TestResolveJobs:
    def test_explicit_request_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
        assert resolve_jobs(8, n_seeds=16) == 2

    def test_clamped_to_seed_count(self, four_cpus):
        assert resolve_jobs(4, n_seeds=2) == 2

    def test_auto_uses_available_cpus(self, four_cpus):
        assert resolve_jobs("auto", n_seeds=16) == 4

    def test_auto_on_one_cpu_is_sequential(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 1)
        assert resolve_jobs("auto", n_seeds=16) == 1

    def test_unclamped_request_passes_through(self, four_cpus):
        assert resolve_jobs(3, n_seeds=16) == 3

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0, n_seeds=4)
        with pytest.raises(ConfigurationError):
            resolve_jobs("fast", n_seeds=4)


class TestExperimentSweep:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment_sweep("exp9", [1])

    def test_exp1_sweep_is_robust(self):
        """Experiment 1's quick configuration recovers perfectly across
        seeds -- the lab setting's headline robustness claim."""
        result = experiment_sweep("exp1", seeds=[5, 6, 7])
        assert result.mean == 1.0
        assert result.std == 0.0

    def test_overrides_apply(self):
        result = experiment_sweep(
            "exp1", seeds=[5],
            config_overrides={"burn_hours": 16, "recovery_hours": 8},
        )
        assert 0.0 <= result.mean <= 1.0

    def test_sharded_sweep_bit_identical(self, four_cpus):
        """Acceptance pin: jobs=N returns the same MonteCarloResult as
        jobs=1 for the same seed list, including seed order."""
        seeds = [5, 6, 7]
        sequential = experiment_sweep("exp1", seeds=seeds, jobs=1)
        sharded = experiment_sweep("exp1", seeds=seeds, jobs=2)
        assert sharded == sequential

    def test_sharded_sweep_merges_capture_metrics(self, four_cpus):
        experiment_sweep("exp1", seeds=[5, 6], jobs=2)
        assert registry.counter("captures_total").value > 0
        assert registry.counter("montecarlo_runs_total").value == 2

    def test_unknown_experiment_rejected_before_workers_spawn(self):
        with pytest.raises(ConfigurationError):
            experiment_sweep("exp9", [1], jobs=4)


class TestCheckpointResume:
    """``--resume``: journaled sweeps skip finished seeds bit-identically."""

    def _journal(self, tmp_path):
        from repro.reliability.checkpoint import SweepJournal

        return SweepJournal(tmp_path / "sweep.journal")

    def test_sequential_run_journals_every_seed(self, tmp_path):
        from repro.reliability.checkpoint import SweepJournal

        journal = self._journal(tmp_path)
        result = run_monte_carlo(_tenth, [1, 2, 3], journal=journal)
        loaded = SweepJournal.load(tmp_path / "sweep.journal")
        assert loaded.completed_seeds() == [1, 2, 3]
        assert [loaded.value(s) for s in (1, 2, 3)] == list(result.values)

    def test_kill_after_k_of_n_resume_bit_identical(self, tmp_path):
        """Acceptance pin: a sweep killed partway and resumed matches an
        uninterrupted run -- values AND deterministic counters."""
        from repro.reliability.checkpoint import SweepJournal

        seeds = [1, 2, 3, 4]
        baseline = run_monte_carlo(_tenth, seeds, metric_name="demo")
        baseline_runs = registry.counter("montecarlo_runs_total").value
        registry.reset()

        journal = self._journal(tmp_path)
        with pytest.raises(RuntimeError, match="killed at seed 3"):
            run_monte_carlo(_tenth_boom_on_three, seeds,
                            metric_name="demo", journal=journal)
        partial = SweepJournal.load(tmp_path / "sweep.journal")
        assert partial.completed_seeds() == [1, 2]
        registry.reset()

        resumed = run_monte_carlo(_tenth, seeds, metric_name="demo",
                                  journal=partial)
        assert resumed == baseline
        assert registry.counter("montecarlo_runs_total").value \
            == baseline_runs
        assert registry.counter("sweep_seeds_resumed_total").value == 2

    def test_fully_journaled_resume_skips_all_seeds(self, tmp_path):
        from repro.reliability.checkpoint import SweepJournal

        journal = self._journal(tmp_path)
        first = run_monte_carlo(_tenth, [1, 2], journal=journal)
        registry.reset()
        reloaded = SweepJournal.load(tmp_path / "sweep.journal")
        second = run_monte_carlo(_tenth, [1, 2], journal=reloaded)
        assert second == first
        assert registry.counter("sweep_seeds_resumed_total").value == 2
        # Replayed states restore the runs counter too.
        assert registry.counter("montecarlo_runs_total").value == 2

    def test_parallel_journaled_matches_sequential(self, four_cpus,
                                                   tmp_path):
        sequential = run_monte_carlo(_tenth, [1, 2, 3])
        journal = self._journal(tmp_path)
        parallel = run_monte_carlo(_tenth, [1, 2, 3], jobs=2,
                                   journal=journal)
        assert parallel == sequential
        assert journal.completed_seeds() == [1, 2, 3]
        assert registry.counter("montecarlo_runs_total").value == 6

    def test_resumed_parallel_shards_keep_full_list_positions(
        self, four_cpus, tmp_path, monkeypatch
    ):
        """After a resume, a pending seed's ``shard`` is its position in
        the full seed list, in its spans and its progress event alike,
        never its position among the pending seeds."""
        trace.enable()
        journal = self._journal(tmp_path)
        run_monte_carlo(_tenth, [1, 2], jobs=2, journal=journal)
        trace.clear()
        done = []
        monkeypatch.setattr(
            montecarlo, "note_seed_done",
            lambda seed, value, **kw: done.append((seed, kw.get("shard"))),
        )
        run_monte_carlo(_tenth, [1, 2, 3, 4], jobs=2, journal=journal)
        (root,) = trace.roots()
        shards = {sp.attrs["seed"]: sp.attrs["shard"]
                  for sp in root.children if sp.name == "montecarlo.seed"}
        assert shards == {1: 0, 2: 1, 3: 2, 4: 3}
        assert [entry for entry in done if entry[0] > 2] == [(3, 2), (4, 3)]

    def test_journaled_sweep_rejects_duplicate_seeds(self, tmp_path):
        journal = self._journal(tmp_path)
        with pytest.raises(ConfigurationError, match="unique seeds"):
            run_monte_carlo(_tenth, [1, 1, 2], journal=journal)

    def test_experiment_sweep_resume_round_trip(self, tmp_path):
        path = tmp_path / "exp.journal"
        first = experiment_sweep("exp1", seeds=[5, 6], journal_path=path)
        registry.reset()
        second = experiment_sweep("exp1", seeds=[5, 6], journal_path=path)
        assert second == first
        assert registry.counter("sweep_seeds_resumed_total").value == 2

    def test_experiment_sweep_refuses_foreign_journal(self, tmp_path):
        from repro.errors import PersistenceError

        path = tmp_path / "exp.journal"
        experiment_sweep("exp1", seeds=[5], journal_path=path)
        with pytest.raises(PersistenceError, match="different sweep"):
            experiment_sweep("exp1", seeds=[5, 6], journal_path=path)


class TestInterruptSafety:
    """Ctrl-C mid-sweep: clean executor shutdown, loadable journal."""

    def test_keyboard_interrupt_leaves_loadable_partial_journal(
        self, four_cpus, tmp_path
    ):
        from repro.reliability.checkpoint import SweepJournal

        path = tmp_path / "sweep.journal"
        journal = SweepJournal(path)
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(_tenth_interrupt_on_three, [1, 2, 3, 4],
                            jobs=2, journal=journal)
        # The pool shut down (the test returned at all) and the journal
        # on disk is a consistent snapshot of the finished seeds.
        partial = SweepJournal.load(path)
        assert partial.completed_seeds() == [1, 2]
        resumed = run_monte_carlo(_tenth, [1, 2, 3, 4], jobs=2,
                                  journal=partial)
        baseline = run_monte_carlo(_tenth, [1, 2, 3, 4])
        assert resumed.values == baseline.values

    def test_keyboard_interrupt_sequential_journal_consistent(
        self, tmp_path
    ):
        from repro.reliability.checkpoint import SweepJournal

        path = tmp_path / "sweep.journal"
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(_tenth_interrupt_on_three, [1, 2, 3, 4],
                            journal=SweepJournal(path))
        assert SweepJournal.load(path).completed_seeds() == [1, 2]
