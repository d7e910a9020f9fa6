"""Chaos gate: experiments survive the default storm within bounds."""

from __future__ import annotations

import pytest

from repro.experiments import Experiment1Config, run_experiment1
from repro.montecarlo import experiment_sweep
from repro.persistence import bundle_to_dict
from repro.reliability.chaos import (
    CHAOS_ACCURACY_BOUNDS,
    DEFAULT_CHAOS_SPECS,
    default_chaos_plan,
    run_chaos,
)
from repro.reliability.faults import FAULT_SITES, FaultPlan, fault_plan


class TestDefaultStorm:
    def test_storm_meets_the_documented_gate(self):
        # The robustness gate: >= 10% transient allocation failures,
        # >= 2 preemptions, >= 5% dropped captures.
        assert DEFAULT_CHAOS_SPECS["cloud.allocate"].probability >= 0.10
        assert len(DEFAULT_CHAOS_SPECS["cloud.preempt"].schedule) >= 2
        assert DEFAULT_CHAOS_SPECS["sensor.capture"].probability >= 0.05
        assert set(DEFAULT_CHAOS_SPECS) <= set(FAULT_SITES)
        assert set(CHAOS_ACCURACY_BOUNDS) == {"exp1", "exp2", "exp3"}

    def test_default_plan_is_fresh_per_call(self):
        plan = default_chaos_plan(seed=3)
        assert plan.seed == 3
        assert plan.total_fires == 0
        assert plan.specs == DEFAULT_CHAOS_SPECS


class TestRunChaos:
    def test_exp1_storm_completes_within_bound(self):
        report = run_chaos("exp1", quick=True, seed=1)
        assert report.passed
        assert report.accuracy >= CHAOS_ACCURACY_BOUNDS["exp1"]
        assert report.bound == CHAOS_ACCURACY_BOUNDS["exp1"]
        # The storm actually struck and the pipeline actually recovered.
        assert report.total_faults > 0
        assert report.retries > 0
        assert report.total_faults == sum(report.faults_injected.values())
        assert "within bound" in str(report)

    def test_ledger_is_per_run_not_cumulative(self):
        first = run_chaos("exp1", quick=True, seed=1)
        second = run_chaos("exp1", quick=True, seed=1)
        assert first.faults_injected == second.faults_injected
        assert first.retries == second.retries
        assert first.accuracy == second.accuracy

    def test_unknown_experiment_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_chaos("exp9")


class TestEmptyPlanBitIdentity:
    def test_empty_plan_matches_plain_run(self):
        """An installed-but-empty plan must not perturb the pipeline."""
        config = Experiment1Config.quick(seed=5)
        plain = run_experiment1(config)
        with fault_plan(FaultPlan(seed=5, specs={})):
            stormless = run_experiment1(config)
        assert bundle_to_dict(plain.bundle) == bundle_to_dict(
            stormless.bundle
        )
        assert (
            plain.recovery_score.accuracy
            == stormless.recovery_score.accuracy
        )


def _chaos_sweep(seeds, **kwargs):
    """``repro chaos sweep``: an experiment sweep under the default plan."""
    return experiment_sweep("exp1", seeds, quick=True,
                            fault_plan=default_chaos_plan(), **kwargs)


class TestChaosSweep:
    def test_sweep_is_jobs_independent(self):
        seeds = [1, 2]
        sequential = _chaos_sweep(seeds, jobs=1)
        sharded = _chaos_sweep(seeds, jobs=2)
        assert sequential.values == sharded.values
        assert sequential.seeds == sharded.seeds

    def test_sweep_resumes_from_journal(self, tmp_path):
        journal_path = tmp_path / "chaos.journal"
        seeds = [1, 2]
        full = _chaos_sweep(seeds, journal_path=journal_path)
        resumed = _chaos_sweep(seeds, journal_path=journal_path)
        assert resumed.values == full.values

    def test_sweep_needs_seeds(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            _chaos_sweep([])
