"""Integration tests: the three experiment drivers (quick configs)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.analysis.timeseries import length_class
from repro.experiments import (
    Experiment1Config,
    Experiment2Config,
    Experiment3Config,
    render_experiment_panels,
    run_experiment1,
    run_experiment2,
    run_experiment3,
)
from tests.oracles.aging import reference_aging


class TestConfigs:
    def test_paper_configs_match_protocol(self):
        config = Experiment1Config.paper()
        assert len(config.route_lengths) == 64
        assert config.burn_hours == 200
        assert config.recovery_hours == 200
        assert Experiment2Config.paper().heater_dsps == 3896
        assert Experiment3Config.paper().recovery_hours == 25
        assert Experiment3Config.paper().conditioned_to == 0

    def test_quick_configs_preserve_structure(self):
        for config in (Experiment1Config.quick(), Experiment2Config.quick(),
                       Experiment3Config.quick()):
            classes = {length_class(l) for l in config.route_lengths}
            assert classes == {1000.0, 2000.0, 5000.0, 10000.0}

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            Experiment1Config(routes_per_length=0)
        with pytest.raises(ConfigurationError):
            Experiment3Config(conditioned_to=2)


class TestExperiment1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment1(Experiment1Config.quick(seed=5))

    def test_full_bit_recovery(self, result):
        assert result.recovery_score.accuracy == 1.0

    def test_burn_direction_by_value(self, result):
        for series in result.bundle:
            burn_window = series.window(0.0, result.stress_change_hour)
            end = burn_window.centered[-1]
            if series.burn_value == 1:
                assert end > 0.0
            else:
                assert end < 0.0

    def test_magnitude_grows_with_length(self, result):
        bands = [result.magnitude_band(L)[1]
                 for L in (1000.0, 2000.0, 5000.0, 10000.0)]
        assert bands == sorted(bands)

    def test_burn_one_routes_recover(self, result):
        for series in result.bundle:
            if series.burn_value != 1:
                continue
            burn_end = series.window(0.0, result.stress_change_hour).centered[-1]
            final = series.centered[-1]
            assert final < burn_end  # moved back towards / below zero

    def test_panels_render(self, result):
        text = render_experiment_panels(
            result.bundle, "Fig6", stress_change_hour=result.stress_change_hour
        )
        assert text.count("ps routes") == 4


class TestExperiment2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment2(Experiment2Config.quick(seed=5))

    def test_recovery_above_chance(self, result):
        assert result.recovery_score.accuracy >= 0.75

    def test_long_routes_recover_reliably(self, result):
        accuracy = result.accuracy_by_length()
        assert accuracy[10000.0] == 1.0

    def test_cloud_magnitudes_smaller_than_lab(self, result):
        lab = run_experiment1(Experiment1Config.quick(seed=5))
        cloud_band = result.magnitude_band(10000.0)[1]
        lab_band = lab.magnitude_band(10000.0)[1]
        assert cloud_band < lab_band


class TestExperiment3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment3(Experiment3Config.quick(seed=19))

    def test_recovery_above_chance(self, result):
        assert result.recovery_score.accuracy >= 0.7

    def test_all_boards_probed(self, result):
        assert result.devices_probed == result.config.fleet_size

    def test_burn_one_routes_show_recovery_transient(self, result):
        """Figure 8: purple routes decrease relative to cyan ones."""
        burn1_ends, burn0_ends = [], []
        for series in result.bundle:
            if length_class(series.nominal_delay_ps) < 5000.0:
                continue
            scaled = series.centered[-1] / (series.nominal_delay_ps / 1000.0)
            (burn1_ends if series.burn_value == 1 else burn0_ends).append(scaled)
        assert np.mean(burn1_ends) < np.mean(burn0_ends)

    def test_series_start_at_attack_time(self, result):
        for series in result.bundle:
            assert series.hours[0] == 0.0  # attacker's clock, not victim's

    def test_identification_recorded(self, result):
        ident = result.identification
        assert len(ident.scores) == result.devices_probed
        assert list(ident.devices) == list(ident.scores)
        assert ident.chosen == result.bundle.label
        assert ident.scores[ident.chosen] == max(ident.scores.values())
        runner_up = sorted(ident.scores.values())[-2]
        assert ident.gap == ident.scores[ident.chosen] - runner_up >= 0.0
        assert result.victim_board in ident.scores


class TestVictimIdentification:
    """Threat Model 2 must take the victim's own board out of the haul
    (ROADMAP item 2: the identification rule still misses some seeds)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_true_victim_chosen(self, seed):
        result = run_experiment3(Experiment3Config.quick(seed=seed))
        assert result.identification.chosen == result.victim_board

    def test_board_labels_match_fresh_processes(self):
        """Board labels follow probe order: seeds 1-3 run back to back
        in one process name the boards as a fresh process per seed
        does, though the provider's instance ids keep counting."""
        def labels(result):
            ident = result.identification
            return [list(ident.scores), ident.chosen, result.victim_board]

        code = (
            "import json, sys\n"
            "from repro.experiments import Experiment3Config, "
            "run_experiment3\n"
            "r = run_experiment3(Experiment3Config.quick("
            "seed=int(sys.argv[1])))\n"
            "i = r.identification\n"
            "print(json.dumps([list(i.scores), i.chosen, r.victim_board]))\n"
        )
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        fresh = [
            subprocess.Popen([sys.executable, "-c", code, str(seed)],
                             stdout=subprocess.PIPE, text=True, env=env)
            for seed in (1, 2, 3)
        ]
        in_process = [
            labels(run_experiment3(Experiment3Config.quick(seed=seed)))
            for seed in (1, 2, 3)
        ]
        outputs = [proc.communicate(timeout=300)[0] for proc in fresh]
        assert [json.loads(out) for out in outputs] == in_process
        assert in_process[0][0] == ["tm2-board-0", "tm2-board-1"]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: exp3 --quick seed 64 picks the null board",
    )
    def test_true_victim_chosen_seed_64(self):
        result = run_experiment3(Experiment3Config.quick(seed=64))
        assert result.identification.chosen == result.victim_board


class TestAgingKernelEquality:
    """Acceptance pin: the experiments report identical recovery
    accuracy on the array aging engine and the per-segment oracle."""

    @pytest.mark.parametrize("config_cls,runner,seed", [
        (Experiment1Config, run_experiment1, 5),
        (Experiment2Config, run_experiment2, 5),
        (Experiment3Config, run_experiment3, 19),
    ], ids=["exp1", "exp2", "exp3"])
    def test_accuracy_identical_under_both_kernels(
        self, config_cls, runner, seed
    ):
        vectorised = runner(config_cls.quick(seed=seed))
        with reference_aging():
            reference = runner(config_cls.quick(seed=seed))
        assert (vectorised.recovery_score.accuracy
                == reference.recovery_score.accuracy)
        assert (vectorised.recovery_score.per_route
                == reference.recovery_score.per_route)
