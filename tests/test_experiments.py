"""Tests for the experiment registry and the cheap experiment drivers.

The expensive figure reproductions are exercised by the benchmark harness;
here we test the registry plumbing and run the drivers that are fast enough
for a unit-test suite (Table 1 with few stochastic runs and Figure 2).
"""

import numpy as np
import pytest

from repro.experiments import figure2, table1
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentResult,
    available_experiments,
    get_experiment,
)


class TestRegistry:
    def test_all_paper_artefacts_are_registered(self):
        names = available_experiments()
        expected = {
            "table1",
            "figure2",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "ablation_delta",
            "ablation_erlang",
        }
        assert expected.issubset(set(names))

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("figure99")

    def test_config_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        monkeypatch.setenv("REPRO_SIM_RUNS", "17")
        config = ExperimentConfig.from_environment()
        assert config.full is True
        assert config.n_simulation_runs == 17

    def test_config_default_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_SIM_RUNS", raising=False)
        config = ExperimentConfig.from_environment()
        assert config.full is False
        assert config.n_simulation_runs == 1000

    def test_result_rendering(self):
        result = ExperimentResult(
            experiment_id="x",
            title="demo",
            tables={"t": "a  b"},
            paper_reference={"k": "v"},
            notes=["note"],
        )
        text = result.render()
        assert "demo" in text and "a  b" in text and "note" in text


class TestTable1Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(ExperimentConfig(full=False, n_simulation_runs=10, seed=1))

    def test_kibam_column_matches_paper(self, result):
        data = result.data
        assert data["continuous"]["kibam_min"] == pytest.approx(91.0, abs=1.0)
        assert data["1 Hz"]["kibam_min"] == pytest.approx(203.0, abs=1.5)
        assert data["0.2 Hz"]["kibam_min"] == pytest.approx(203.0, abs=1.5)

    def test_modified_column_matches_paper(self, result):
        data = result.data
        assert data["continuous"]["modified_numerical_min"] == pytest.approx(89.0, abs=1.5)
        assert data["1 Hz"]["modified_numerical_min"] == pytest.approx(193.0, abs=2.5)
        assert data["0.2 Hz"]["modified_numerical_min"] == pytest.approx(193.0, abs=2.5)

    def test_kibam_is_frequency_independent(self, result):
        data = result.data
        assert data["1 Hz"]["kibam_min"] == pytest.approx(data["0.2 Hz"]["kibam_min"], rel=0.01)

    def test_fitted_k_close_to_paper_constant(self, result):
        assert result.data["fitted_k_per_second"] == pytest.approx(4.5e-5, rel=0.05)

    def test_rendered_table_mentions_all_workloads(self, result):
        text = result.tables["lifetimes"]
        for name in ("continuous", "1 Hz", "0.2 Hz"):
            assert name in text


class TestFigure2Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return figure2.run(ExperimentConfig(full=False, n_simulation_runs=10, seed=1))

    def test_initial_well_contents(self, result):
        assert result.data["available"][0] == pytest.approx(4500.0)
        assert result.data["bound"][0] == pytest.approx(2700.0)

    def test_bound_charge_monotonically_decreases(self, result):
        bound = np.asarray(result.data["bound"])
        assert np.all(np.diff(bound) <= 1e-6)

    def test_available_charge_sawtooths(self, result):
        available = np.asarray(result.data["available"])
        assert np.any(np.diff(available) > 1e-6)
        assert np.any(np.diff(available) < -1e-6)

    def test_lifetime_shortly_after_12000_seconds(self, result):
        assert 11000.0 < result.data["lifetime_seconds"] < 13500.0


class TestDurableCachePlumbing:
    def test_config_reads_cache_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/some-cache")
        monkeypatch.setenv("REPRO_RESUME", "1")
        config = ExperimentConfig.from_environment()
        assert config.cache_dir == "/tmp/some-cache"
        assert config.resume is True

    def test_config_cache_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_RESUME", raising=False)
        config = ExperimentConfig.from_environment()
        assert config.cache_dir is None
        assert config.resume is False

    def test_sweep_options_without_config(self):
        from repro.api import RunOptions
        from repro.experiments.common import sweep_options

        assert sweep_options(None) == RunOptions(max_workers=1)

    def test_sweep_options_thread_cache_and_progress(self, monkeypatch, tmp_path):
        from repro.api import SweepCache
        from repro.experiments import common

        monkeypatch.setattr(common, "_SHARED_CACHES", {})
        config = ExperimentConfig(workers=2, cache_dir=str(tmp_path), progress=True)
        options = common.sweep_options(config)
        assert options.max_workers == 2
        assert isinstance(options.cache, SweepCache)
        # --progress hands the stderr printer to the sweep as its callback.
        assert options.progress is common.print_sweep_progress
        assert common.sweep_options(ExperimentConfig()).progress is None
        # The same directory maps to the same cache instance, so hit and
        # resume counters aggregate across all drivers of one run.
        assert common.sweep_options(config).cache is options.cache

    def test_warm_directory_requires_resume(self, monkeypatch, tmp_path):
        from repro.experiments import common

        monkeypatch.setattr(common, "_SHARED_CACHES", {})
        (tmp_path / "deadbeef.pkl").write_bytes(b"x")
        with pytest.raises(ValueError, match="pass --resume"):
            common.shared_cache(tmp_path)
        assert common.shared_cache(tmp_path, resume=True) is not None

    def test_cache_summary_reports_hits_and_resumes(self, monkeypatch, tmp_path):
        from repro.experiments import common
        from repro.experiments.runner import cache_summary

        monkeypatch.setattr(common, "_SHARED_CACHES", {})
        config = ExperimentConfig(cache_dir=str(tmp_path))
        assert cache_summary(config) is None  # no sweep opened the cache yet
        common.shared_cache(tmp_path)
        summary = cache_summary(config)
        assert summary is not None
        assert "cache_hit: 0" in summary
        assert "resumed_hits: 0" in summary
        assert cache_summary(ExperimentConfig()) is None
