"""Tests for the parallel scenario-sweep subsystem (:mod:`repro.engine.sweep`)."""

import pickle

import numpy as np
import pytest

from repro.api import LifetimeProblem, RunOptions, ScenarioBatch, SweepCache, SweepSpec, scenario_fingerprint
from repro.battery.parameters import KiBaMParameters
from repro.engine.sweep import CACHE_SCHEMA_VERSION, SweepScenarioError, _partition, default_worker_count, run_sweep
from repro.workload.onoff import onoff_workload

TIMES = np.linspace(2000.0, 6000.0, 9)


def small_battery(capacity: float = 2400.0) -> KiBaMParameters:
    return KiBaMParameters(capacity=capacity, c=1.0, k=0.0)


@pytest.fixture(scope="module")
def spec() -> SweepSpec:
    return SweepSpec(
        workloads=[onoff_workload(frequency=f, erlang_k=1) for f in (0.5, 1.0)],
        batteries=[small_battery(2000.0), small_battery(2400.0)],
        times=TIMES,
        deltas=[50.0],
        methods=["mrm-uniformization"],
    )


class TestSweepSpec:
    def test_cross_product_size_and_order(self, spec):
        problems, methods = spec.scenarios()
        assert len(problems) == len(spec) == 4
        assert methods == ["mrm-uniformization"] * 4
        # Workload-major order: the first two scenarios share workload 0.
        assert problems[0].workload is problems[1].workload
        assert problems[0].battery.capacity == 2000.0
        assert problems[1].battery.capacity == 2400.0

    def test_labels_name_the_axes(self, spec):
        problems, _ = spec.scenarios()
        assert "C=2000" in problems[0].label
        assert "Delta=50" in problems[0].label
        assert "f = 0.5" in problems[0].label

    def test_per_scenario_child_seeds(self, spec):
        problems, _ = spec.scenarios()
        seeds = [problem.seed for problem in problems]
        assert len(set(seeds)) == len(seeds)
        # Re-expanding the same spec gives the same seeds.
        again, _ = spec.scenarios()
        assert [problem.seed for problem in again] == seeds

    def test_catalog_names_resolve(self):
        spec = SweepSpec(
            workloads=["simple", "burst"],
            batteries=[small_battery()],
            times=TIMES,
        )
        problems, _ = spec.scenarios()
        assert problems[0].workload.n_states == 3
        assert problems[1].workload.n_states == 5
        assert problems[0].label.startswith("simple")

    def test_method_axis_expands(self):
        spec = SweepSpec(
            workloads=[onoff_workload(frequency=1.0)],
            batteries=[small_battery()],
            times=TIMES,
            methods=["analytic", "monte-carlo"],
        )
        problems, methods = spec.scenarios()
        assert methods == ["analytic", "monte-carlo"]
        assert "analytic" in problems[0].label

    def test_empty_axis_rejected(self):
        spec = SweepSpec(workloads=[], batteries=[small_battery()], times=TIMES)
        with pytest.raises(ValueError):
            spec.scenarios()


class TestFingerprint:
    def test_label_does_not_change_fingerprint(self):
        problem = LifetimeProblem(
            workload=onoff_workload(frequency=1.0),
            battery=small_battery(),
            times=TIMES,
            delta=50.0,
        )
        relabelled = problem.with_label("other name")
        assert scenario_fingerprint(problem, "analytic") == scenario_fingerprint(
            relabelled, "analytic"
        )

    def test_solver_knobs_change_fingerprint(self):
        problem = LifetimeProblem(
            workload=onoff_workload(frequency=1.0),
            battery=small_battery(),
            times=TIMES,
            delta=50.0,
        )
        base = scenario_fingerprint(problem, "mrm-uniformization")
        assert scenario_fingerprint(problem, "monte-carlo") != base
        assert scenario_fingerprint(problem.with_delta(25.0), "mrm-uniformization") != base
        from dataclasses import replace

        assert (
            scenario_fingerprint(replace(problem, epsilon=1e-6), "mrm-uniformization")
            != base
        )

    def test_seed_only_matters_for_stochastic_solvers(self):
        # Deterministic solvers ignore (seed, n_runs, horizon), so a grown
        # SweepSpec -- whose per-position child seeds shift -- still hits
        # the cache for every unchanged deterministic scenario.
        from dataclasses import replace

        problem = LifetimeProblem(
            workload=onoff_workload(frequency=1.0),
            battery=small_battery(),
            times=TIMES,
            delta=50.0,
        )
        reseeded = replace(problem, seed=1, n_runs=77)
        for method in ("analytic", "mrm-uniformization"):
            assert scenario_fingerprint(problem, method) == scenario_fingerprint(
                reseeded, method
            )
        assert scenario_fingerprint(problem, "monte-carlo") != scenario_fingerprint(
            reseeded, "monte-carlo"
        )

    def test_fingerprints_are_pinned(self):
        # Existing cache directories keep hitting only while these hex
        # strings (and the envelope version) stay what earlier releases
        # wrote; a change here must bump CACHE_SCHEMA_VERSION on purpose.
        from repro.multibattery import MultiBatteryProblem
        from repro.workload.base import WorkloadModel

        workload = WorkloadModel(
            state_names=("busy", "idle"),
            generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
            currents=np.array([1.0, 0.05]),
            initial_distribution=np.array([1.0, 0.0]),
        )
        battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
        times = np.linspace(0.0, 300.0, 16)
        single = LifetimeProblem(
            workload=workload, battery=battery, times=times, delta=2.0, epsilon=1e-6
        )
        bank = MultiBatteryProblem(
            workload=workload,
            batteries=(battery, battery),
            times=times,
            delta=7.5,
            policy="round-robin",
            failures_to_die=1,
        )
        assert CACHE_SCHEMA_VERSION == 1
        assert scenario_fingerprint(single, "mrm-uniformization") == (
            "d173f4f7f846e9066b1f3239c11bc3d7f603fd78cb3548083e620274f79e45e8"
        )
        assert scenario_fingerprint(bank, "mrm-uniformization") == (
            "4ea5baeb332de2a5ed1b95d5b92073f806b34be554cf788dbe0d0c1763f1a2ae"
        )


class TestRunSweep:
    def test_serial_and_parallel_identical(self, spec):
        serial = run_sweep(spec, options=RunOptions(max_workers=1))
        parallel = run_sweep(spec, options=RunOptions(max_workers=2))
        assert not serial.diagnostics["parallel"]
        assert parallel.diagnostics["parallel"]
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.probabilities, b.probabilities)
            assert a.label == b.label

    def test_results_in_scenario_order(self, spec):
        problems, _ = spec.scenarios()
        outcome = run_sweep(spec, options=RunOptions(max_workers=2))
        assert outcome.labels == [problem.label for problem in problems]
        for problem, result in zip(problems, outcome):
            single = ScenarioBatch([problem]).run("mrm-uniformization")[0]
            assert np.allclose(single.probabilities, result.probabilities, atol=1e-12)

    def test_batch_and_problem_list_inputs(self, spec):
        problems, _ = spec.scenarios()
        from_list = run_sweep(problems, "mrm-uniformization", options=RunOptions(max_workers=1))
        from_batch = run_sweep(ScenarioBatch(problems), "mrm-uniformization", options=RunOptions(max_workers=1))
        for a, b in zip(from_list, from_batch):
            assert np.array_equal(a.probabilities, b.probabilities)

    def test_monte_carlo_independent_of_worker_count(self):
        spec = SweepSpec(
            workloads=[onoff_workload(frequency=0.05)],
            batteries=[small_battery(120.0), small_battery(240.0)],
            times=np.linspace(100.0, 1200.0, 12),
            methods=["monte-carlo"],
            n_runs=300,
        )
        one = run_sweep(spec, options=RunOptions(max_workers=1))
        two = run_sweep(spec, options=RunOptions(max_workers=2))
        for a, b in zip(one, two):
            assert np.array_equal(a.probabilities, b.probabilities)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([])

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_worker_failures_name_the_scenario(self, max_workers):
        """Regression: a failing scenario surfaces with its label attached.

        The analytic solver rejects three-current workloads, so forcing it
        on a sweep that contains one makes exactly that scenario blow up
        inside the worker; the re-raised error must identify it instead of
        surfacing as a bare solver exception.
        """
        from repro.workload.simple import simple_workload

        good = LifetimeProblem(
            workload=onoff_workload(frequency=0.5, erlang_k=1),
            battery=small_battery(2000.0),
            times=TIMES,
            label="solvable on/off scenario",
        )
        # The cell-phone workload draws three distinct currents.
        bad = LifetimeProblem(
            workload=simple_workload(),
            battery=small_battery(2000.0),
            times=TIMES,
            label="three-current scenario",
        )
        assert bad.n_current_levels > 2
        with pytest.raises(SweepScenarioError) as caught:
            run_sweep([good, bad], "analytic", options=RunOptions(max_workers=max_workers))
        assert "three-current scenario" in str(caught.value)
        assert caught.value.labels == ("three-current scenario",)
        assert "UnsupportedProblemError" in str(caught.value)

    def test_sweep_diagnostics(self, spec):
        outcome = run_sweep(spec, options=RunOptions(max_workers=2))
        diagnostics = outcome.diagnostics
        assert diagnostics["n_scenarios"] == 4
        assert diagnostics["n_solved"] == 4
        assert diagnostics["cache_hits"] == 0
        assert diagnostics["methods"] == ["mrm-uniformization"]
        assert diagnostics["wall_seconds"] > 0
        for result in outcome:
            assert result.diagnostics["cache_hit"] is False


class TestSweepCache:
    def test_rerun_is_served_from_cache(self, spec):
        cache = SweepCache()
        first = run_sweep(spec, options=RunOptions(max_workers=1, cache=cache))
        second = run_sweep(spec, options=RunOptions(max_workers=1, cache=cache))
        assert second.diagnostics["n_solved"] == 0
        assert second.diagnostics["cache_hits"] == len(spec)
        for a, b in zip(first, second):
            assert np.array_equal(a.probabilities, b.probabilities)
            assert a.label == b.label
            assert b.diagnostics["cache_hit"] is True
            # The cache hit must not have mutated the first run's results.
            assert a.diagnostics["cache_hit"] is False

    def test_cache_shared_between_serial_and_parallel(self, spec):
        cache = SweepCache()
        run_sweep(spec, options=RunOptions(max_workers=2, cache=cache))
        again = run_sweep(spec, options=RunOptions(max_workers=1, cache=cache))
        assert again.diagnostics["n_solved"] == 0

    def test_disk_cache_survives_new_instance(self, spec, tmp_path):
        first = run_sweep(spec, options=RunOptions(max_workers=1, cache=SweepCache(tmp_path)))
        fresh = SweepCache(tmp_path)
        second = run_sweep(spec, options=RunOptions(max_workers=1, cache=fresh))
        assert second.diagnostics["n_solved"] == 0
        for a, b in zip(first, second):
            assert np.array_equal(a.probabilities, b.probabilities)

    def test_cache_dir_convenience(self, spec, tmp_path):
        run_sweep(spec, options=RunOptions(max_workers=1, cache_dir=tmp_path))
        second = run_sweep(spec, options=RunOptions(max_workers=1, cache_dir=tmp_path))
        assert second.diagnostics["n_solved"] == 0

    def test_corrupt_disk_entry_is_resolved(self, spec, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(spec, options=RunOptions(max_workers=1, cache=cache))
        for entry in tmp_path.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        fresh = SweepCache(tmp_path)
        outcome = run_sweep(spec, options=RunOptions(max_workers=1, cache=fresh))
        # Corrupt entries fall back to solving.
        assert outcome.diagnostics["n_solved"] == len(spec)

    def test_hit_is_relabelled_for_new_scenario_label(self):
        problem = LifetimeProblem(
            workload=onoff_workload(frequency=1.0),
            battery=small_battery(),
            times=TIMES,
            delta=50.0,
            label="first name",
        )
        cache = SweepCache()
        run_sweep([problem], "mrm-uniformization", options=RunOptions(max_workers=1, cache=cache))
        renamed = problem.with_label("second name")
        outcome = run_sweep([renamed], "mrm-uniformization", options=RunOptions(max_workers=1, cache=cache))
        assert outcome.diagnostics["cache_hits"] == 1
        assert outcome[0].label == "second name"

    def test_stats(self, spec):
        cache = SweepCache()
        run_sweep(spec, options=RunOptions(max_workers=1, cache=cache))
        stats = cache.stats()
        assert stats["entries"] == len(spec)
        assert stats["misses"] == len(spec)
        assert stats["hits"] == 0
        # A memory-only cache has nothing on disk and nothing quarantined.
        assert stats["disk_entries"] == 0
        assert stats["disk_hits"] == 0
        assert stats["quarantined"] == 0


class TestCacheVersioning:
    @staticmethod
    def _solved(spec, tmp_path) -> SweepCache:
        cache = SweepCache(tmp_path)
        run_sweep(spec, options=RunOptions(max_workers=1, cache=cache))
        return cache

    def test_entries_are_version_stamped_envelopes(self, spec, tmp_path):
        from repro import __version__

        self._solved(spec, tmp_path)
        paths = list(tmp_path.glob("*.pkl"))
        assert len(paths) == len(spec)
        for path in paths:
            envelope = pickle.loads(path.read_bytes())
            assert envelope["schema"] == CACHE_SCHEMA_VERSION
            assert envelope["repro_version"] == __version__
            assert envelope["fingerprint"] == path.stem

    def test_stale_schema_entries_are_quarantined_not_served(self, spec, tmp_path):
        self._solved(spec, tmp_path)
        for path in tmp_path.glob("*.pkl"):
            envelope = pickle.loads(path.read_bytes())
            envelope["schema"] = CACHE_SCHEMA_VERSION + 1
            path.write_bytes(pickle.dumps(envelope))
        fresh = SweepCache(tmp_path)
        outcome = run_sweep(spec, options=RunOptions(max_workers=1, cache=fresh))
        # Nothing stale was served: every scenario was re-solved, and the
        # evidence survives as *.corrupt files next to the fresh entries.
        assert outcome.diagnostics["n_solved"] == len(spec)
        assert fresh.stats()["quarantined"] == len(spec)
        assert len(list(tmp_path.glob("*.corrupt"))) == len(spec)
        assert fresh.stats()["disk_entries"] == len(spec)

    def test_legacy_bare_pickles_are_quarantined(self, spec, tmp_path):
        self._solved(spec, tmp_path)
        # The pre-envelope format persisted the bare result object.
        for path in tmp_path.glob("*.pkl"):
            envelope = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps(envelope["result"]))
        fresh = SweepCache(tmp_path)
        outcome = run_sweep(spec, options=RunOptions(max_workers=1, cache=fresh))
        assert outcome.diagnostics["n_solved"] == len(spec)
        assert fresh.stats()["quarantined"] == len(spec)

    def test_unreadable_entries_are_quarantined(self, spec, tmp_path):
        self._solved(spec, tmp_path)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        fresh = SweepCache(tmp_path)
        run_sweep(spec, options=RunOptions(max_workers=1, cache=fresh))
        assert fresh.stats()["quarantined"] == len(spec)

    def test_stats_report_disk_entries_and_disk_hits(self, spec, tmp_path):
        cache = self._solved(spec, tmp_path)
        assert cache.stats()["disk_entries"] == len(spec)
        assert cache.stats()["disk_hits"] == 0
        fresh = SweepCache(tmp_path)
        run_sweep(spec, options=RunOptions(max_workers=1, cache=fresh))
        stats = fresh.stats()
        assert stats["disk_hits"] == len(spec)
        assert stats["hits"] == len(spec)
        assert stats["entries"] == len(spec)

    def test_memory_only_put_skips_the_disk(self, tmp_path):
        problem = LifetimeProblem(
            workload=onoff_workload(frequency=1.0),
            battery=small_battery(),
            times=TIMES,
            delta=50.0,
        )
        result = run_sweep([problem], "mrm-uniformization", options=RunOptions(max_workers=1))[0]
        cache = SweepCache(tmp_path)
        cache.put("a" * 16, result, memory_only=True)
        assert cache.stats()["entries"] == 1
        assert cache.stats()["disk_entries"] == 0
        cache.put("b" * 16, result)
        assert cache.stats()["disk_entries"] == 1


class TestSweepScenarioErrorPickling:
    def test_round_trip_preserves_message_and_labels(self):
        error = SweepScenarioError("scenario 'x' failed: boom", ("x", "y"))
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SweepScenarioError)
        assert str(clone) == str(error)
        assert clone.labels == ("x", "y")

    def test_round_trip_with_default_labels(self):
        clone = pickle.loads(pickle.dumps(SweepScenarioError("bare")))
        assert clone.labels == ()


class TestPartitioning:
    def test_chain_mates_stay_together(self):
        # Two capacities of the same transfer-free chain must land in one
        # chunk (so the worker can run them as one blocked pass), while a
        # different workload may go elsewhere.
        workload_a = onoff_workload(frequency=0.5, erlang_k=1)
        workload_b = onoff_workload(frequency=1.0, erlang_k=1)
        problems = [
            LifetimeProblem(workload=workload_a, battery=small_battery(2000.0), times=TIMES, delta=50.0),
            LifetimeProblem(workload=workload_a, battery=small_battery(2400.0), times=TIMES, delta=50.0),
            LifetimeProblem(workload=workload_b, battery=small_battery(2400.0), times=TIMES, delta=50.0),
        ]
        scenarios = [
            (index, problem, "mrm-uniformization")
            for index, problem in enumerate(problems)
        ]
        chunks = _partition(scenarios, 2)
        assert len(chunks) == 2
        for chunk in chunks:
            for indices, method, members in chunk:
                assert method == "mrm-uniformization"
                if 0 in indices or 1 in indices:
                    assert set(indices) == {0, 1}

    def test_partition_caps_at_group_count(self):
        problem = LifetimeProblem(
            workload=onoff_workload(frequency=1.0),
            battery=small_battery(),
            times=TIMES,
            delta=50.0,
        )
        chunks = _partition([(0, problem, "mrm-uniformization")], 8)
        assert len(chunks) == 1

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_equal_cost_groups_partition_deterministically(self):
        # Monte-Carlo scenarios with the same n_runs all estimate the same
        # cost, so the LPT tie-break (first scenario index) is what keeps
        # the assignment stable -- it must depend only on the scenario list.
        scenarios = [
            (
                index,
                LifetimeProblem(
                    workload=onoff_workload(frequency=1.0),
                    battery=small_battery(),
                    times=TIMES,
                    delta=50.0,
                    seed=index,
                    label=f"mc scenario {index}",
                ),
                "monte-carlo",
            )
            for index in range(4)
        ]

        def shape(chunks):
            return [[indices for indices, _, _ in chunk] for chunk in chunks]

        first = shape(_partition(scenarios, 2))
        # Equal costs fall back to first-index order, round-robined by the
        # greedy least-loaded rule.
        assert first == [[[0], [2]], [[1], [3]]]
        assert shape(_partition(scenarios, 2)) == first
