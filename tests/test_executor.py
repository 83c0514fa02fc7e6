"""Tests of the fault-tolerant sweep execution layer.

The deterministic ``REPRO_FAULTS`` injectors (:mod:`repro.engine.faults`)
drive the retry, isolation, degradation, timeout, pool-rebuild and
kill-resume paths of :mod:`repro.engine.executor` end-to-end through
:func:`run_sweep`; the retry driver itself (:func:`execute_chunks`) is
additionally unit-tested against a stub workload so its accounting is
checked without solving anything.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import closing, nullcontext

import numpy as np
import pytest

from repro import obs
from repro.api import ExecutionPolicy, RunOptions, SweepCache, SweepSpec
from repro.battery.parameters import KiBaMParameters
from repro.engine.diagnostics import validate_diagnostics
from repro.engine.executor import (
    ChunkTask,
    ExecutionStats,
    SerialChunkExecutor,
    execute_chunks,
)
from repro.engine.faults import (
    ENV_VAR,
    FaultDirective,
    FaultPlan,
    InjectedFaultError,
    faults_spec,
    override_faults,
    parse_faults,
)
from repro.engine.sweep import FAILED_METHOD, SweepScenarioError, run_sweep

TIMES = np.linspace(10.0, 400.0, 12)

#: Three single-battery scenarios with distinct chains (distinct capacities)
#: so one serial chunk carries three chain-sharing groups -- the smallest
#: sweep on which chunk splitting isolates a poison scenario.
SPEC = SweepSpec(
    workloads=["simple"],
    batteries=[KiBaMParameters(capacity=60.0 + 20.0 * i, c=0.625, k=1e-3) for i in range(3)],
    times=TIMES,
    methods=["mrm-uniformization"],
)

#: Default test policy: no backoff sleeps, otherwise the shipped defaults.
FAST = ExecutionPolicy(backoff_base=0.0)
DEGRADE = ExecutionPolicy(backoff_base=0.0, failure_mode="degrade")


@pytest.fixture(scope="module")
def clean() -> "object":
    """The uninterrupted sweep every faulted run must reproduce exactly."""
    return run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST))


def assert_curves_match(result, reference, indices=None) -> None:
    positions = range(len(reference.results)) if indices is None else indices
    for index in positions:
        np.testing.assert_array_equal(
            result.results[index].probabilities,
            reference.results[index].probabilities,
        )


# ----------------------------------------------------------------------
# ExecutionPolicy
# ----------------------------------------------------------------------


class TestExecutionPolicy:
    def test_defaults_are_strict_with_retries(self) -> None:
        policy = ExecutionPolicy()
        assert policy.max_retries == 2
        assert policy.failure_mode == "strict"
        assert policy.chunk_timeout is None

    def test_backoff_is_capped_exponential(self) -> None:
        policy = ExecutionPolicy(backoff_base=1.0)
        assert policy.backoff(0) == pytest.approx(1.0)
        assert policy.backoff(1) == pytest.approx(2.0)
        assert policy.backoff(2) == pytest.approx(4.0)
        assert policy.backoff(5) == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"chunk_timeout": 0.0},
            {"backoff_base": -1.0},
            {"failure_mode": "explode"},
        ],
    )
    def test_invalid_knobs_are_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)


# ----------------------------------------------------------------------
# fault harness
# ----------------------------------------------------------------------


class TestFaultHarness:
    def test_parse_multiple_directives(self) -> None:
        directives = parse_faults("crash:rate=0.25:seed=7;hang:seconds=2:match=bursty")
        assert [d.kind for d in directives] == ["crash", "hang"]
        assert directives[0].rate == 0.25 and directives[0].seed == 7
        assert directives[1].seconds == 2.0 and directives[1].match == "bursty"

    def test_empty_spec_is_inert(self) -> None:
        assert parse_faults("") == ()
        assert not FaultPlan.from_spec("").enabled

    @pytest.mark.parametrize("spec", ["explode", "crash:rate", "crash:color=red"])
    def test_nonsense_specs_raise(self, spec) -> None:
        with pytest.raises(ValueError):
            parse_faults(spec)

    def test_chance_is_deterministic_and_seeded(self) -> None:
        directive = FaultDirective(kind="crash", seed=3)
        draw = directive.chance("scenario-a")
        assert 0.0 <= draw < 1.0
        assert directive.chance("scenario-a") == draw
        assert FaultDirective(kind="crash", seed=4).chance("scenario-a") != draw

    def test_fires_respects_match_rate_and_attempt(self) -> None:
        always = FaultDirective(kind="crash", match="C=80", max_attempt=1)
        assert always.fires("simple | C=80", attempt=0)
        assert not always.fires("simple | C=60", attempt=0)
        assert not always.fires("simple | C=80", attempt=1)
        assert not FaultDirective(kind="crash", rate=0.0).fires("anything", attempt=0)

    def test_override_wins_over_environment(self, monkeypatch) -> None:
        monkeypatch.setenv(ENV_VAR, "crash:rate=0.5")
        assert faults_spec() == "crash:rate=0.5"
        with override_faults("corrupt"):
            assert faults_spec() == "corrupt"
        assert faults_spec() == "crash:rate=0.5"

    def test_override_parses_eagerly(self) -> None:
        with pytest.raises(ValueError, match="unknown fault kind"):
            with override_faults("meltdown"):
                pass  # pragma: no cover - the with statement must raise

    def test_crash_injector_raises(self) -> None:
        plan = FaultPlan.from_spec("crash")
        with pytest.raises(InjectedFaultError, match="injected crash"):
            plan.before_scenario("any", attempt=0)


# ----------------------------------------------------------------------
# ChunkTask splitting and the retry driver (stubbed work, no solving)
# ----------------------------------------------------------------------


def _stub_task(groups) -> ChunkTask:
    return ChunkTask(task_id=0, groups=tuple(groups))


class TestChunkTask:
    GROUPS = (
        ((0, 1), "mrm-uniformization", ("p0", "p1")),
        ((2,), "mrm-uniformization", ("p2",)),
    )

    def test_indices_and_labels(self) -> None:
        task = _stub_task(self.GROUPS)
        assert task.indices == (0, 1, 2)
        assert task.n_scenarios == 3
        assert task.labels() == ("scenario #0", "scenario #1", "scenario #2")

    def test_split_multigroup_task_into_groups(self) -> None:
        pieces = _stub_task(self.GROUPS).split_groups()
        assert [piece[0][0] for piece in pieces] == [(0, 1), (2,)]

    def test_split_single_group_into_scenarios(self) -> None:
        pieces = _stub_task(self.GROUPS[:1]).split_groups()
        assert [piece[0][0] for piece in pieces] == [(0,), (1,)]

    def test_single_scenario_task_does_not_split(self) -> None:
        task = _stub_task(self.GROUPS[1:])
        assert task.split_groups() == [task.groups]


class TestExecuteChunks:
    @staticmethod
    def _flaky(fail_until: int):
        def work(task: ChunkTask):
            if task.attempt < fail_until:
                raise RuntimeError(f"boom at attempt {task.attempt}")
            return [(list(indices), [f"ok-{index}" for index in indices], False)
                    for indices, _, _ in task.groups]

        return work

    def test_retry_splits_and_completes(self) -> None:
        stats = ExecutionStats()
        outcomes = list(
            execute_chunks(
                [_stub_task(TestChunkTask.GROUPS)],
                SerialChunkExecutor(self._flaky(fail_until=1)),
                ExecutionPolicy(backoff_base=0.0),
                stats,
            )
        )
        assert all(outcome.error is None for outcome in outcomes)
        solved = {
            index: value
            for outcome in outcomes
            for indices, values, _ in outcome.payload
            for index, value in zip(indices, values)
        }
        assert solved == {0: "ok-0", 1: "ok-1", 2: "ok-2"}
        assert stats.n_retries == 1
        assert stats.n_splits == 1
        assert stats.n_failed_tasks == 0

    def test_exhausted_failure_reaches_on_failure(self) -> None:
        stats = ExecutionStats()
        outcomes = list(
            execute_chunks(
                [_stub_task(TestChunkTask.GROUPS)],
                SerialChunkExecutor(self._flaky(fail_until=99)),
                ExecutionPolicy(max_retries=1, backoff_base=0.0),
                stats,
            )
        )
        assert all(isinstance(outcome.error, RuntimeError) for outcome in outcomes)
        # The first failure split the chunk; both pieces then exhausted.
        assert sorted(outcome.task.indices for outcome in outcomes) == [(0, 1), (2,)]
        assert stats.n_failed_tasks == 2

    def test_strict_abort_propagates(self, monkeypatch) -> None:
        executor = SerialChunkExecutor(self._flaky(fail_until=99))
        shut_down: list[bool] = []
        monkeypatch.setattr(executor, "shutdown", lambda: shut_down.append(True))
        outcomes = execute_chunks(
            [_stub_task(TestChunkTask.GROUPS)],
            executor,
            ExecutionPolicy(max_retries=0, backoff_base=0.0),
            ExecutionStats(),
        )
        with pytest.raises(SweepScenarioError, match="abort"):
            with closing(outcomes):
                for outcome in outcomes:
                    raise SweepScenarioError("abort", outcome.task.labels())
        # Closing the generator shut the executor down.
        assert shut_down == [True]


# ----------------------------------------------------------------------
# retry / isolation / degradation through run_sweep (serial executor)
# ----------------------------------------------------------------------


class TestSweepFaultTolerance:
    def test_crash_once_is_retried_transparently(self, clean) -> None:
        with override_faults("crash:max_attempt=1"):
            result = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST))
        assert result.diagnostics["n_retries"] >= 1
        assert result.diagnostics["n_failed"] == 0
        assert_curves_match(result, clean)

    def test_strict_failure_names_exactly_the_poison_scenario(self) -> None:
        with override_faults("crash:match=C=80"):
            with pytest.raises(SweepScenarioError) as excinfo:
                run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST))
        assert excinfo.value.labels == ("simple | C=80, c=0.625, k=0.001",)
        assert "C=80" in str(excinfo.value)

    def test_degrade_isolates_the_poison_scenario(self, clean) -> None:
        with override_faults("crash:match=C=80"):
            result = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=DEGRADE))
        labels = [problem.label for problem in SPEC.scenarios()[0]]
        poisoned = labels.index("simple | C=80, c=0.625, k=0.001")
        assert result.failed_indices == [poisoned]
        assert result.diagnostics["n_failed"] == 1
        # The chunk-mates survived the poison scenario bit-identically.
        assert_curves_match(result, clean, [i for i in range(3) if i != poisoned])

    def test_degraded_slot_carries_a_schema_valid_failure_record(self) -> None:
        with override_faults("crash:match=C=80"):
            result = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=DEGRADE))
        slot = result.results[result.failed_indices[0]]
        assert slot.method == FAILED_METHOD
        assert np.all(np.isnan(slot.probabilities))
        validate_diagnostics(slot.diagnostics)
        record = slot.diagnostics["failure"]
        assert record["label"] == "simple | C=80, c=0.625, k=0.001"
        assert record["error_type"] == "SweepScenarioError"
        assert record["attempts"] == FAST.max_retries + 1
        assert record["timed_out"] is False
        assert result.diagnostics["failures"] == [record]

    def test_corrupt_result_is_detected_and_retried(self, clean) -> None:
        with override_faults("corrupt:max_attempt=1"):
            result = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST))
        assert result.diagnostics["n_retries"] >= 1
        assert_curves_match(result, clean)

    def test_persistent_corruption_degrades(self) -> None:
        with override_faults("corrupt:match=C=80"):
            result = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=DEGRADE))
        record = result.results[result.failed_indices[0]].diagnostics["failure"]
        assert record["error_type"] == "CorruptResultError"

    def test_progress_events_reach_the_callback(self) -> None:
        events = []
        result = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST, progress=events.append))
        assert events[0].done == 0 and events[0].total == 3
        assert events[-1].done == 3 and events[-1].failed == 0
        assert events[-1].eta_seconds == 0.0
        assert result.diagnostics["n_solved"] == 3


# ----------------------------------------------------------------------
# timeout, pool rebuild and parity (process executor)
# ----------------------------------------------------------------------


class TestProcessExecutorRecovery:
    def test_parallel_results_match_serial(self, clean) -> None:
        result = run_sweep(SPEC, options=RunOptions(max_workers=2, execution=FAST))
        assert result.diagnostics["executor"] == "process"
        assert result.diagnostics["parallel"] is True
        assert_curves_match(result, clean)

    def test_hung_chunk_is_timed_out_and_retried(self, clean) -> None:
        policy = ExecutionPolicy(backoff_base=0.0, chunk_timeout=2.0)
        with override_faults("hang:seconds=60:max_attempt=1:match=C=60"):
            result = run_sweep(SPEC, options=RunOptions(max_workers=2, execution=policy))
        assert result.diagnostics["n_timeouts"] >= 1
        assert result.diagnostics["n_pool_rebuilds"] >= 1
        assert result.diagnostics["n_failed"] == 0
        assert_curves_match(result, clean)

    def test_killed_worker_rebuilds_the_pool(self, clean) -> None:
        with override_faults("kill:max_attempt=1:match=C=80"):
            result = run_sweep(SPEC, options=RunOptions(max_workers=2, execution=FAST))
        assert result.diagnostics["n_pool_rebuilds"] >= 1
        assert result.diagnostics["n_retries"] >= 1
        assert result.diagnostics["n_failed"] == 0
        assert_curves_match(result, clean)

    def test_one_chunk_parallel_sweep_honours_the_timeout(self, clean) -> None:
        # A single chunk still runs in a worker process when a deadline is
        # set: the in-process executor could not reap the hung solve.
        spec = SweepSpec(
            workloads=SPEC.workloads, batteries=SPEC.batteries[:1], times=SPEC.times, methods=SPEC.methods
        )
        policy = ExecutionPolicy(backoff_base=0.0, chunk_timeout=2.0)
        with override_faults("hang:seconds=6:max_attempt=1"):
            result = run_sweep(spec, options=RunOptions(max_workers=2, execution=policy))
        assert result.diagnostics["n_chunks"] == 1
        assert result.diagnostics["executor"] == "process"
        assert result.diagnostics["n_timeouts"] == 1
        assert result.diagnostics["n_failed"] == 0
        assert_curves_match(result, clean, [0])

    def test_strict_failure_kills_the_chunk_still_in_flight(self) -> None:
        policy = ExecutionPolicy(max_retries=0, backoff_base=0.0)
        started = time.monotonic()
        with override_faults("hang:seconds=60:match=C=100;crash:match=C=80"):
            with pytest.raises(SweepScenarioError) as excinfo:
                run_sweep(SPEC, options=RunOptions(max_workers=2, execution=policy))
        assert excinfo.value.labels == ("simple | C=80, c=0.625, k=0.001",)
        assert time.monotonic() - started < 30.0
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# checkpoint streaming and kill-resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_workers_stream_checkpoints_and_a_fresh_run_resumes(self, tmp_path, clean) -> None:
        first = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST, cache_dir=tmp_path))
        assert first.diagnostics["checkpointed"] == 3
        assert first.diagnostics["cache"]["disk_entries"] == 3
        # A brand-new process (fresh cache instance) resumes from disk.
        resumed = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST, cache_dir=tmp_path))
        assert resumed.diagnostics["resumed_hits"] == 3
        assert resumed.diagnostics["n_solved"] == 0
        assert resumed.diagnostics["cache_hits"] == 3
        assert_curves_match(resumed, clean)
        assert all(result.diagnostics["cache_hit"] for result in resumed.results)

    def test_sigkilled_sweep_resumes_without_resolving(self, tmp_path, clean) -> None:
        """End-to-end kill-resume: SIGKILL a sweep mid-run, resume, re-solve nothing."""
        script = textwrap.dedent(
            """
            import sys

            import numpy as np

            from repro.api import ExecutionPolicy, RunOptions, SweepSpec
            from repro.battery.parameters import KiBaMParameters
            from repro.engine.sweep import run_sweep

            spec = SweepSpec(
                workloads=["simple"],
                batteries=[
                    KiBaMParameters(capacity=60.0 + 20.0 * i, c=0.625, k=1e-3)
                    for i in range(3)
                ],
                times=np.linspace(10.0, 400.0, 12),
                methods=["mrm-uniformization"],
            )
            run_sweep(spec, options=RunOptions(max_workers=1, execution=ExecutionPolicy(backoff_base=0.0), cache_dir=sys.argv[1]))
            """
        )
        env = dict(os.environ)
        # Equal-cost groups run in scenario order (C=60, C=80, C=100); the
        # kill injector SIGKILLs the (driver) process right before the last
        # group, after the earlier groups were durably checkpointed.
        env[ENV_VAR] = "kill:match=C=100"
        child = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        survived = sorted(tmp_path.glob("*.pkl"))
        assert len(survived) == 2  # every group before the kill is on disk

        resumed = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST, cache_dir=tmp_path))
        # Zero completed scenarios are re-solved: the two checkpointed ones
        # come back from disk, only the killed scenario is solved.
        assert resumed.diagnostics["resumed_hits"] == 2
        assert resumed.diagnostics["n_solved"] == 1
        assert resumed.diagnostics["n_failed"] == 0
        assert_curves_match(resumed, clean)

    def test_checkpoints_are_valid_cache_envelopes(self, tmp_path) -> None:
        run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST, cache_dir=tmp_path))
        for path in tmp_path.glob("*.pkl"):
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
            assert envelope["schema"] == 1
            assert envelope["fingerprint"] == path.stem
            assert "repro_version" in envelope


# ----------------------------------------------------------------------
# execution knobs are fingerprint-inert
# ----------------------------------------------------------------------


class TestFingerprintInvariance:
    def test_cache_written_under_one_policy_serves_another(self, tmp_path) -> None:
        cache = SweepCache(tmp_path)
        run_sweep(SPEC, options=RunOptions(max_workers=1, execution=FAST, cache=cache))
        policy = ExecutionPolicy(max_retries=0, chunk_timeout=60.0, failure_mode="degrade")
        # Neither the policy nor tracing the run may change a cache key.
        for scope in (nullcontext(), obs.override_trace("full")):
            with scope:
                second = run_sweep(SPEC, options=RunOptions(max_workers=1, execution=policy, cache=cache))
            assert second.diagnostics["cache_hits"] == 3
            assert second.diagnostics["n_solved"] == 0
