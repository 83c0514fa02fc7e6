"""Benchmark: the fault-tolerant executor layer's cost and its kill-resume win.

Two acceptance gates for the sweep-execution layer of
:mod:`repro.engine.executor`:

1. **Clean-path overhead.**  On a ~200-scenario sweep of distinct cheap
   chains the production :func:`repro.engine.sweep.run_sweep` path (chunk
   tasks, retry bookkeeping, result-envelope validation) must cost less
   than :data:`MAX_CLEAN_OVERHEAD` over the pre-executor sweep path.  The
   baseline is :func:`_direct_sweep`, a frozen in-bench transcription of
   the original driver -- ``_partition`` the scenarios, then a plain loop
   of :class:`~repro.engine.batch.ScenarioBatch` runs sharing one
   workspace, with no retry layer, no timeouts and no validation -- so
   the comparison keeps measuring the layer's true overhead after the
   legacy code is long gone.  Both paths are timed interleaved (best of
   :data:`CLEAN_ROUNDS` alternating rounds) because single-shot process
   timings on shared runners swing by tens of percent; the recorded
   ``clean_path_speedup`` (baseline / executor, ~1.0) is diffed against
   the committed baseline in CI.

2. **Kill-resume.**  A child process (``sweep_resilience_child.py``)
   runs an 8-scenario sweep of ~1 s chains serially against a
   disk-backed cache, checkpointing each solved group as it finishes.
   The benchmark SIGKILLs the child once :data:`KILL_AFTER` checkpoints
   exist, then resumes the sweep in-process from the same directory and
   asserts the resurrection contract end-to-end: every checkpoint that
   survived the kill is served from disk (``resumed_hits`` equals the
   surviving entry count), only the remainder is solved
   (``n_solved == N - D``), and the final curves are element-wise
   identical to an uninterrupted reference run.

Results land in ``BENCH_sweep_resilience.json`` (stamped with commit SHA
+ timestamp) and are diffed against the committed baseline in CI.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import ExecutionPolicy, RunOptions, ScenarioBatch, SolveWorkspace, SweepSpec
from repro.battery.parameters import KiBaMParameters
from repro.engine.sweep import _partition, run_sweep

#: Scenarios in the clean-overhead sweep.
N_CLEAN_SCENARIOS = 200

#: Maximal fraction the executor layer may add to the frozen direct path.
MAX_CLEAN_OVERHEAD = 0.05

#: Alternating timing rounds of the clean-overhead gate (minimum kept).
CLEAN_ROUNDS = 5

#: Checkpoints that must exist on disk before the child is SIGKILLed.
KILL_AFTER = 3

#: How long the kill-resume gate waits for the child's checkpoints.
CHILD_DEADLINE_SECONDS = 180.0

#: Where the trajectory record is written.
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep_resilience.json"

#: The kill-resume child script (also the source of the resilience spec).
CHILD_PATH = Path(__file__).resolve().parent / "sweep_resilience_child.py"


def _merge_record_section(section: str, payload: dict) -> None:
    """Write *payload* under *section*, preserving the other sections."""
    from repro.experiments.records import write_bench_record

    record: dict = {"benchmark": "sweep_resilience"}
    if RECORD_PATH.exists():
        try:
            record = json.loads(RECORD_PATH.read_text())
        except json.JSONDecodeError:
            pass
    record[section] = payload
    write_bench_record(RECORD_PATH, record)


def _child_module():
    """Load ``sweep_resilience_child.py`` so both runs share one spec."""
    spec = importlib.util.spec_from_file_location("sweep_resilience_child", CHILD_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Gate 1: executor-layer overhead on a clean ~200-scenario sweep.
# ----------------------------------------------------------------------

def _clean_sweep(n_scenarios: int = N_CLEAN_SCENARIOS) -> SweepSpec:
    """*n_scenarios* cheap distinct chains (~10 ms each at ``delta=4``).

    Many small scenarios maximise the per-chunk bookkeeping relative to
    the solve work, which is exactly the regime where executor overhead
    would show.
    """
    return SweepSpec(
        workloads=["simple"],
        batteries=[
            KiBaMParameters(capacity=60.0 + 0.25 * index, c=0.625, k=1e-3)
            for index in range(n_scenarios)
        ],
        times=np.linspace(10.0, 400.0, 10),
        deltas=[4.0],
        methods=["mrm-uniformization"],
    )


def _direct_sweep(problems, method: str):
    """Frozen transcription of the pre-executor sweep path.

    The original driver partitioned the scenarios into chain-sharing
    chunks and solved each chunk with a plain :class:`ScenarioBatch` loop
    over a shared workspace -- no chunk tasks, no retry queue, no
    timeouts, no result validation.  Kept here (rather than importing
    production code) so the overhead comparison stays honest however the
    executor layer evolves.
    """
    pending = [(index, problem, method) for index, problem in enumerate(problems)]
    results = [None] * len(problems)
    for chunk in _partition(pending, 1):
        workspace = SolveWorkspace(horizon_caps=False)
        for indices, chunk_method, chunk_problems in chunk:
            outcome = ScenarioBatch(list(chunk_problems)).run(chunk_method, workspace=workspace)
            for index, result in zip(indices, outcome.results):
                results[index] = result
    return results


def test_executor_layer_overhead_on_clean_sweep(benchmark):
    """Gate 1: run_sweep must stay within 5% of the frozen direct path."""
    spec = _clean_sweep()
    problems, methods = spec.scenarios()
    assert len(problems) == N_CLEAN_SCENARIOS
    assert set(methods) == {"mrm-uniformization"}

    # Warm both paths once outside the timed region (Poisson-window and
    # workload caches are process-global, so the warmth is shared).
    _direct_sweep(problems, "mrm-uniformization")
    warm = run_sweep(spec, options=RunOptions(max_workers=1))
    assert warm.diagnostics["executor"] == "serial"
    assert warm.diagnostics["n_solved"] == N_CLEAN_SCENARIOS

    direct_best = float("inf")
    executor_best = float("inf")
    direct_results = None
    executor_outcome = None
    for round_index in range(CLEAN_ROUNDS):
        started = time.perf_counter()
        direct_results = _direct_sweep(problems, "mrm-uniformization")
        direct_best = min(direct_best, time.perf_counter() - started)

        started = time.perf_counter()
        if round_index == 0:
            executor_outcome = benchmark.pedantic(
                lambda: run_sweep(spec, options=RunOptions(max_workers=1)),
                rounds=1,
                iterations=1,
                warmup_rounds=0,
            )
        else:
            executor_outcome = run_sweep(spec, options=RunOptions(max_workers=1))
        executor_best = min(executor_best, time.perf_counter() - started)

    overhead = executor_best / direct_best - 1.0
    speedup = direct_best / executor_best

    # Element-wise parity: the executor layer must not change a single value.
    for direct, wrapped in zip(direct_results, executor_outcome.results):
        assert np.array_equal(
            direct.distribution.probabilities, wrapped.distribution.probabilities
        )
        assert direct.label == wrapped.label

    _merge_record_section("clean_overhead", {
        "benchmark": "executor_layer_vs_direct_sweep",
        "scenario": {
            "n_scenarios": N_CLEAN_SCENARIOS,
            "delta_as": 4.0,
            "n_times": 10,
            "rounds": CLEAN_ROUNDS,
        },
        "results": {
            "direct_seconds": direct_best,
            "executor_seconds": executor_best,
            "overhead_fraction": overhead,
            "max_allowed_overhead": MAX_CLEAN_OVERHEAD,
            "clean_path_speedup": speedup,
        },
    })
    print(
        f"\n{N_CLEAN_SCENARIOS}-scenario clean sweep: direct {direct_best:.2f} s, "
        f"executor layer {executor_best:.2f} s ({overhead * 100.0:+.1f}% overhead, "
        f"allowed {MAX_CLEAN_OVERHEAD * 100.0:.0f}%)"
    )
    assert overhead <= MAX_CLEAN_OVERHEAD


# ----------------------------------------------------------------------
# Gate 2: SIGKILL mid-sweep, resume from the surviving checkpoints.
# ----------------------------------------------------------------------

def test_kill_resume_recovers_every_checkpoint(benchmark, tmp_path):
    """Gate 2: a killed sweep resumes from disk without re-solving anything."""
    child = _child_module()
    spec = child.resilience_spec()
    n_scenarios = len(spec.scenarios()[0])
    cache_dir = tmp_path / "checkpoints"

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def surviving() -> int:
        if not cache_dir.is_dir():
            return 0
        return sum(1 for name in os.listdir(cache_dir) if name.endswith(".pkl"))

    process = subprocess.Popen(
        [sys.executable, str(CHILD_PATH), str(cache_dir)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + CHILD_DEADLINE_SECONDS
        while surviving() < KILL_AFTER:
            if process.poll() is not None:
                stderr = process.stderr.read().decode(errors="replace")
                raise AssertionError(
                    f"child exited ({process.returncode}) before {KILL_AFTER} "
                    f"checkpoints appeared:\n{stderr}"
                )
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"no {KILL_AFTER} checkpoints after {CHILD_DEADLINE_SECONDS:.0f} s "
                    f"(found {surviving()})"
                )
            time.sleep(0.02)
        process.kill()
        process.wait(timeout=60.0)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on assertion
            process.kill()
            process.wait(timeout=60.0)
        process.stderr.close()

    assert process.returncode == -signal.SIGKILL
    checkpointed = surviving()
    assert KILL_AFTER <= checkpointed < n_scenarios, (
        f"the kill must land mid-sweep ({checkpointed}/{n_scenarios} checkpointed)"
    )

    # Resume from the surviving checkpoints: every one of them is served
    # from disk, only the remainder is solved.
    started = time.perf_counter()
    resumed = benchmark.pedantic(
        lambda: run_sweep(spec, options=RunOptions(max_workers=1, cache_dir=cache_dir, execution=ExecutionPolicy(backoff_base=0.0))),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    resume_seconds = time.perf_counter() - started
    assert resumed.diagnostics["resumed_hits"] == checkpointed
    assert resumed.diagnostics["cache_hits"] == checkpointed
    assert resumed.diagnostics["n_solved"] == n_scenarios - checkpointed
    assert resumed.diagnostics["n_failed"] == 0

    # Element-wise identical to an uninterrupted run, resumed slots included.
    started = time.perf_counter()
    reference = run_sweep(spec, options=RunOptions(max_workers=1))
    reference_seconds = time.perf_counter() - started
    for resumed_result, reference_result in zip(resumed.results, reference.results):
        assert np.array_equal(
            resumed_result.distribution.probabilities,
            reference_result.distribution.probabilities,
        )
        assert resumed_result.label == reference_result.label

    _merge_record_section("kill_resume", {
        "benchmark": "sigkill_mid_sweep_then_resume",
        "scenario": {
            "n_scenarios": n_scenarios,
            "kill_after_checkpoints": KILL_AFTER,
            "delta_as": 100.0,
        },
        "results": {
            "child_returncode": process.returncode,
            "checkpoints_surviving_kill": checkpointed,
            "resumed_hits": resumed.diagnostics["resumed_hits"],
            "resolved_after_resume": resumed.diagnostics["n_solved"],
            "resume_seconds": resume_seconds,
            "uninterrupted_seconds": reference_seconds,
            "identical_to_uninterrupted": True,
        },
    })
    print(
        f"\nkill-resume: child SIGKILLed with {checkpointed}/{n_scenarios} "
        f"checkpoints on disk; resume recovered all {checkpointed} and solved "
        f"{n_scenarios - checkpointed} in {resume_seconds:.2f} s "
        f"(uninterrupted: {reference_seconds:.2f} s)"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
