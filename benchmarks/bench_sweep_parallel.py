"""Benchmark: the parallel scenario-sweep layer versus a serial batch.

Acceptance criteria of the sweep subsystem:

* on a 16-scenario sweep of *distinct* chains (so intra-batch merging
  cannot help the serial baseline) :func:`repro.engine.sweep.run_sweep` with
  >= 4 worker processes is at least 2x faster than the serial
  :class:`~repro.engine.batch.ScenarioBatch` -- asserted whenever the
  machine actually has >= 4 CPUs available, skipped (with the measured
  numbers still printed) otherwise, since no process pool can beat a
  serial loop on a single core;
* parallel and serial runs produce numerically identical results, on any
  machine;
* a cached re-run of the same sweep is answered entirely from the
  :class:`~repro.engine.sweep.SweepCache` -- zero scenarios re-solved,
  every result flagged ``diagnostics["cache_hit"]`` -- with identical
  curves.
"""

import time

import numpy as np
import pytest

from repro.api import RunOptions, ScenarioBatch, SweepCache, SweepSpec
from repro.battery.parameters import KiBaMParameters
from repro.engine.sweep import default_worker_count, run_sweep
from repro.workload.onoff import onoff_workload

#: Number of scenarios in the sweep (acceptance: 16).
N_SCENARIOS = 16

#: Worker processes used by the parallel run (acceptance: >= 4).
N_WORKERS = 4

#: Required speedup of the parallel sweep over the serial batch.
REQUIRED_SPEEDUP = 2.0

#: Evaluation grid shared by all scenarios.
TIMES = np.linspace(6000.0, 20000.0, 15)


def _distinct_chain_sweep(n_scenarios: int = N_SCENARIOS) -> SweepSpec:
    """*n_scenarios* scenarios over as many *distinct* expanded chains.

    Chains **with** well-to-well transfer are never merged across
    capacities (the transfer cutoff differs), so a capacity sweep of the
    two-well battery gives genuinely independent chains: neither the
    serial batch nor a worker can collapse two scenarios into one blocked
    pass -- the comparison measures pure fan-out, not merging luck.
    """
    capacities = np.linspace(5400.0, 7200.0, n_scenarios)
    return SweepSpec(
        workloads=[onoff_workload(frequency=0.25, erlang_k=1)],
        batteries=[
            KiBaMParameters(capacity=float(capacity), c=0.625, k=4.5e-5)
            for capacity in capacities
        ],
        times=TIMES,
        deltas=[100.0],
        methods=["mrm-uniformization"],
    )


def _assert_identical(first, second):
    for a, b in zip(first, second):
        assert np.array_equal(a.probabilities, b.probabilities)
        assert a.label == b.label


def test_parallel_sweep_speedup_over_serial_batch(benchmark):
    spec = _distinct_chain_sweep()
    problems, _ = spec.scenarios()
    assert len(problems) == N_SCENARIOS

    # Serial baseline: the same scenarios through ScenarioBatch in-process.
    started = time.perf_counter()
    serial = ScenarioBatch(problems).run("mrm-uniformization")
    serial_seconds = time.perf_counter() - started
    assert serial.diagnostics["merged_groups"] == 0  # genuinely distinct chains

    outcome = benchmark.pedantic(
        lambda: run_sweep(spec, options=RunOptions(max_workers=N_WORKERS)),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    parallel_seconds = outcome.diagnostics["wall_seconds"]
    speedup = serial_seconds / parallel_seconds
    print(
        f"\n{N_SCENARIOS} scenarios: serial {serial_seconds:.2f} s, "
        f"parallel ({outcome.diagnostics['n_workers']} workers) "
        f"{parallel_seconds:.2f} s, speedup {speedup:.2f}x"
    )

    # Identical results on any machine ...
    _assert_identical(serial, outcome)

    # ... and the wall-clock gate where the hardware can express it.
    cpus = default_worker_count()
    if cpus < N_WORKERS:
        pytest.skip(
            f"only {cpus} CPU(s) available; the >= {REQUIRED_SPEEDUP}x gate "
            f"needs >= {N_WORKERS} cores (measured {speedup:.2f}x)"
        )
    assert outcome.diagnostics["parallel"]
    assert speedup >= REQUIRED_SPEEDUP


def test_parallel_matches_serial_everywhere():
    """Result parity holds even when workers outnumber the CPUs."""
    spec = _distinct_chain_sweep(4)
    serial = run_sweep(spec, options=RunOptions(max_workers=1))
    parallel = run_sweep(spec, options=RunOptions(max_workers=N_WORKERS))
    assert not serial.diagnostics["parallel"]
    assert parallel.diagnostics["parallel"]
    _assert_identical(serial, parallel)


def test_cached_rerun_returns_identical_results_without_resolving(benchmark):
    spec = _distinct_chain_sweep()
    cache = SweepCache()

    first = run_sweep(spec, options=RunOptions(cache=cache))
    assert first.diagnostics["n_solved"] == N_SCENARIOS
    assert all(result.diagnostics["cache_hit"] is False for result in first)

    second = benchmark.pedantic(
        lambda: run_sweep(spec, options=RunOptions(cache=cache)), rounds=1, iterations=1, warmup_rounds=0
    )
    assert second.diagnostics["n_solved"] == 0
    assert second.diagnostics["cache_hits"] == N_SCENARIOS
    assert all(result.diagnostics["cache_hit"] is True for result in second)
    _assert_identical(first, second)
    print(
        f"\ncold {first.diagnostics['wall_seconds']:.2f} s, "
        f"cached {second.diagnostics['wall_seconds']:.4f} s"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
