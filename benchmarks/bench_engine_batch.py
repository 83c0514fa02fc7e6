"""Benchmark: batched scenario execution versus independent solves.

The engine's :class:`~repro.engine.batch.ScenarioBatch` solves a capacity
sweep over the on/off model (single-well, so all scenarios share one
transfer-free chain) in a single blocked uniformisation pass.  This
benchmark demonstrates the acceptance criterion of the engine refactor: a
sweep of >= 10 battery-parameter points over the MRM solver must be
measurably faster (>= 1.5x) than the same points solved independently --
and produce numerically identical curves.
"""

import time

import numpy as np
import pytest

from repro.api import LifetimeProblem, ScenarioBatch
from repro.battery.parameters import KiBaMParameters
from repro.engine.registry import solve_lifetime
from repro.markov.poisson import cached_poisson_weights
from repro.workload.onoff import onoff_workload

#: Number of battery-parameter points in the sweep (acceptance: >= 10).
N_SCENARIOS = 12

#: Required speedup of the batched run over independent solves.
REQUIRED_SPEEDUP = 1.5


def _capacity_sweep() -> ScenarioBatch:
    workload = onoff_workload(frequency=1.0, erlang_k=1)
    times = np.linspace(6000.0, 20000.0, 29)
    capacities = np.linspace(4000.0, 7200.0, N_SCENARIOS)
    batteries = [KiBaMParameters(capacity=float(c), c=1.0, k=0.0) for c in capacities]
    base = LifetimeProblem(
        workload=workload, battery=batteries[-1], times=times, delta=25.0
    )
    return ScenarioBatch.over_batteries(base, batteries)


def test_engine_batch_faster_than_independent_solves(benchmark):
    batch = _capacity_sweep()

    # Baseline: the same scenarios solved one by one (each call still
    # benefits from the global Poisson-window cache, as any caller would).
    cached_poisson_weights.cache_clear()
    started = time.perf_counter()
    independent = [
        solve_lifetime(problem, "mrm-uniformization") for problem in batch.problems
    ]
    independent_seconds = time.perf_counter() - started

    cached_poisson_weights.cache_clear()
    outcome = benchmark.pedantic(
        lambda: batch.run("mrm-uniformization"), rounds=1, iterations=1, warmup_rounds=0
    )
    batched_seconds = outcome.diagnostics["wall_seconds"]

    # The whole sweep collapsed onto one shared chain build ...
    assert outcome.diagnostics["n_scenarios"] == N_SCENARIOS
    assert outcome.diagnostics["merged_groups"] == 1
    assert outcome.diagnostics["stacked_scenarios"] == N_SCENARIOS
    assert outcome.diagnostics["chain_builds"] == 1

    # ... with numerically identical results ...
    for single, batched in zip(independent, outcome):
        assert np.allclose(single.probabilities, batched.probabilities, atol=1e-12)

    # ... and the required wall-clock advantage.
    speedup = independent_seconds / batched_seconds
    print(
        f"\n{N_SCENARIOS} scenarios: independent {independent_seconds:.2f} s, "
        f"batched {batched_seconds:.2f} s, speedup {speedup:.1f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_engine_batch_merges_identical_chains(benchmark):
    """Scenarios sharing one chain but different grids solve in one pass."""
    workload = onoff_workload(frequency=1.0, erlang_k=1)
    battery = KiBaMParameters(capacity=7200.0, c=0.625, k=4.5e-5)
    grids = [np.linspace(6000.0, 20000.0, n) for n in (15, 29, 57)]
    batch = ScenarioBatch(
        LifetimeProblem(
            workload=workload, battery=battery, times=grid, delta=100.0,
            label=f"grid-{grid.size}",
        )
        for grid in grids
    )
    outcome = benchmark.pedantic(
        lambda: batch.run("mrm-uniformization"), rounds=1, iterations=1, warmup_rounds=0
    )
    assert outcome.diagnostics["chain_builds"] == 1
    assert outcome.diagnostics["merged_groups"] == 1
    # The deduplicated block contains a single initial vector.
    assert outcome[0].diagnostics["batch_rows"] == 1
    coarse = outcome[0].distribution
    fine = outcome[2].distribution
    assert np.allclose(
        fine.probability_empty_at(coarse.times), coarse.probabilities, atol=1e-10
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
