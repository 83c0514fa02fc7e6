"""Benchmark (ablation): solver internals.

These micro-benchmarks time the numerical building blocks that dominate the
figure reproductions: Poisson-weight generation (Fox--Glynn), a single
engine solve on a mid-sized expanded chain, the construction of the
expanded generator ``Q*``, and the benefit of the workspace caches when a
chain is solved repeatedly (time-grid refinement).  They are useful when
tuning the solver and as a regression guard for the library's
performance-critical paths.
"""

import numpy as np

from repro.api import LifetimeProblem, SolveWorkspace
from repro.battery.parameters import rao_battery_parameters
from repro.core.discretization import discretize
from repro.core.kibamrm import KiBaMRM
from repro.engine.registry import solve_lifetime
from repro.markov.poisson import fox_glynn
from repro.workload.onoff import onoff_workload
from repro.workload.simple import simple_workload


def test_poisson_weights_large_rate(benchmark):
    weights = benchmark(fox_glynn, 40000.0, 1e-10)
    assert abs(weights.total - 1.0) < 1e-8


def test_expanded_generator_construction(benchmark):
    model = KiBaMRM(workload=onoff_workload(frequency=1.0), battery=rao_battery_parameters())
    discretized = benchmark(discretize, model, 50.0)
    assert discretized.n_states > 5000


def test_uniformisation_simple_model(benchmark):
    battery = rao_battery_parameters(capacity_mah=800.0)
    problem = LifetimeProblem(
        workload=simple_workload(),
        battery=battery,
        times=np.linspace(3600.0, 30 * 3600.0, 15),
        delta=10.0 * 3.6,
    )

    def solve():
        return solve_lifetime(problem, "mrm-uniformization")

    result = benchmark.pedantic(solve, rounds=1, iterations=1, warmup_rounds=0)
    assert result.probabilities[-1] > 0.95


def test_time_grid_refinement_reuses_chain(benchmark):
    """Refining the grid with a shared workspace must not rebuild the chain."""
    battery = rao_battery_parameters(capacity_mah=800.0)
    base = LifetimeProblem(
        workload=simple_workload(),
        battery=battery,
        times=np.linspace(3600.0, 30 * 3600.0, 8),
        delta=25.0 * 3.6,
    )
    workspace = SolveWorkspace()
    solve_lifetime(base, "mrm-uniformization", workspace=workspace)  # warm the caches

    def refine():
        refined = base.with_times(np.linspace(3600.0, 30 * 3600.0, 16))
        return solve_lifetime(refined, "mrm-uniformization", workspace=workspace)

    result = benchmark.pedantic(refine, rounds=1, iterations=1, warmup_rounds=0)
    assert workspace.builds == 1
    assert workspace.build_hits >= 1
    assert result.probabilities[-1] > 0.95
