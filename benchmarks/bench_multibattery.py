"""Benchmark: the multi-battery product-space subsystem.

Two acceptance gates on one shared scenario family -- a slow-switching
busy/idle workload feeding a two-battery bank with a series-pack (k = 1)
depletion predicate:

1. **Fast path on the product chain.**  The two-battery *round-robin*
   product chain (tens of thousands of states: workload x phase clock x
   grid x grid) evaluated on a long-tailed grid must solve >= 3x faster
   via the incremental uniformisation path (PR 3) than via the classical
   single-pass sweep, with matching CDFs.  This certifies that the
   Kronecker-assembled chains drop into the existing fast path unchanged.

2. **Policy ordering.**  With a deliberately skewed static split, the
   mean system lifetimes must order ``best-of >= round-robin >=
   static-split``: charge-aware balancing keeps a series pack alive
   longest, blind alternation balances on average, and a mismatched fixed
   split kills the overloaded battery (hence the system) earliest.

The measurements are recorded in ``BENCH_multibattery.json`` at the
repository root (stamped with commit SHA + timestamp) so CI can diff the
trajectory across builds.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.battery.parameters import KiBaMParameters
from repro.engine.registry import solve_lifetime
from repro.engine.workspace import SolveWorkspace
from repro.experiments.records import write_bench_record
from repro.multibattery import MultiBatteryProblem
from repro.workload.base import WorkloadModel

#: Required wall-clock advantage of the incremental path on the product chain.
REQUIRED_SPEEDUP = 3.0

#: Required agreement between the two uniformisation paths.
TOLERANCE = 1e-8

#: Required mean-lifetime margin of each policy over the next one (relative).
ORDERING_MARGIN = 0.0

#: Truncation bound shared by all solves (the engine default).
EPSILON = 1e-8

#: Where the trajectory record is written.
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_multibattery.json"


def _workload() -> WorkloadModel:
    """A slow-switching busy/idle workload (depletion around t ~ 600 s)."""
    return WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([0.5, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
        description="slow-switching busy/idle multi-battery benchmark workload",
    )


def _battery() -> KiBaMParameters:
    return KiBaMParameters(capacity=150.0, c=0.625, k=1e-3)


def _problem(policy: str, policy_params: dict, times: np.ndarray, delta: float) -> MultiBatteryProblem:
    battery = _battery()
    return MultiBatteryProblem(
        workload=_workload(),
        batteries=(battery, battery),
        times=times,
        delta=delta,
        epsilon=EPSILON,
        policy=policy,
        policy_params=policy_params,
        failures_to_die=1,
    )


def test_product_chain_incremental_speedup(benchmark):
    """Gate 1: incremental >= 3x over single-pass on the round-robin product chain."""
    battery = _battery()
    delta = battery.available_capacity / 12.0
    times = np.linspace(0.0, 40000.0, 64)
    problem = _problem("round-robin", {"switch_rate": 0.05}, times, delta)

    chain = problem.model().discretize(delta)
    assert chain.n_states >= 20_000
    propagator = SolveWorkspace().propagator(chain, (chain.backend,))
    projection = np.zeros(chain.n_states)
    projection[chain.empty_states] = 1.0
    initial = chain.initial_distribution[None, :]

    def solve(mode):
        return propagator.transient_batch(
            initial, times, epsilon=EPSILON, projection=projection, mode=mode
        )

    started = time.perf_counter()
    baseline = solve("single-pass")
    single_pass_seconds = time.perf_counter() - started

    started = time.perf_counter()
    fast = benchmark.pedantic(
        lambda: solve("incremental"), rounds=1, iterations=1, warmup_rounds=0
    )
    incremental_seconds = time.perf_counter() - started

    cdf_fast = np.asarray(fast.values[0], dtype=float)
    cdf_base = np.asarray(baseline.values[0], dtype=float)
    max_diff = float(np.max(np.abs(cdf_fast - cdf_base)))
    speedup = single_pass_seconds / incremental_seconds

    record = {
        "benchmark": "multibattery_product_chain_fast_path",
        "scenario": {
            "n_batteries": 2,
            "policy": "round-robin",
            "failures_to_die": 1,
            "n_states": int(chain.n_states),
            "n_nonzero": int(chain.n_nonzero),
            "uniformization_rate": float(propagator.rate),
            "delta_as": float(delta),
            "n_times": int(times.size),
            "t_max_seconds": float(times[-1]),
            "epsilon": EPSILON,
        },
        "results": {
            "single_pass_seconds": single_pass_seconds,
            "incremental_seconds": incremental_seconds,
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
            "max_abs_cdf_diff": max_diff,
            "tolerance": TOLERANCE,
            "single_pass_iterations": int(baseline.iterations),
            "incremental_iterations": int(fast.iterations),
            "iterations_saved": int(fast.iterations_saved),
            "steady_state_time_seconds": fast.steady_state_time,
        },
    }
    test_product_chain_incremental_speedup.record = record
    print(
        f"\n{chain.n_states}-state 2-battery round-robin product chain, "
        f"{times.size} points to t={times[-1]:g} s: single-pass "
        f"{single_pass_seconds:.2f} s ({baseline.iterations} products), "
        f"incremental {incremental_seconds:.2f} s ({fast.iterations} products), "
        f"speedup {speedup:.1f}x, max |dCDF| {max_diff:.2e}"
    )

    assert max_diff <= TOLERANCE
    assert fast.steady_state_time is not None, "steady-state detection must fire"
    assert fast.iterations_saved > 0
    assert speedup >= REQUIRED_SPEEDUP


def test_policy_ordering_and_record():
    """Gate 2: best-of >= round-robin >= static-split mean system lifetime."""
    battery = _battery()
    delta = battery.available_capacity / 12.0
    times = np.linspace(0.0, 6000.0, 97)
    policies = [
        ("static-split", {"weights": (0.75, 0.25)}),
        ("round-robin", {"switch_rate": 0.05}),
        ("best-of", {}),
    ]

    workspace = SolveWorkspace()
    means: dict[str, float] = {}
    details: dict[str, dict] = {}
    for policy, params in policies:
        problem = _problem(policy, params, times, delta)
        started = time.perf_counter()
        result = solve_lifetime(problem, "mrm-uniformization", workspace=workspace)
        wall = time.perf_counter() - started
        assert result.diagnostics["cdf_complete"], (
            f"{policy}: the time grid must cover the whole lifetime CDF"
        )
        means[policy] = float(result.distribution.mean_lifetime())
        details[policy] = {
            "mean_lifetime_seconds": means[policy],
            "n_states": int(result.diagnostics["n_states"]),
            "wall_seconds": wall,
        }

    fast_record = getattr(test_product_chain_incremental_speedup, "record", None)
    record = {
        "benchmark": "multibattery_policies",
        "scenario": {
            "n_batteries": 2,
            "failures_to_die": 1,
            "battery": {
                "capacity_as": _battery().capacity,
                "c": _battery().c,
                "k_per_second": _battery().k,
            },
            "delta_as": float(delta),
            "static_split_weights": [0.75, 0.25],
            "round_robin_switch_rate": 0.05,
        },
        "results": {
            "mean_system_lifetime_seconds": {
                policy: details[policy]["mean_lifetime_seconds"] for policy, _ in policies
            },
            "details": details,
            "ordering": "best-of >= round-robin >= static-split",
        },
    }
    if fast_record is not None:
        record["fast_path"] = fast_record
    write_bench_record(RECORD_PATH, record)
    print(
        "\nmean system lifetimes: "
        + ", ".join(f"{policy} {means[policy]:.1f} s" for policy, _ in policies)
    )

    assert means["best-of"] >= means["round-robin"] * (1.0 + ORDERING_MARGIN)
    assert means["round-robin"] >= means["static-split"] * (1.0 + ORDERING_MARGIN)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
