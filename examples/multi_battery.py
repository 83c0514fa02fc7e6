#!/usr/bin/env python
"""Multi-battery scheduling: policies, product chains, system lifetimes.

A device powered by a *bank* of KiBaM batteries lives as long as its
scheduler lets it: this example builds a two-battery series pack (the
system dies with the first empty battery), compares the three built-in
scheduling policies on the same stochastic workload, and cross-checks the
product-space Markovian approximation against the Monte-Carlo system
simulator.  It also shows the policy axis of the declarative sweep layer.

Run with::

    python examples/multi_battery.py
"""

from __future__ import annotations

import numpy as np

from repro.api import KiBaMParameters, RunOptions, ScenarioBatch, SolveWorkspace, SweepSpec, solve, sweep
from repro.multibattery import MultiBatteryProblem, available_policies, get_policy
from repro.workload.base import WorkloadModel


def main() -> None:
    print("registered scheduling policies:", ", ".join(available_policies()))
    print()

    # --- A two-battery series pack under a bursty workload ----------------
    workload = WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([0.5, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
        description="slow-switching busy/idle workload",
    )
    battery = KiBaMParameters(capacity=150.0, c=0.625, k=1e-3)
    base = MultiBatteryProblem(
        workload=workload,
        batteries=(battery, battery),
        times=np.linspace(0.0, 6000.0, 121),
        delta=battery.available_capacity / 12,
        failures_to_die=1,  # series pack: one empty battery kills the system
        n_runs=1000,
        seed=7,
    )

    # --- 1. Compare the scheduling policies (one blocked batch) -----------
    policies = [
        get_policy("static-split", weights=(0.75, 0.25)),
        get_policy("round-robin", switch_rate=0.05),
        get_policy("best-of"),
    ]
    workspace = SolveWorkspace()
    batch = ScenarioBatch.over_policies(base, policies)
    print("mean system lifetime by policy (product-space MRM):")
    for result in batch.run("mrm-uniformization", workspace=workspace):
        print(f"  {result.label:14s} {result.mean_lifetime():8.1f} s")
    print()

    # --- 2. Monte-Carlo cross-check with the steady-state horizon cap -----
    simulated = solve(
        base.with_policy("best-of").with_label("best-of (simulated)"),
        "monte-carlo",
        workspace=workspace,  # reuses the MRM's detected steady-state time
    )
    print(
        f"simulation: mean {simulated.diagnostics['mean_lifetime_seconds']:.1f} s, "
        f"horizon {simulated.diagnostics['horizon']:.0f} s "
        f"(capped by steady state: "
        f"{simulated.diagnostics['horizon_capped_by_steady_state']})"
    )
    print()

    # --- 3. The policy axis of the declarative sweep layer ----------------
    spec = SweepSpec(
        workloads=[workload],
        batteries=[(battery, battery), (battery, battery.with_capacity(100.0))],
        times=base.times,
        deltas=[base.delta],
        methods=["mrm-uniformization"],
        policies=["round-robin", "best-of"],
        failures_to_die=1,
    )
    outcome = sweep(spec, options=RunOptions(max_workers=1))
    print(f"sweep over {len(spec)} bank scenarios:")
    for result in outcome:
        print(f"  {result.label}: mean {result.mean_lifetime():8.1f} s")


if __name__ == "__main__":
    main()
