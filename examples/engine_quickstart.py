#!/usr/bin/env python
"""Engine quickstart: one problem object, every solver, one batch call.

The public API (:mod:`repro.api`) is the recommended entry point of the
library: describe the lifetime question once as a
:class:`~repro.api.LifetimeProblem` and hand it to any built-in solver
with :func:`repro.api.solve` -- or let ``auto`` pick one.  This example

1. solves the paper's on/off model exactly, with the Markovian
   approximation and with Monte-Carlo simulation from the *same* problem
   object and compares the three CDFs,
2. sweeps a capacity dimensioning question over many battery sizes with
   :class:`~repro.api.ScenarioBatch`, which shares the expanded chain
   and propagates all scenarios in one blocked pass.

Run with::

    python examples/engine_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_series
from repro.api import KiBaMParameters, LifetimeProblem, ScenarioBatch, available_solvers, solve
from repro.workload import onoff_workload


def main() -> None:
    print("registered solvers:", ", ".join(available_solvers()))
    print()

    # --- 1. One problem, three interchangeable machineries ---------------
    workload = onoff_workload(frequency=1.0, erlang_k=1)
    battery = KiBaMParameters(capacity=7200.0, c=1.0, k=0.0)
    problem = LifetimeProblem(
        workload=workload,
        battery=battery,
        times=np.linspace(6000.0, 20000.0, 29),
        delta=25.0,          # step size for the Markovian approximation
        n_runs=1000,         # replications for Monte-Carlo
        seed=7,
    )

    curves = []
    for method in ("analytic", "mrm-uniformization", "monte-carlo"):
        result = solve(problem.with_label(method), method)
        curves.append(result.distribution)
        mean_hours = result.mean_lifetime() / 3600.0
        print(f"{method:>18s}: mean lifetime {mean_hours:5.2f} h, "
              f"median {result.quantile(0.5):7.0f} s, "
              f"diagnostics keys: {sorted(result.diagnostics)}")
    print()
    sample = np.linspace(13000.0, 17000.0, 9)
    print(format_series(curves, sample, time_label="t (s)"))
    print()

    # The 'auto' dispatcher picks the exact solver for this problem (two
    # current levels, no well-to-well transfer).
    auto = solve(problem, "auto")
    print(f"auto dispatched to: {auto.diagnostics['auto_dispatched_to']}")
    print()

    # --- 2. A capacity sweep as one batched call --------------------------
    capacities = np.linspace(4500.0, 7200.0, 10)
    batch = ScenarioBatch.over_batteries(
        problem,
        [KiBaMParameters(capacity=float(c), c=1.0, k=0.0) for c in capacities],
        labels=[f"C={c:.0f} As" for c in capacities],
    )
    outcome = batch.run("mrm-uniformization")
    print("capacity sweep (one stacked uniformisation pass):")
    for result in outcome:
        survives = 1.0 - float(result.distribution.probability_empty_at(14000.0))
        print(f"  {result.label:>12s}: P[survives 14000 s] = {survives:.3f}")
    print()
    print("batch diagnostics:", {k: outcome.diagnostics[k]
                                  for k in ("n_scenarios", "merged_groups",
                                            "stacked_scenarios", "chain_builds")})


if __name__ == "__main__":
    main()
