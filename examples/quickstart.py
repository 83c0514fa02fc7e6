#!/usr/bin/env python
"""Quickstart: compute a battery lifetime distribution in a few lines.

This example builds the paper's 800 mAh cell-phone battery and the simple
three-state workload (idle / send / sleep), describes the lifetime question
once as a :class:`~repro.api.LifetimeProblem`, solves it with
the Markovian approximation, cross-checks it against Monte-Carlo simulation
and prints both curves.  (See ``examples/engine_quickstart.py`` for a tour
of the full engine API.)

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_series
from repro.api import KiBaMParameters, LifetimeProblem, solve
from repro.workload import simple_workload


def main() -> None:
    # 1. The battery: 800 mAh, 62.5 % immediately available, KiBaM flow
    #    constant 4.5e-5 /s (the parameters used throughout the paper).
    battery = KiBaMParameters.from_mah(800.0, c=0.625, k_per_second=4.5e-5)

    # 2. The workload: the "simple" wireless-device model of Section 4.3.
    workload = simple_workload()
    print("workload:", workload.description)
    print(f"mean current: {workload.mean_current() * 1000:.1f} mA")
    print(f"ideal lifetime at the mean current: "
          f"{battery.capacity / workload.mean_current() / 3600:.1f} h")
    print()

    # 3. The question: Pr{battery empty at t} on a 30-hour grid; delta is
    #    the Markovian approximation's step size (10 mAh = 36 As).
    problem = LifetimeProblem(
        workload=workload,
        battery=battery,
        times=np.linspace(1.0, 30.0, 30) * 3600.0,
        delta=36.0,
        n_runs=1000,
        seed=1,
    )

    # 4. Two interchangeable answers from the same problem object.
    approximation = solve(problem.with_label("approximation (10 mAh)"), "mrm-uniformization")
    simulation = solve(problem, "monte-carlo")

    print(format_series(
        [approximation.distribution, simulation.distribution],
        problem.times, time_label="t (h)", time_scale=3600.0,
    ))
    print()
    print(f"median lifetime (approximation): {approximation.quantile(0.5) / 3600:.1f} h")
    print(f"mean lifetime   (simulation):    "
          f"{simulation.diagnostics['mean_lifetime_seconds'] / 3600:.1f} h")
    print(f"probability the battery survives a 20 h day: "
          f"{1.0 - approximation.distribution.probability_empty_at(20 * 3600.0):.2f}")


if __name__ == "__main__":
    main()
