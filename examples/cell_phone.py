#!/usr/bin/env python
"""Cell-phone scenario: does bursty transmission extend the battery lifetime?

This is the headline question of the paper's evaluation (Figures 10/11): a
wireless device can either transmit data as it arrives (the *simple* model)
or buffer it and send it in bursts (the *burst* model).  Both workloads have
the same long-run sending probability; the burst model, however, spends more
time asleep.  The example computes the lifetime distributions of both
strategies for the same 800 mAh battery and reports how much longer the
bursty device lasts.

Run with::

    python examples/cell_phone.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.comparison import crossing_time, stochastically_dominates
from repro.analysis.report import format_series
from repro.api import KiBaMParameters, LifetimeProblem, ScenarioBatch
from repro.workload import burst_workload, simple_workload


def main() -> None:
    battery = KiBaMParameters.from_mah(800.0, c=0.625, k_per_second=4.5e-5)
    times = np.linspace(1.0, 30.0, 59) * 3600.0
    delta = 10.0 * 3.6  # 10 mAh reward quantum

    workloads = {"simple": simple_workload(), "burst": burst_workload()}
    for name, workload in workloads.items():
        print(f"{name:>7s} model: mean current {workload.mean_current() * 1000:6.1f} mA, "
              f"sleep probability {workload.probability_in(['sleep']):.2f}")

    # Both strategies, solved through the engine as one scenario batch.
    batch = ScenarioBatch(
        LifetimeProblem(
            workload=workload, battery=battery, times=times, delta=delta,
            label=f"{name} model",
        )
        for name, workload in workloads.items()
    )
    results = batch.run("mrm-uniformization")
    curves = {name: result.distribution for name, result in zip(workloads, results)}

    print()
    sample_times = np.arange(5.0, 31.0, 5.0) * 3600.0
    print(format_series(list(curves.values()), sample_times, time_label="t (h)", time_scale=3600.0))
    print()

    for probability in (0.5, 0.9, 0.95):
        simple_time = crossing_time(curves["simple"], probability) / 3600.0
        burst_time = crossing_time(curves["burst"], probability) / 3600.0
        print(f"time until empty with probability {probability:.0%}: "
              f"simple {simple_time:5.1f} h, burst {burst_time:5.1f} h "
              f"(+{burst_time - simple_time:.1f} h)")

    if stochastically_dominates(curves["burst"], curves["simple"], tolerance=0.01):
        print("\nThe burst strategy stochastically dominates the simple strategy: "
              "at every point in time the battery is less likely to be empty.")
    else:
        print("\nNo clear dominance between the two strategies at this resolution.")


if __name__ == "__main__":
    main()
