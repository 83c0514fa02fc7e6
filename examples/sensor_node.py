#!/usr/bin/env python
"""Sensor-node scenario: dimensioning the duty cycle of a wireless sensor.

The paper motivates its model with battery-powered sensor networks.  This
example uses the library's workload builder to model a sensor node with four
operating modes (deep sleep, sensing, processing, radio transmission) and
studies how the *measurement period* (how often the node wakes up) affects
the probability of surviving a one-week deployment on a small 400 mAh cell.

It demonstrates the parts of the public API a systems designer would touch:
the :class:`~repro.workload.builder.WorkloadBuilder`, KiBaM parameter
construction, the Markovian-approximation solver and the comparison helpers.

Run with::

    python examples/sensor_node.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.api import KiBaMParameters, LifetimeProblem, ScenarioBatch
from repro.workload import WorkloadBuilder


def sensor_workload(measurements_per_hour: float):
    """Build a duty-cycled sensor-node workload.

    The node sleeps most of the time; *measurements_per_hour* times per hour
    it wakes up, senses for about 60 s, processes for about 30 s and then
    transmits for about 15 s before going back to sleep.
    """
    builder = WorkloadBuilder(
        time_unit="hours",
        description=f"sensor node, {measurements_per_hour:g} measurements/h",
    )
    builder.add_state("deep-sleep", current_ma=0.02)
    builder.add_state("sense", current_ma=5.0)
    builder.add_state("process", current_ma=15.0)
    builder.add_state("transmit", current_ma=60.0)

    builder.add_transition("deep-sleep", "sense", rate=measurements_per_hour)
    builder.add_transition("sense", "process", rate=3600.0 / 60.0)
    builder.add_transition("process", "transmit", rate=3600.0 / 30.0)
    builder.add_transition("transmit", "deep-sleep", rate=3600.0 / 15.0)
    return builder.initial_state("deep-sleep").build()


def main() -> None:
    battery = KiBaMParameters.from_mah(400.0, c=0.625, k_per_second=4.5e-5)
    deployment = 7 * 24 * 3600.0  # one week
    times = np.linspace(0.1, 1.6, 31) * deployment

    duty_cycles = (6.0, 12.0, 30.0, 60.0)
    workloads = {rate: sensor_workload(rate) for rate in duty_cycles}
    # One engine batch over the duty-cycle scenarios (5 mAh quantum).
    batch = ScenarioBatch(
        LifetimeProblem(
            workload=workload, battery=battery, times=times, delta=5.0 * 3.6,
            label=f"{rate:g}/h",
        )
        for rate, workload in workloads.items()
    )
    results = batch.run("mrm-uniformization")

    rows = []
    for (measurements_per_hour, workload), result in zip(workloads.items(), results):
        curve = result.distribution
        survival = 1.0 - float(curve.probability_empty_at(deployment))
        if curve.probabilities[-1] >= 0.5:
            median_days = f"{curve.quantile(0.5) / 86400.0:.1f}"
        else:
            median_days = f"> {times[-1] / 86400.0:.1f}"
        rows.append(
            [
                measurements_per_hour,
                workload.mean_current() * 1000.0,
                median_days,
                survival,
            ]
        )

    print("One-week deployment on a 400 mAh cell:")
    print(
        format_table(
            ["measurements per hour", "mean current (mA)", "median lifetime (days)", "P[survive 7 days]"],
            rows,
        )
    )
    print()
    viable = [row[0] for row in rows if row[3] > 0.95]
    if viable:
        print(f"Duty cycles with >95% one-week survival: up to {max(viable):g} measurements/h.")
    else:
        print("No studied duty cycle reaches 95% one-week survival; a larger battery is needed.")


if __name__ == "__main__":
    main()
