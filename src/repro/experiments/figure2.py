"""Figure 2 -- evolution of the available and bound charge.

The analytical KiBaM (C = 7200 As, c = 0.625, k = 4.5e-5 /s) is discharged
with a 0.001 Hz square wave drawing 0.96 A during the on-phases.  The figure
shows the saw-tooth of the available-charge well (dropping while the current
flows, recovering during the idle phases) and the monotone decline of the
bound-charge well, until the battery is empty shortly after 12000 s.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.battery.kibam import KineticBatteryModel
from repro.battery.parameters import rao_battery_parameters
from repro.battery.profiles import SquareWaveLoad
from repro.experiments.registry import ExperimentConfig, ExperimentResult, register_experiment

__all__ = ["run"]

#: Square-wave frequency of Figure 2 (Hz).
FIGURE2_FREQUENCY = 0.001

#: On-phase current of Figure 2 (amperes).
FIGURE2_CURRENT = 0.96


def run(config: ExperimentConfig) -> ExperimentResult:
    """Reproduce Figure 2."""
    battery = KineticBatteryModel(rao_battery_parameters())
    profile = SquareWaveLoad(FIGURE2_CURRENT, frequency=FIGURE2_FREQUENCY)

    sample_step = 250.0 if config.full else 500.0
    times = np.arange(0.0, 13000.0 + sample_step, sample_step)
    trajectory = battery.discharge(profile, times)

    rows = [
        [float(t), float(y1), float(y2)]
        for t, y1, y2 in zip(trajectory.times, trajectory.available_charge, trajectory.bound_charge)
    ]
    table = format_table(["t (s)", "available charge y1 (As)", "bound charge y2 (As)"], rows)

    lifetime = battery.lifetime(profile)
    return ExperimentResult(
        experiment_id="figure2",
        title="Evolution of the available- and bound-charge wells, f = 0.001 Hz (Figure 2)",
        tables={"well contents": table},
        data={
            "times": trajectory.times.tolist(),
            "available": trajectory.available_charge.tolist(),
            "bound": trajectory.bound_charge.tolist(),
            "lifetime_seconds": lifetime,
        },
        paper_reference={
            "initial available charge": "4500 As (62.5 % of 7200 As)",
            "initial bound charge": "2700 As",
            "shape": "available charge saw-tooths (drops under load, recovers when idle); "
            "bound charge decreases monotonically, faster as the height difference grows",
            "battery empty": "shortly after 12000 s",
        },
        notes=[
            "The on-phases drain the available well by roughly 0.96 A x 500 s = 480 As each;"
            " the off-phases let charge flow back from the bound well.",
        ],
    )


register_experiment("figure2", run)
