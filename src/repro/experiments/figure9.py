"""Figure 9 -- on/off model with different initial capacities.

Three battery settings are compared for the 1 Hz on/off workload
(Section 6.1):

* ``C = 7200 As, c = 1`` -- all charge readily available (longest lifetime),
* ``C = 7200 As, c = 0.625`` -- 62.5 % available, the rest bound,
* ``C = 4500 As, c = 1`` -- only the available part, no bound charge at all
  (shortest lifetime).

The paper computes all three with ``Delta = 5``; by default this driver uses
coarser steps (the two-well case is the expensive one) and the full setting
restores the paper's resolution.  The qualitative ordering of the three
curves is the reproduction target.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.comparison import stochastically_dominates
from repro.analysis.report import format_series
from repro.api import ScenarioBatch
from repro.battery.parameters import KiBaMParameters, rao_battery_parameters
from repro.engine.sweep import run_sweep
from repro.experiments.common import lifetime_problem, sweep_options
from repro.experiments.registry import ExperimentConfig, ExperimentResult, register_experiment
from repro.workload.onoff import onoff_workload

__all__ = ["run", "FIGURE9_TIMES"]

#: Evaluation grid of Figure 9 (seconds).
FIGURE9_TIMES = np.linspace(6000.0, 20000.0, 29)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Reproduce Figure 9."""
    workload = onoff_workload(frequency=1.0, erlang_k=1)
    times = FIGURE9_TIMES

    single_well_delta = 5.0 if config.full else 25.0
    two_well_delta = 5.0 if config.full else 50.0

    scenarios = [
        ("C=4500, c=1", KiBaMParameters(capacity=4500.0, c=1.0, k=0.0), single_well_delta),
        ("C=7200, c=0.625", rao_battery_parameters(), two_well_delta),
        ("C=7200, c=1", KiBaMParameters(capacity=7200.0, c=1.0, k=0.0), single_well_delta),
    ]

    # One engine sweep: the two single-well scenarios share the same
    # transfer-free chain and are propagated as a stacked block; with
    # config.workers > 1 the chain groups solve in parallel processes.
    batch = ScenarioBatch(
        lifetime_problem(
            workload, battery, times, delta=delta, label=f"{label} (Delta={delta:g})"
        )
        for label, battery, delta in scenarios
    )
    curves = run_sweep(
        batch, "mrm-uniformization", options=sweep_options(config)
    ).distributions

    table = format_series(curves, times, time_label="t (s)")
    short, middle, long_curve = curves
    ordering_holds = stochastically_dominates(long_curve, middle, tolerance=0.02) and stochastically_dominates(
        middle, short, tolerance=0.02
    )

    return ExperimentResult(
        experiment_id="figure9",
        title="On/off model with different initial capacities (Figure 9)",
        tables={"Pr[battery empty at t]": table},
        data={
            "times": times.tolist(),
            "curves": {curve.label: curve.probabilities.tolist() for curve in curves},
            "ordering_holds": ordering_holds,
            "deltas": {"single_well": single_well_delta, "two_well": two_well_delta},
        },
        paper_reference={
            "ordering": "(C=4500, c=1) empties first, then (C=7200, c=0.625), then (C=7200, c=1)",
            "reason": "with c=1 all charge is available; with c=0.625 part of the charge is bound and "
            "only becomes available through the (slow) transfer; with C=4500 there is no bound "
            "charge to recover at all",
        },
        notes=[
            f"Stochastic ordering of the three curves reproduced: {ordering_holds}.",
            "The paper uses Delta=5 for all three curves; REPRO_FULL=1 restores that setting.",
        ],
    )


register_experiment("figure9", run)
