"""Ablation: effect of the Erlang shape parameter K on the on/off model.

The paper notes (without showing curves) that making the on/off phases more
deterministic (Erlang-K with K > 1) sharpens the simulated lifetime
distribution further, while the values computed by the approximation "do
not change visibly" because the discretisation error dominates.  This
ablation reproduces that observation quantitatively using the exact
occupation-time algorithm (instead of simulation) for the sharp reference
and a fixed-step approximation.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distribution import LifetimeDistribution
from repro.analysis.report import format_table
from repro.api import SolveWorkspace
from repro.experiments.common import approximation_curve, exact_curve
from repro.experiments.figure7 import onoff_single_well_battery
from repro.experiments.registry import ExperimentConfig, ExperimentResult, register_experiment
from repro.workload.onoff import onoff_workload

__all__ = ["run"]


def _spread(curve: LifetimeDistribution) -> float:
    """Width between the 10 % and 90 % quantiles of a lifetime curve (seconds)."""
    return curve.quantile(0.9) - curve.quantile(0.1)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run the Erlang-K shape study."""
    battery = onoff_single_well_battery()
    # A finer grid than Figure 7's is needed because the exact distribution
    # concentrates within a few hundred seconds around 15000 s for larger K.
    times = np.linspace(12500.0, 18000.0, 81)
    delta = 50.0
    shapes = [1, 2, 4] if not config.full else [1, 2, 4, 8]

    rows = []
    data: dict[str, dict[str, float]] = {}
    workspace = SolveWorkspace()
    for k in shapes:
        workload = onoff_workload(frequency=1.0, erlang_k=k)
        exact = exact_curve(workload, battery, times, label=f"exact, K={k}")
        approximation = approximation_curve(
            workload,
            battery,
            delta,
            times,
            label=f"approximation Delta={delta:g}, K={k}",
            workspace=workspace,
        )
        exact_spread = _spread(exact)
        approx_spread = _spread(approximation)
        rows.append([k, exact_spread, approx_spread])
        data[str(k)] = {
            "exact_spread_seconds": exact_spread,
            "approximation_spread_seconds": approx_spread,
        }

    table = format_table(
        ["Erlang K", "exact 10-90% width (s)", f"approximation (Delta={delta:g}) 10-90% width (s)"],
        rows,
    )

    exact_widths = [data[str(k)]["exact_spread_seconds"] for k in shapes]
    approx_widths = [data[str(k)]["approximation_spread_seconds"] for k in shapes]
    # The exact width shrinks with K; on the evaluation grid consecutive K may
    # quantise to the same value, so "decreases" means non-increasing overall
    # with a strict drop from the first to the last shape.
    exact_width_decreases = bool(
        np.all(np.diff(exact_widths) <= 1e-9) and exact_widths[-1] < exact_widths[0]
    )

    return ExperimentResult(
        experiment_id="ablation_erlang",
        title="Effect of the Erlang shape parameter K (on/off model, c=1)",
        tables={"distribution widths": table},
        data={
            "shapes": shapes,
            "per_shape": data,
            "exact_width_decreases": exact_width_decreases,
            "approximation_width_change": float(abs(approx_widths[-1] - approx_widths[0])),
        },
        paper_reference={
            "observation": "for K > 1 the simulated lifetime distribution gets even closer to a "
            "deterministic one, while the approximation's values do not change visibly",
        },
        notes=[
            "The true (exact) distribution sharpens markedly with K while the fixed-step "
            "approximation barely moves -- its phase-type smearing dominates.",
        ],
    )


register_experiment("ablation_erlang", run)
