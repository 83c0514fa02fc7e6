"""Experiment: scheduling policies on a two-battery series pack.

This driver goes beyond the paper: it takes the paper's stochastic
workload style (a slow busy/idle CTMC) and powers it from a bank of two
KiBaM batteries with a series-pack depletion predicate (the system dies
with the first empty battery), then compares the scheduler policies of
:mod:`repro.multibattery.policies`:

* ``static-split`` with a deliberately mismatched 75/25 split,
* ``round-robin`` phase-clocked alternation, and
* ``best-of`` greedy charge balancing,

each solved through the product-space Markovian approximation and
cross-checked against the vectorised Monte-Carlo system simulator.  The
expected ordering ``best-of >= round-robin >= static-split`` on the mean
system lifetime quantifies how much charge-aware scheduling buys.
"""

from __future__ import annotations

import numpy as np

from repro.api import ScenarioBatch
from repro.battery.parameters import KiBaMParameters
from repro.engine.workspace import SolveWorkspace
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentResult,
    register_experiment,
)
from repro.multibattery import MultiBatteryProblem, get_policy
from repro.workload.base import WorkloadModel

__all__ = ["run_multibattery"]


def _workload() -> WorkloadModel:
    return WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-1.0, 1.0], [1.0, -1.0]]),
        currents=np.array([0.5, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
        description="fast-mixing busy/idle workload",
    )


def run_multibattery(config: ExperimentConfig) -> ExperimentResult:
    """Compare the scheduling policies on a two-battery series pack."""
    battery = KiBaMParameters(capacity=150.0, c=0.625, k=1e-3)
    levels = 14 if config.full else 10
    delta = battery.available_capacity / levels
    times = np.linspace(0.0, 3000.0, 121)

    base = MultiBatteryProblem(
        workload=_workload(),
        batteries=(battery, battery),
        times=times,
        delta=delta,
        failures_to_die=1,
        n_runs=config.n_simulation_runs,
        seed=config.seed,
    )
    policies = [
        get_policy("static-split", weights=(0.75, 0.25)),
        get_policy("round-robin", switch_rate=0.05),
        get_policy("best-of"),
    ]
    batch = ScenarioBatch.over_policies(base, policies)

    # One workspace for both passes: the MRM solves run first and record
    # their steady-state times, so the Monte-Carlo cross-check caps its
    # horizon at the detected flattening point instead of simulating the
    # flat tail.
    workspace = SolveWorkspace()
    approximations = batch.run("mrm-uniformization", workspace=workspace)
    simulations = batch.run("monte-carlo", workspace=workspace)

    rows = []
    data: dict = {"policies": {}, "times": times.tolist()}
    for policy, mrm, sim in zip(policies, approximations, simulations):
        mean_mrm = float(mrm.distribution.mean_lifetime())
        mean_sim = float(sim.distribution.mean_lifetime())
        gap = (mean_sim - mean_mrm) / mean_sim
        rows.append(
            f"{policy.name:14s} {mean_mrm:10.1f} {mean_sim:10.1f} {gap:9.1%} "
            f"{'yes' if sim.diagnostics.get('horizon_capped_by_steady_state') else 'no':>7s}"
        )
        data["policies"][policy.name] = {
            "mean_lifetime_mrm_seconds": mean_mrm,
            "mean_lifetime_simulation_seconds": mean_sim,
            "relative_mean_gap": gap,
            "cdf_mrm": np.asarray(mrm.distribution.probabilities).tolist(),
            "horizon_capped_by_steady_state": bool(
                sim.diagnostics.get("horizon_capped_by_steady_state", False)
            ),
        }

    header = (
        f"{'policy':14s} {'E[T] MRM':>10s} {'E[T] sim':>10s} {'gap':>9s} "
        f"{'capped':>7s}"
    )
    table = "\n".join([header, *rows])

    means = {
        name: entry["mean_lifetime_mrm_seconds"]
        for name, entry in data["policies"].items()
    }
    ordered = means["best-of"] >= means["round-robin"] >= means["static-split"]
    return ExperimentResult(
        experiment_id="multibattery",
        title="Scheduling policies on a two-battery series pack (beyond the paper)",
        tables={"mean system lifetime by policy": table},
        data=data,
        paper_reference={
            "scope": "not in the paper -- extension of the KiBaMRM to battery banks"
        },
        notes=[
            "series-pack predicate: the system fails with the first empty battery",
            f"policy ordering best-of >= round-robin >= static-split holds: {ordered}",
            "the product-space approximation is pessimistic at coarse steps and "
            "converges to the simulation from below as Delta shrinks (the "
            "multi-battery analogue of the paper's Delta studies)",
            "Monte-Carlo horizons capped at the MRM's detected steady-state time "
            "where the cap undercuts the default horizon",
        ],
    )


register_experiment("multibattery", run_multibattery)
