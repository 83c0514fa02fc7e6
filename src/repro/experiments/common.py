"""Shared helpers for the experiment drivers.

Every curve an experiment needs is obtained through the unified solver
engine (:mod:`repro.engine`): the helpers here only translate the drivers'
historical (workload, battery, delta, times) vocabulary into
:class:`~repro.engine.problem.LifetimeProblem` objects and pick the solver
backend.  Sweeps go through :func:`repro.engine.sweep.run_sweep`, which keeps the
shared-work reuse of :class:`~repro.engine.batch.ScenarioBatch` (chain
builds, uniformised matrices, Poisson windows) and can additionally fan the
scenarios out over worker processes (``ExperimentConfig.workers`` /
``REPRO_WORKERS``).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.distribution import LifetimeDistribution
from repro.api import LifetimeProblem, RunOptions, ScenarioBatch, SolveWorkspace, SweepCache
from repro.battery.parameters import KiBaMParameters
from repro.engine.registry import solve_lifetime
from repro.engine.sweep import run_sweep
from repro.workload.base import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import SweepProgress
    from repro.experiments.registry import ExperimentConfig

__all__ = [
    "approximation_curve",
    "approximation_curves",
    "cache_stats",
    "exact_curve",
    "lifetime_problem",
    "print_sweep_progress",
    "shared_cache",
    "simulation_curve",
    "sweep_options",
]

#: One :class:`SweepCache` per cache directory per process, so hit/resume
#: counters aggregate across all experiment drivers of one runner
#: invocation instead of resetting sweep by sweep.
_SHARED_CACHES: dict[str, SweepCache] = {}


def shared_cache(
    cache_dir: str | os.PathLike[str] | None, *, resume: bool = False
) -> SweepCache | None:
    """Return the process-wide :class:`SweepCache` for *cache_dir*.

    Without *resume*, a directory that already holds checkpointed
    scenarios is rejected: fingerprints cover solver inputs, not solver
    code, so silently serving a previous run's entries across a code
    change could report stale curves.  Resuming is an explicit decision
    (``--resume`` / ``REPRO_RESUME=1``).
    """
    if cache_dir is None:
        return None
    directory = os.path.abspath(os.fspath(cache_dir))
    cache = _SHARED_CACHES.get(directory)
    if cache is None:
        if not resume and os.path.isdir(directory):
            entries = sum(1 for name in os.listdir(directory) if name.endswith(".pkl"))
            if entries:
                raise ValueError(
                    f"cache directory {directory!r} already holds {entries} "
                    "checkpointed scenario(s); pass --resume (REPRO_RESUME=1) to "
                    "reuse them or point --cache-dir at a fresh directory"
                )
        cache = SweepCache(directory)
        _SHARED_CACHES[directory] = cache
    return cache


def cache_stats(cache_dir: str | os.PathLike[str] | None) -> dict[str, int] | None:
    """Statistics of the shared cache for *cache_dir*, if one was opened."""
    if cache_dir is None:
        return None
    cache = _SHARED_CACHES.get(os.path.abspath(os.fspath(cache_dir)))
    return None if cache is None else cache.stats()


def print_sweep_progress(event: "SweepProgress") -> None:
    """Progress callback for ``--progress``: one status line per event."""
    line = f"  sweep: {event.done}/{event.total} scenarios"
    if event.retries:
        line += f", {event.retries} retried"
    if event.failed:
        line += f", {event.failed} failed"
    if event.eta_seconds is not None and event.done < event.total:
        line += f", eta {event.eta_seconds:.0f}s"
    print(line, file=sys.stderr)


def sweep_options(config: "ExperimentConfig | None") -> RunOptions:
    """The :class:`RunOptions` an :class:`ExperimentConfig` implies.

    Threads the worker count, the shared durable cache (``cache_dir`` /
    ``resume``) and the ``--progress`` stderr printer into every driver
    sweep with one ``run_sweep(..., options=sweep_options(config))`` call.
    """
    if config is None:
        return RunOptions(max_workers=1)
    return RunOptions(
        max_workers=config.workers,
        cache=shared_cache(config.cache_dir, resume=config.resume),
        progress=print_sweep_progress if config.progress else None,
    )


def lifetime_problem(
    workload: WorkloadModel,
    battery: KiBaMParameters,
    times,
    *,
    delta: float | None = None,
    epsilon: float = 1e-8,
    n_runs: int = 1000,
    seed: int = 20070625,
    horizon: float | None = None,
    label: str | None = None,
) -> LifetimeProblem:
    """Build a :class:`LifetimeProblem` from the drivers' vocabulary."""
    return LifetimeProblem(
        workload=workload,
        battery=battery,
        times=np.asarray(times, dtype=float),
        delta=delta,
        epsilon=epsilon,
        n_runs=n_runs,
        seed=seed,
        horizon=horizon,
        label=label,
    )


def approximation_curve(
    workload: WorkloadModel,
    battery: KiBaMParameters,
    delta: float,
    times,
    *,
    label: str | None = None,
    epsilon: float = 1e-8,
    workspace: SolveWorkspace | None = None,
) -> LifetimeDistribution:
    """Run the Markovian approximation for one step size."""
    problem = lifetime_problem(
        workload, battery, times, delta=float(delta), epsilon=epsilon, label=label
    )
    return solve_lifetime(problem, "mrm-uniformization", workspace=workspace).distribution


def approximation_curves(
    workload: WorkloadModel,
    battery: KiBaMParameters,
    deltas: Sequence[float],
    times,
    *,
    label_format: str = "Delta={delta:g}",
    epsilon: float = 1e-8,
    config: "ExperimentConfig | None" = None,
) -> list[LifetimeDistribution]:
    """Run the Markovian approximation for several step sizes (as one sweep).

    The sweep honours the *config*'s worker count, durable cache and
    progress settings (:func:`sweep_options`); with ``workers > 1`` the
    step sizes are solved in parallel worker processes and the results are
    identical to a serial run.
    """
    base = lifetime_problem(workload, battery, times, delta=float(deltas[0]), epsilon=epsilon)
    batch = ScenarioBatch.over_deltas(base, [float(d) for d in deltas], label_format=label_format)
    return run_sweep(batch, "mrm-uniformization", options=sweep_options(config)).distributions


def simulation_curve(
    workload: WorkloadModel,
    battery: KiBaMParameters,
    times,
    *,
    n_runs: int,
    seed: int,
    label: str | None = None,
    horizon: float | None = None,
) -> LifetimeDistribution:
    """Run the Monte-Carlo solver and sample its empirical CDF at *times*."""
    problem = lifetime_problem(
        workload, battery, times, n_runs=n_runs, seed=seed, horizon=horizon, label=label
    )
    return solve_lifetime(problem, "monte-carlo").distribution


def exact_curve(
    workload: WorkloadModel,
    battery: KiBaMParameters,
    times,
    *,
    label: str | None = None,
    epsilon: float = 1e-10,
) -> LifetimeDistribution:
    """Run the exact occupation-time (analytic) solver.

    Only applicable to two-level-current workloads without well-to-well
    transfer (``c = 1`` or ``k = 0``); the engine raises otherwise.
    """
    problem = lifetime_problem(workload, battery, times, epsilon=epsilon, label=label)
    return solve_lifetime(problem, "analytic").distribution
