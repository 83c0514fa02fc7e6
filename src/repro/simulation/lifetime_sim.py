"""Monte-Carlo estimation of the battery lifetime distribution.

Section 6 of the paper uses 1000 independent simulation runs as the
reference against which the Markovian approximation is compared.  The
:func:`simulate_lifetime_distribution` function reproduces that procedure
and packages the result as an empirical CDF with DKW confidence bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.battery.base import Battery
from repro.battery.kibam import KineticBatteryModel
from repro.simulation.battery_sim import (
    default_horizon,
    ideal_lifetime_horizon,
    simulate_lifetime_once,
)
from repro.simulation.rng import make_rng
from repro.simulation.statistics import EmpiricalDistribution, summarize_samples
from repro.simulation.vectorized import (
    simulate_lifetimes_vectorized,
    simulate_system_lifetimes_vectorized,
)
from repro.workload.base import WorkloadModel

__all__ = [
    "LifetimeSimulationResult",
    "default_system_horizon",
    "simulate_lifetime_distribution",
    "simulate_system_lifetime_distribution",
]


@dataclass(frozen=True)
class LifetimeSimulationResult:
    """Outcome of a Monte-Carlo lifetime study.

    Attributes
    ----------
    samples:
        One lifetime per run (seconds); censored runs are ``numpy.inf``.
    distribution:
        The empirical distribution of the samples.
    horizon:
        The per-run simulation horizon that was used.
    n_runs:
        Number of independent runs.
    """

    samples: np.ndarray
    distribution: EmpiricalDistribution
    horizon: float
    n_runs: int

    def cdf(self, times) -> np.ndarray:
        """Evaluate the empirical lifetime CDF at the given *times*."""
        return self.distribution.cdf(times)

    def probability_empty_by(self, time: float) -> float:
        """Return the estimated probability that the battery is empty at *time*."""
        return float(self.distribution.cdf(time))

    @property
    def mean_lifetime(self) -> float:
        """Mean of the observed (non-censored) lifetimes."""
        return self.distribution.mean

    def summary(self) -> dict[str, float]:
        """Return summary statistics of the lifetime sample."""
        return summarize_samples(self.samples)


def simulate_lifetime_distribution(
    workload: WorkloadModel,
    battery: Battery,
    *,
    n_runs: int = 1000,
    seed: int | np.random.Generator | None = None,
    horizon: float | None = None,
) -> LifetimeSimulationResult:
    """Estimate the lifetime distribution by independent simulation runs.

    Parameters
    ----------
    workload:
        The stochastic workload model.
    battery:
        The battery model integrated along each sampled trajectory.
    n_runs:
        Number of independent runs (the paper uses 1000).
    seed:
        Seed or generator for reproducibility.
    horizon:
        Per-run time horizon; defaults to three ideal lifetimes at the
        workload's mean current.

    Notes
    -----
    When *battery* is an analytical :class:`KineticBatteryModel` (the case
    in all of the paper's experiments) the replications are advanced with
    the vectorised engine of :mod:`repro.simulation.vectorized`; other
    battery models fall back to the per-trajectory simulation.

    Returns
    -------
    LifetimeSimulationResult
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    rng = make_rng(seed)
    if horizon is None:
        horizon = default_horizon(workload, battery)

    if isinstance(battery, KineticBatteryModel):
        samples = simulate_lifetimes_vectorized(
            workload, battery.parameters, n_runs, rng, float(horizon)
        )
    else:
        samples = np.empty(n_runs, dtype=float)
        for run in range(n_runs):
            samples[run] = simulate_lifetime_once(workload, battery, rng, horizon=horizon)

    return LifetimeSimulationResult(
        samples=samples,
        distribution=EmpiricalDistribution(samples),
        horizon=float(horizon),
        n_runs=int(n_runs),
    )


def default_system_horizon(workload: WorkloadModel, batteries) -> float:
    """Return a horizon that almost surely exceeds the system lifetime.

    The bank delivers at most the sum of its capacities, so the shared
    heuristic (:func:`~repro.simulation.battery_sim.ideal_lifetime_horizon`)
    applied to the total capacity bounds every policy's system lifetime.
    """
    total_capacity = float(sum(battery.capacity for battery in batteries))
    return ideal_lifetime_horizon(workload.mean_current(), total_capacity)


def simulate_system_lifetime_distribution(
    workload: WorkloadModel,
    batteries,
    policy,
    *,
    failures_to_die: int | None = None,
    n_runs: int = 1000,
    seed: int | np.random.Generator | None = None,
    horizon: float | None = None,
) -> LifetimeSimulationResult:
    """Estimate a multi-battery **system** lifetime distribution by simulation.

    The Monte-Carlo cross-check of the product-space Markovian
    approximation: per-battery KiBaM trajectories are sampled under the
    given scheduling policy (see
    :func:`repro.simulation.vectorized.simulate_system_lifetimes_vectorized`)
    and the first times the k-of-N depletion predicate fires form the
    empirical system-lifetime distribution.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    batteries = tuple(batteries)
    rng = make_rng(seed)
    if horizon is None:
        horizon = default_system_horizon(workload, batteries)

    samples = simulate_system_lifetimes_vectorized(
        workload,
        batteries,
        policy,
        n_runs,
        rng,
        float(horizon),
        failures_to_die=failures_to_die,
    )
    return LifetimeSimulationResult(
        samples=samples,
        distribution=EmpiricalDistribution(samples),
        horizon=float(horizon),
        n_runs=int(n_runs),
    )
