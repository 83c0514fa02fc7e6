"""Monte-Carlo estimation of the battery lifetime distribution.

Section 6 of the paper uses 1000 independent simulation runs as the
reference against which the Markovian approximation is compared.  The
:func:`simulate_lifetime_distribution` function reproduces that procedure
for one battery, :func:`simulate_system_lifetime_distribution` for a bank
under a scheduling policy; both package the samples of the one engine
(:func:`~repro.simulation.vectorized.simulate_system_lifetimes_vectorized`,
where a single battery is a bank of one) as an empirical CDF with DKW
confidence bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.battery.parameters import KiBaMParameters
from repro.simulation.rng import make_rng
from repro.simulation.statistics import EmpiricalDistribution, summarize_samples
from repro.simulation.vectorized import simulate_system_lifetimes_vectorized
from repro.workload.base import WorkloadModel

__all__ = [
    "LifetimeSimulationResult",
    "default_system_horizon",
    "simulate_lifetime_distribution",
    "simulate_system_lifetime_distribution",
]

#: Multiple of the ideal lifetime that the default simulation horizons span.
HORIZON_SAFETY_FACTOR = 3.0


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
    battery: KiBaMParameters,
    *,
    n_runs: int = 1000,
    seed: int | np.random.Generator | None = None,
    horizon: float | None = None,
) -> LifetimeSimulationResult:
    """Estimate one battery's lifetime distribution by independent simulation runs.

    The battery runs as the bank ``(battery,)`` under ``static-split``
    (see :func:`simulate_system_lifetime_distribution`).

    Parameters
    ----------
    workload:
        The stochastic workload model.
    battery:
        The KiBaM parameters; the analytical KiBaM is integrated along each
        sampled trajectory.
    n_runs:
        Number of independent runs (the paper uses 1000).
    seed:
        Seed or generator for reproducibility.
    horizon:
        Per-run time horizon; defaults to three ideal lifetimes at the
        workload's mean current.

    Returns
    -------
    LifetimeSimulationResult
    """
    return simulate_system_lifetime_distribution(
        workload, (battery,), "static-split", n_runs=n_runs, seed=seed, horizon=horizon
    )


def default_system_horizon(workload: WorkloadModel, batteries) -> float:
    """Return a horizon that almost surely exceeds the system lifetime.

    The bank delivers at most the sum of its capacities, so
    :data:`HORIZON_SAFETY_FACTOR` times the ideal lifetime of the total
    capacity at the workload's long-run mean current bounds every policy's
    system lifetime; a non-positive mean current falls back to a large
    constant.
    """
    mean_current = workload.mean_current()
    if mean_current <= 0:
        return 1_000_000.0
    total_capacity = float(sum(battery.capacity for battery in batteries))
    return HORIZON_SAFETY_FACTOR * total_capacity / mean_current


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
