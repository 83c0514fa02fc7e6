"""Stochastic simulation of workloads and batteries.

The paper validates its Markovian-approximation algorithm against
stochastic simulation: CTMC workload trajectories are sampled and the
analytical KiBaM is integrated along each trajectory; the empirical
distribution of the resulting lifetimes is the reference curve in
Figures 7, 8 and 10.  This sub-package provides exactly that machinery:

* :mod:`repro.simulation.rng` -- reproducible random-number generators,
* :mod:`repro.simulation.vectorized` -- the one Monte-Carlo engine, which
  advances every run of a battery bank at once (a single battery is a bank
  of one),
* :mod:`repro.simulation.lifetime_sim` -- Monte-Carlo estimation of the
  lifetime distribution with confidence bands,
* :mod:`repro.simulation.statistics` -- empirical CDFs and summary
  statistics.

The per-trajectory simulator the engine is checked against is a test
oracle (``tests/oracles/trajectory.py``).
"""

from repro.simulation.lifetime_sim import LifetimeSimulationResult, simulate_lifetime_distribution
from repro.simulation.rng import make_rng, spawn_rngs, spawn_seeds
from repro.simulation.statistics import (
    EmpiricalDistribution,
    dkw_confidence_band,
    summarize_samples,
)

__all__ = [
    "EmpiricalDistribution",
    "LifetimeSimulationResult",
    "dkw_confidence_band",
    "make_rng",
    "simulate_lifetime_distribution",
    "spawn_rngs",
    "spawn_seeds",
    "summarize_samples",
]
