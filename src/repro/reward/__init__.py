"""Markov reward models and accumulated-reward (performability) algorithms.

* :mod:`repro.reward.occupation` -- the exact uniformisation-based algorithm
  for the accumulated-reward distribution when the rewards take (at most)
  two distinct values, following De Souza e Silva & Gail / Sericola; this is
  the "exact" reference used for single-well on/off experiments.
* :mod:`repro.reward.discretisation` -- the explicit reward-discretisation
  scheme discussed (as an alternative) in Section 5 of the paper, for
  homogeneous MRMs with a single non-negative reward.
"""

from repro.reward.discretisation import discretised_reward_distribution
from repro.reward.occupation import (
    occupation_time_distribution,
    two_level_reward_distribution,
)

__all__ = [
    "discretised_reward_distribution",
    "occupation_time_distribution",
    "two_level_reward_distribution",
]
