"""Markov reward models and accumulated-reward (performability) algorithms.

* :mod:`repro.reward.occupation` -- the exact uniformisation-based algorithm
  for the accumulated-reward distribution when the rewards take (at most)
  two distinct values, following De Souza e Silva & Gail / Sericola; this is
  the "exact" reference used for single-well on/off experiments.

The explicit reward-discretisation scheme that Section 5 of the paper
discusses as an alternative is a test oracle
(``tests/oracles/discretisation.py``).
"""

from repro.reward.occupation import (
    occupation_time_distribution,
    two_level_reward_distribution,
)

__all__ = [
    "occupation_time_distribution",
    "two_level_reward_distribution",
]
