"""The KiBaMRM and its Markovian approximation (the paper's core contribution).

* :mod:`repro.core.kibamrm` -- the Kinetic Battery Markov reward model: a
  CTMC workload equipped with the two KiBaM reward variables (available and
  bound charge) and their reward-dependent rates (Section 4.2).
* :mod:`repro.core.grid` -- discretisation grids for the accumulated-reward
  space.
* :mod:`repro.core.discretization` -- construction of the expanded CTMC
  ``Q*`` of Section 5 (workload transitions, energy-consumption transitions
  ``I_i / Delta`` and bound-to-available transfer transitions
  ``k (h2 - h1) / Delta``, with absorbing empty states).

The lifetime distribution itself -- the transient solution of ``Q*`` by
uniformisation, summed over the empty states -- is computed by the
``mrm-uniformization`` solver of :mod:`repro.engine`
(``repro.api.solve(problem, "mrm-uniformization")``).
"""

from repro.core.discretization import DiscretizedKiBaMRM, discretize
from repro.core.grid import RewardGrid
from repro.core.kibamrm import KiBaMRM

__all__ = [
    "DiscretizedKiBaMRM",
    "KiBaMRM",
    "RewardGrid",
    "discretize",
]
