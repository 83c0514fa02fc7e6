"""The Markovian approximation of the KiBaMRM (the paper's core contribution).

The KiBaMRM (Section 4.2) is a CTMC workload whose two accumulated rewards
are the charges of the KiBaM's available and bound wells.

* :mod:`repro.core.grid` -- discretisation grids for the accumulated-reward
  space.
* :mod:`repro.core.discretization` -- construction of the expanded CTMC
  ``Q*`` of Section 5 (workload transitions, energy-consumption transitions
  ``I_i / Delta`` and bound-to-available transfer transitions
  ``k (h2 - h1) / Delta``, with absorbing empty states) as Kronecker terms,
  for a bank of batteries; a single battery is the bank of one.

The lifetime distribution itself -- the transient solution of ``Q*`` by
uniformisation, summed over the empty states -- is computed by the
``mrm-uniformization`` solver of :mod:`repro.engine`
(``repro.api.solve(problem, "mrm-uniformization")``).
"""

from repro.core.discretization import DiscretizedMultiBatterySystem, discretize
from repro.core.grid import RewardGrid

__all__ = [
    "DiscretizedMultiBatterySystem",
    "RewardGrid",
    "discretize",
]
