"""Multi-battery scheduling: product-space MRMs, policies, system lifetimes.

This sub-package extends the single-battery lifetime machinery of the
paper to systems powered by a *bank* of KiBaM batteries whose lifetime
depends on how the load is scheduled across them:

* :class:`~repro.multibattery.system.MultiBatterySystem` composes N
  per-battery charge grids into one product-space CTMC of Kronecker
  terms (:func:`repro.core.discretization.discretize`, which builds a
  single battery as the bank of one), with a configurable k-of-N
  depletion predicate defining the absorbing "system failed" states;
* :mod:`~repro.multibattery.policies` is a fixed string-keyed table of
  scheduler policies (``static-split``, ``round-robin``, ``best-of``)
  that shape the product generator's load-routing rates;
* :class:`~repro.multibattery.problem.MultiBatteryProblem` lowers a
  system-lifetime question onto the existing engine
  (:func:`repro.api.solve`, :class:`~repro.api.ScenarioBatch`,
  :func:`repro.api.sweep`), so the incremental-uniformisation fast
  path, the Monte-Carlo cross-check and the sweep caches apply unchanged.

Quick start
-----------
>>> import numpy as np
>>> import repro.api as api
>>> from repro.multibattery import MultiBatteryProblem
>>> from repro.workload import simple_workload
>>> problem = MultiBatteryProblem(
...     workload=simple_workload(),
...     batteries=(
...         api.KiBaMParameters(capacity=120.0, c=0.625, k=1e-3),
...         api.KiBaMParameters(capacity=120.0, c=0.625, k=1e-3),
...     ),
...     times=np.linspace(0.0, 40000.0, 60),
...     policy="best-of",
...     failures_to_die=1,
... )
>>> result = api.solve(problem, "mrm-uniformization")
"""

from repro.multibattery.lumping import (
    LumpedMultiBatterySystem,
    discretize_lumped,
    multiset_count,
)
from repro.multibattery.policies import (
    BestOfPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    StaticSplitPolicy,
    available_policies,
    get_policy,
)
from repro.multibattery.problem import DEFAULT_MULTI_LEVELS, MultiBatteryProblem
from repro.multibattery.system import (
    BACKENDS,
    DiscretizedMultiBatterySystem,
    MultiBatterySystem,
)

__all__ = [
    "BACKENDS",
    "BestOfPolicy",
    "DEFAULT_MULTI_LEVELS",
    "DiscretizedMultiBatterySystem",
    "LumpedMultiBatterySystem",
    "MultiBatteryProblem",
    "MultiBatterySystem",
    "discretize_lumped",
    "multiset_count",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "StaticSplitPolicy",
    "available_policies",
    "get_policy",
]
