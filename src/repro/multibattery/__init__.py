"""Multi-battery scheduling: product-space MRMs, policies, system lifetimes.

This sub-package extends the single-battery lifetime machinery of the
paper to systems powered by a *bank* of KiBaM batteries whose lifetime
depends on how the load is scheduled across them:

* :class:`~repro.multibattery.system.MultiBatterySystem` composes N
  per-battery charge grids into one product-space CTMC via sparse
  Kronecker assembly, with a configurable k-of-N depletion predicate
  defining the absorbing "system failed" states;
* :mod:`~repro.multibattery.policies` is a fixed string-keyed table of
  scheduler policies (``static-split``, ``round-robin``, ``best-of``)
  that shape the product generator's load-routing rates;
* :class:`~repro.multibattery.problem.MultiBatteryProblem` lowers a
  system-lifetime question onto the existing engine
  (:func:`repro.engine.solve_lifetime`, :class:`~repro.engine.ScenarioBatch`,
  :func:`~repro.engine.run_sweep`), so the incremental-uniformisation fast
  path, the Monte-Carlo cross-check and the sweep caches apply unchanged.

Quick start
-----------
>>> import numpy as np
>>> from repro import KiBaMParameters, simple_workload
>>> from repro.engine import solve_lifetime
>>> from repro.multibattery import MultiBatteryProblem
>>> problem = MultiBatteryProblem(
...     workload=simple_workload(),
...     batteries=(
...         KiBaMParameters(capacity=120.0, c=0.625, k=1e-3),
...         KiBaMParameters(capacity=120.0, c=0.625, k=1e-3),
...     ),
...     times=np.linspace(0.0, 40000.0, 60),
...     policy="best-of",
...     failures_to_die=1,
... )
>>> result = solve_lifetime(problem, "mrm-uniformization")
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
