"""repro -- Computing Battery Lifetime Distributions (DSN 2007), in Python.

This library reproduces L. Cloth, M. R. Jongerden and B. R. Haverkort,
"Computing Battery Lifetime Distributions", DSN 2007: the lifetime
distribution of a Kinetic Battery Model (KiBaM) battery under a CTMC
workload.

The public surface is :mod:`repro.api` -- three verbs (``solve``,
``sweep``, ``serve``) plus the types they take and return.  This package
re-exports exactly those names and ``__version__``; the battery models,
workloads and the other building blocks are imported from their own
sub-packages (:mod:`repro.battery`, :mod:`repro.workload`, ...).
"""

__version__ = "1.2.0"

from repro.api import (
    BatchResult,
    ExecutionPolicy,
    KiBaMParameters,
    LifetimeProblem,
    LifetimeQuery,
    LifetimeResult,
    LifetimeService,
    RunOptions,
    ScenarioBatch,
    ServiceResponse,
    SolveWorkspace,
    SweepCache,
    SweepProgress,
    SweepResult,
    SweepSpec,
    WorkloadModel,
    available_solvers,
    default_delta,
    scenario_fingerprint,
    serve,
    solve,
    sweep,
)

__all__ = [
    "solve",
    "sweep",
    "serve",
    "LifetimeProblem",
    "LifetimeQuery",
    "RunOptions",
    "SweepSpec",
    "ExecutionPolicy",
    "LifetimeResult",
    "SweepResult",
    "BatchResult",
    "ServiceResponse",
    "KiBaMParameters",
    "WorkloadModel",
    "ScenarioBatch",
    "SolveWorkspace",
    "SweepCache",
    "LifetimeService",
    "SweepProgress",
    "available_solvers",
    "default_delta",
    "scenario_fingerprint",
    "__version__",
]
