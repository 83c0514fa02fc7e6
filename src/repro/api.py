"""The public API of :mod:`repro`: the one facade.

Three verbs plus the types they take and return:

* :func:`solve` -- answer one lifetime question
  (:class:`LifetimeProblem` -> :class:`LifetimeResult`);
* :func:`sweep` -- answer many (:class:`SweepSpec` / scenario iterable ->
  :class:`SweepResult`), configured by one :class:`RunOptions` object;
* :func:`serve` -- stand up a long-lived :class:`LifetimeService`
  answering :class:`LifetimeQuery` requests with caching, request
  coalescing and a warm workspace.

This is the only module that re-exports names from other modules;
:mod:`repro` re-exports exactly this module's ``__all__``.  Everything
else (battery models, workloads, solver classes, executor types) is
imported from the module that defines it; see the README's import table.

>>> import numpy as np
>>> import repro.api as api
>>> from repro.workload import simple_workload
>>> problem = api.LifetimeProblem(
...     workload=simple_workload(),
...     battery=api.KiBaMParameters.from_mah(800.0, c=0.625, k_per_second=4.5e-5),
...     times=np.linspace(1.0, 30.0, 30) * 3600.0,
... )
>>> api.solve(problem).method
'analytic'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.battery.parameters import KiBaMParameters
from repro.engine.batch import BatchResult, ScenarioBatch
from repro.engine.executor import ExecutionPolicy, SweepProgress
from repro.engine.options import RunOptions
from repro.engine.problem import LifetimeProblem, default_delta
from repro.engine.registry import available_solvers, solve_lifetime
from repro.engine.result import LifetimeResult
from repro.engine.sweep import (
    SweepCache,
    SweepResult,
    SweepSpec,
    run_sweep,
    scenario_fingerprint,
)
from repro.engine.workspace import SolveWorkspace
from repro.service.query import LifetimeQuery
from repro.service.server import DEFAULT_STORE_ENTRIES, LifetimeService, ServiceResponse
from repro.workload.base import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.workspace import SolveWorkspace as _Workspace

__all__ = [
    # verbs
    "solve",
    "sweep",
    "serve",
    # request / configuration types
    "LifetimeProblem",
    "LifetimeQuery",
    "RunOptions",
    "SweepSpec",
    "ExecutionPolicy",
    # result types
    "LifetimeResult",
    "SweepResult",
    "BatchResult",
    "ServiceResponse",
    # building blocks
    "KiBaMParameters",
    "WorkloadModel",
    "ScenarioBatch",
    "SolveWorkspace",
    "SweepCache",
    "LifetimeService",
    "SweepProgress",
    # helpers
    "available_solvers",
    "default_delta",
    "scenario_fingerprint",
]


def solve(
    problem: LifetimeProblem,
    method: str = "auto",
    *,
    workspace: "_Workspace | None" = None,
) -> LifetimeResult:
    """Answer one lifetime question with the named solver (default ``auto``).

    Facade over :func:`repro.engine.registry.solve_lifetime`; see there
    for the solver names and workspace semantics.
    """
    return solve_lifetime(problem, method, workspace=workspace)


def sweep(
    scenarios: SweepSpec | ScenarioBatch | Iterable[LifetimeProblem],
    method: str = "auto",
    *,
    options: RunOptions | None = None,
) -> SweepResult:
    """Answer a scenario sweep, fanning uncached work out over processes.

    Facade over :func:`repro.engine.sweep.run_sweep`; every execution
    knob travels in one :class:`RunOptions`.
    """
    return run_sweep(scenarios, method, options=options)


def serve(
    *,
    max_entries: int | None = DEFAULT_STORE_ENTRIES,
    options: RunOptions | None = None,
) -> LifetimeService:
    """Stand up an in-process :class:`LifetimeService` for lifetime queries.

    The service answers repeated queries from its fingerprint-keyed
    store, coalesces concurrent identical requests onto a single solve
    and keeps its workspace warm across requests; see
    :class:`repro.service.server.LifetimeService` for the parameters
    (``max_entries=None`` leaves the store unbounded).
    """
    return LifetimeService(max_entries=max_entries, options=options)
