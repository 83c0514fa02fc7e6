"""The unified lifetime-solver engine.

One question -- *what is the distribution of the battery lifetime under
this stochastic workload?* -- can be answered by several interchangeable
machineries: the exact occupation-time algorithm, the paper's discretised
Markov reward model solved by uniformisation, and Monte-Carlo simulation.
This sub-package puts all of them behind a single interface:

* :class:`LifetimeProblem` describes the question (workload, battery, time
  grid, tuning knobs);
* :class:`LifetimeResult` is the uniform answer (CDF, summary statistics,
  method metadata, solver diagnostics);
* a fixed table of solvers (:func:`solve_lifetime`, :func:`get_solver`)
  routes problems by name to the ``analytic``, ``mrm-uniformization`` and
  ``monte-carlo`` backends or lets ``auto`` dispatch by problem structure
  and size;
* :class:`ScenarioBatch` solves many (workload x battery) scenarios in one
  call with shared-work reuse: memoised Poisson windows, cached sparse
  chain builds and blocked propagation of stacked initial vectors;
* :func:`run_sweep` (with :class:`SweepSpec` and :class:`SweepCache`) fans
  a sweep out over worker processes and memoises solved scenarios by
  fingerprint, in memory or on disk, with deterministic result ordering;
* :func:`deterministic_lifetime` / :func:`discharge_trajectory` cover the
  deterministic load-profile experiments (Table 1, Figure 2) so every
  experiment driver has a single entry layer.

Quick start
-----------
>>> import numpy as np
>>> from repro import KiBaMParameters, simple_workload
>>> from repro.engine import LifetimeProblem, solve_lifetime
>>> problem = LifetimeProblem(
...     workload=simple_workload(),
...     battery=KiBaMParameters.from_mah(800.0, c=0.625, k_per_second=4.5e-5),
...     times=np.linspace(1.0, 30.0, 30) * 3600.0,
...     delta=25.0 * 3.6,
... )
>>> result = solve_lifetime(problem, "mrm-uniformization")
>>> float(result.distribution.probability_empty_at(20 * 3600)) > 0.5
True
"""

from repro.engine.base import (
    EngineError,
    LifetimeSolver,
    UnknownSolverError,
    UnsupportedProblemError,
)
from repro.engine.batch import BatchResult, ScenarioBatch
from repro.engine.deterministic import deterministic_lifetime, discharge_trajectory
from repro.engine.executor import (
    ExecutionPolicy,
    ProcessChunkExecutor,
    ScenarioFailure,
    SerialChunkExecutor,
    SweepProgress,
)
from repro.engine.faults import InjectedFaultError, override_faults, parse_faults
from repro.engine.options import RunOptions
from repro.engine.problem import LifetimeProblem, default_delta
from repro.engine.registry import available_solvers, get_solver, solve_lifetime
from repro.engine.result import LifetimeResult
from repro.engine.solvers import (
    AnalyticSolver,
    AutoSolver,
    MonteCarloSolver,
    MRMUniformizationSolver,
    choose_method,
)
from repro.engine.sweep import (
    SweepCache,
    SweepResult,
    SweepScenarioError,
    SweepSpec,
    run_sweep,
    scenario_fingerprint,
)
from repro.engine.workspace import SolveWorkspace

__all__ = [
    "AnalyticSolver",
    "AutoSolver",
    "BatchResult",
    "EngineError",
    "ExecutionPolicy",
    "InjectedFaultError",
    "LifetimeProblem",
    "LifetimeResult",
    "LifetimeSolver",
    "MRMUniformizationSolver",
    "MonteCarloSolver",
    "ProcessChunkExecutor",
    "RunOptions",
    "ScenarioBatch",
    "ScenarioFailure",
    "SerialChunkExecutor",
    "SolveWorkspace",
    "SweepCache",
    "SweepProgress",
    "SweepResult",
    "SweepScenarioError",
    "SweepSpec",
    "UnknownSolverError",
    "UnsupportedProblemError",
    "available_solvers",
    "choose_method",
    "default_delta",
    "deterministic_lifetime",
    "discharge_trajectory",
    "get_solver",
    "override_faults",
    "parse_faults",
    "run_sweep",
    "scenario_fingerprint",
    "solve_lifetime",
]
