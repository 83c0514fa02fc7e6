"""The fixed table of lifetime solvers.

Callers hold a :class:`~repro.engine.problem.LifetimeProblem` and a method
name (``"analytic"``, ``"mrm-uniformization"``, ``"monte-carlo"`` or
``"auto"``), and :func:`solve_lifetime` routes it to the built-in solver of
that name.
"""

from __future__ import annotations

from repro.engine.base import LifetimeSolver, UnknownSolverError
from repro.engine.problem import LifetimeProblem
from repro.engine.result import LifetimeResult
from repro.engine.solvers import (
    AnalyticSolver,
    AutoSolver,
    MonteCarloSolver,
    MRMUniformizationSolver,
)
from repro.engine.workspace import SolveWorkspace

__all__ = [
    "available_solvers",
    "get_solver",
    "solve_lifetime",
]

_SOLVERS: dict[str, LifetimeSolver] = {
    solver.name: solver
    for solver in (
        AnalyticSolver(),
        MRMUniformizationSolver(),
        MonteCarloSolver(),
        AutoSolver(),
    )
}


def get_solver(name: str) -> LifetimeSolver:
    """Return the solver called *name*."""
    try:
        return _SOLVERS[name]
    except KeyError:
        raise UnknownSolverError(
            f"unknown solver {name!r}; available: {', '.join(sorted(_SOLVERS))}"
        ) from None


def available_solvers() -> list[str]:
    """Return the names of the built-in solvers."""
    return sorted(_SOLVERS)


def solve_lifetime(
    problem: LifetimeProblem,
    method: str = "auto",
    *,
    workspace: SolveWorkspace | None = None,
) -> LifetimeResult:
    """Solve one lifetime problem with the named solver (default ``auto``).

    Parameters
    ----------
    problem:
        The lifetime question (workload, battery, time grid, tuning knobs).
    method:
        Name of the solver to use; ``"auto"`` dispatches by problem
        structure and size.
    workspace:
        Optional :class:`SolveWorkspace` shared across calls, so repeated
        solves on the same chain reuse the expanded generator and its
        uniformised matrix.  Sweeps over many scenarios should prefer
        :class:`repro.engine.batch.ScenarioBatch`, which adds batched
        propagation on top.
    """
    return get_solver(method).solve(problem, workspace=workspace)
