"""The :class:`LifetimeSolver` protocol and engine error types.

Every solution machinery -- analytic, Markov-reward-model, Monte-Carlo --
is exposed to the rest of the library through one tiny interface:

``solve(problem, workspace=None) -> LifetimeResult``

plus a :meth:`supports` predicate.  The four built-in solvers sit in the
fixed table of :mod:`repro.engine.registry`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.problem import LifetimeProblem
    from repro.engine.result import LifetimeResult
    from repro.engine.workspace import SolveWorkspace

__all__ = ["EngineError", "LifetimeSolver", "UnknownSolverError", "UnsupportedProblemError"]


class EngineError(RuntimeError):
    """Base class for engine-layer errors."""


class UnknownSolverError(EngineError, KeyError):
    """Raised when a name matches no built-in solver."""


class UnsupportedProblemError(EngineError, ValueError):
    """Raised when a solver is asked to solve a problem it cannot handle."""


@runtime_checkable
class LifetimeSolver(Protocol):
    """Anything that can turn a :class:`LifetimeProblem` into a :class:`LifetimeResult`.

    Attributes
    ----------
    name:
        The name the solver is looked up by; also recorded as ``method``
        on the results it produces.
    """

    name: str

    def supports(self, problem: "LifetimeProblem") -> bool:
        """Return whether this solver can handle *problem* at all."""
        ...

    def solve(
        self, problem: "LifetimeProblem", *, workspace: "SolveWorkspace | None" = None
    ) -> "LifetimeResult":
        """Solve *problem*, optionally reusing shared work from *workspace*."""
        ...
