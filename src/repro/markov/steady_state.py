"""Steady-state (stationary) distributions of CTMCs.

The workload models of the paper are irreducible CTMCs with a handful of
states; their stationary distribution is used, for example, to calibrate the
burst model such that its steady-state sending probability matches the
simple model (Section 4.3), and to compute mean discharge currents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.checking.dense import dense_fallback
from repro.checking.protocols import FloatArray
from repro.markov.validate import validate_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checking.protocols import GeneratorLike

__all__ = ["steady_state_distribution"]


def steady_state_distribution(
    generator: GeneratorLike, *, validate: bool = True
) -> FloatArray:
    """Return the stationary distribution ``pi`` with ``pi Q = 0``.

    Parameters
    ----------
    generator:
        Generator matrix of an irreducible CTMC (dense or sparse).  For
        reducible chains the routine returns *one* stationary distribution
        (the least-squares solution of the balance equations) which may not
        be unique; callers that care should check irreducibility themselves.
    validate:
        When ``True`` the generator is validated first.

    Returns
    -------
    numpy.ndarray
        Probability vector of length ``n_states``.
    """
    matrix = dense_fallback(generator)
    if validate:
        validate_generator(matrix)
    n = matrix.shape[0]
    if n == 1:
        return np.array([1.0])

    # Solve pi Q = 0 together with the normalisation sum(pi) = 1 by replacing
    # one balance equation with the normalisation condition.
    system = matrix.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0:
        raise np.linalg.LinAlgError("failed to compute a stationary distribution")
    return solution / total
