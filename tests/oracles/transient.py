"""Test oracles for the transient solution of CTMCs.

The production transient is
:meth:`repro.markov.uniformization.TransientPropagator.transient_batch`.
:func:`expm_transient` is the dense matrix-exponential reference for small
chains, and :func:`cumulative_state_probabilities` integrates the
propagator's output over time (the occupation times behind expected
accumulated rewards).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from repro.checking.dense import dense_fallback
from repro.checking.protocols import FloatArray
from repro.markov.uniformization import TransientPropagator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.checking.protocols import GeneratorLike

__all__ = [
    "expm_transient",
    "cumulative_state_probabilities",
]


def expm_transient(
    generator: GeneratorLike, initial_distribution: npt.ArrayLike, time: float
) -> FloatArray:
    """Reference transient solution via the dense matrix exponential.

    Only intended for small chains (tests and cross-validation); the
    uniformisation-based solver is the production path.
    """
    dense = dense_fallback(generator)
    alpha = np.asarray(initial_distribution, dtype=float).ravel()
    return alpha @ scipy.linalg.expm(dense * float(time))


def cumulative_state_probabilities(
    generator: GeneratorLike,
    initial_distribution: npt.ArrayLike,
    time: float,
    *,
    n_points: int = 257,
    epsilon: float = 1e-10,
) -> FloatArray:
    """Return :math:`\\int_0^t \\pi_i(s)\\,ds` for every state ``i``.

    The integral is evaluated with the composite trapezoidal rule over a
    uniform grid of *n_points* transient solutions, which is accurate enough
    for the expected-energy computations it is used for (the integrand is
    smooth).  ``n_points`` must be at least two.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    grid = np.linspace(0.0, float(time), int(n_points))
    distributions = TransientPropagator(generator).transient_batch(
        initial_distribution, grid, epsilon=epsilon
    ).values[0]
    return np.trapezoid(distributions, grid, axis=0)
