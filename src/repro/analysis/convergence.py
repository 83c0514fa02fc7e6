"""Step-size convergence studies for the Markovian approximation.

Section 6.1 of the paper discusses how the approximation curves approach the
simulation reference as the discretisation step ``Delta`` decreases.  The
:func:`delta_convergence_study` helper runs a solver for a sequence of step
sizes and records the distance to a reference curve, which is used by the
ablation benchmark ``benchmarks/bench_ablation_delta.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.comparison import kolmogorov_distance
from repro.analysis.distribution import LifetimeDistribution

__all__ = ["ConvergenceStudy", "delta_convergence_study"]


@dataclass(frozen=True)
class ConvergenceStudy:
    """Outcome of a step-size refinement study.

    Attributes
    ----------
    deltas:
        The evaluated step sizes, in the order they were run.
    distances:
        Kolmogorov distance of each approximation to the reference curve.
    curves:
        The approximation curves themselves, one per step size.
    reference:
        The reference curve the distances were measured against.
    """

    deltas: tuple[float, ...]
    distances: tuple[float, ...]
    curves: tuple[LifetimeDistribution, ...]
    reference: LifetimeDistribution

    def is_monotonically_improving(self, *, slack: float = 0.0) -> bool:
        """Return ``True`` when smaller steps never give (noticeably) worse curves.

        *slack* allows small non-monotonicities caused by the interaction of
        the grid with the reference curve.
        """
        distances = np.asarray(self.distances)
        return bool(np.all(np.diff(distances) <= slack))

    def best_delta(self) -> float:
        """Return the step size with the smallest distance to the reference."""
        return float(self.deltas[int(np.argmin(self.distances))])

    def rows(self) -> list[tuple[float, float]]:
        """Return ``(delta, distance)`` rows for reporting."""
        return list(zip(self.deltas, self.distances))


def delta_convergence_study(
    solver: Callable[[float], LifetimeDistribution],
    deltas: Sequence[float],
    reference: LifetimeDistribution,
) -> ConvergenceStudy:
    """Run *solver* for every step size and measure distances to *reference*.

    Parameters
    ----------
    solver:
        Callable mapping a step size ``delta`` to a lifetime distribution
        (typically a closure solving a
        :class:`~repro.engine.problem.LifetimeProblem` with the
        ``mrm-uniformization`` solver).
    deltas:
        Step sizes to evaluate (any order; typically decreasing).
    reference:
        Reference curve (simulation or a finer approximation).
    """
    if len(deltas) == 0:
        raise ValueError("at least one step size is required")
    curves = []
    distances = []
    for delta in deltas:
        curve = solver(float(delta))
        curves.append(curve)
        distances.append(kolmogorov_distance(curve, reference))
    return ConvergenceStudy(
        deltas=tuple(float(d) for d in deltas),
        distances=tuple(distances),
        curves=tuple(curves),
        reference=reference,
    )
