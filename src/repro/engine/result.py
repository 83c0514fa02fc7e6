"""The :class:`LifetimeResult` container returned by every engine solver.

Whatever machinery answered a :class:`~repro.engine.problem.LifetimeProblem`
-- the analytic occupation-time algorithm, the discretised Markov reward
model or Monte-Carlo simulation -- the engine hands back the same object:
the lifetime CDF plus summary statistics, the method that produced it and
its diagnostics (chain sizes, iteration counts, wall-clock time, cache
reuse).  Experiments and user code therefore never have to care which
solver ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.distribution import LifetimeDistribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from repro.checking import FloatArray

__all__ = ["LifetimeResult"]

#: Percentile levels reported by :meth:`LifetimeResult.summary`.
SUMMARY_PERCENTILES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


@dataclass(frozen=True, eq=False)
class LifetimeResult:
    """A solved lifetime problem.

    Attributes
    ----------
    distribution:
        The lifetime CDF on the problem's time grid.
    method:
        Name of the solver that produced the result (for ``auto``
        dispatches this is the *concrete* solver that ran).
    diagnostics:
        Solver-specific diagnostics: number of states, non-zeros, iteration
        counts, simulation horizon, wall-clock seconds, shared-work reuse.
    """

    distribution: LifetimeDistribution
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def times(self) -> FloatArray:
        """The evaluation time grid (seconds)."""
        return self.distribution.times

    @property
    def probabilities(self) -> FloatArray:
        """``Pr{battery empty at t}`` on the time grid."""
        return self.distribution.probabilities

    @property
    def label(self) -> str:
        """The curve label."""
        return self.distribution.label

    # ------------------------------------------------------------------
    def mean_lifetime(self, *, strict: bool = False) -> float:
        """Mean lifetime (area above the CDF).

        A truncated curve (one that stops short of probability 1 on the
        grid) yields a lower bound and triggers an
        :class:`~repro.analysis.distribution.IncompleteDistributionWarning`
        stating the achieved mass; with ``strict=True`` it raises instead.
        The achieved mass is also recorded in ``diagnostics`` as
        ``cdf_mass_achieved`` / ``cdf_complete``.
        """
        return self.distribution.mean_lifetime(strict=strict)

    def quantile(self, probability: float) -> float:
        """First grid time at which the CDF reaches *probability*."""
        return self.distribution.quantile(probability)

    def percentiles(
        self, levels: Iterable[float] = SUMMARY_PERCENTILES
    ) -> dict[float, float | None]:
        """Return the requested percentiles; ``None`` where the CDF stops short."""
        out: dict[float, float | None] = {}
        for level in levels:
            try:
                out[float(level)] = self.distribution.quantile(float(level))
            except ValueError:
                out[float(level)] = None
        return out

    def summary(self) -> dict[str, Any]:
        """Return a compact summary (method, mean, percentiles, diagnostics)."""
        return {
            "method": self.method,
            "label": self.label,
            "mean_lifetime_seconds": self.mean_lifetime(),
            "percentiles_seconds": self.percentiles(),
            "diagnostics": dict(self.diagnostics),
        }
