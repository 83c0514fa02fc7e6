"""The :class:`LifetimeProblem` container.

A lifetime problem is the *question* every machinery in this library can
answer: given a stochastic workload and a KiBaM parameter set, what is the
distribution of the battery lifetime on a grid of time points?  The problem
object also carries the per-method tuning knobs (discretisation step,
truncation error, number of Monte-Carlo runs) so that one description can be
handed to any built-in solver -- or to the ``auto`` dispatcher, which
picks a solver from the problem's structure and size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.battery.parameters import KiBaMParameters
from repro.core.kibamrm import KiBaMRM
from repro.workload.base import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.checking import FloatArray

__all__ = ["LifetimeProblem", "default_delta"]

#: Default number of levels the available-charge well is split into when no
#: explicit step size is given.
DEFAULT_AVAILABLE_LEVELS = 100


def default_delta(battery: KiBaMParameters) -> float:
    """Return a default discretisation step: :data:`DEFAULT_AVAILABLE_LEVELS` available-charge levels."""
    return battery.available_capacity / float(DEFAULT_AVAILABLE_LEVELS)


@dataclass(frozen=True, eq=False)
class LifetimeProblem:
    """One battery-lifetime question, solvable by any built-in solver.

    Attributes
    ----------
    workload:
        The stochastic workload model (CTMC + per-state currents).
    battery:
        The KiBaM parameter set.
    times:
        Evaluation time grid (seconds); finite, strictly increasing,
        non-negative.
    delta:
        Discretisation step size (As) for the Markovian approximation;
        ``None`` selects a default of ~100 available-charge levels.
    epsilon:
        Truncation error bound for the uniformisation-based solvers; lies
        in (0, 1).
    n_runs:
        Number of replications for the Monte-Carlo solver.
    seed:
        Seed for the stochastic solvers.
    horizon:
        Optional positive, finite per-run horizon for the Monte-Carlo
        solver.
    label:
        Optional curve label attached to the resulting distribution.
    """

    workload: WorkloadModel
    battery: KiBaMParameters
    times: FloatArray
    delta: float | None = None
    epsilon: float = 1e-8
    n_runs: int = 1000
    seed: int = 20070625
    horizon: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        times = np.atleast_1d(np.asarray(self.times, dtype=float)).ravel()
        if times.size == 0:
            raise ValueError("a lifetime problem needs at least one time point")
        finite = np.isfinite(times)
        if not np.all(finite):
            raise ValueError(f"times must be finite, got {times[~finite][0]}")
        if np.any(times < 0):
            raise ValueError("times must be non-negative")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        if self.delta is not None:
            delta = float(self.delta)
            if not math.isfinite(delta) or delta <= 0:
                raise ValueError("the step size delta must be positive and finite")
            if delta > self.battery.available_capacity:
                raise ValueError(
                    "the step size must not exceed the available capacity "
                    f"({self.battery.available_capacity:g} As)"
                )
            object.__setattr__(self, "delta", delta)
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")

    # ------------------------------------------------------------------
    @property
    def is_multibattery(self) -> bool:
        """Whether this is a battery-*bank* problem (policy + predicate).

        :class:`~repro.multibattery.problem.MultiBatteryProblem` overrides
        this to ``True``; solvers and merge keys dispatch on it without
        importing the multi-battery sub-package.  Note a bank of **one**
        battery is still a bank -- it assembles a product chain whose key
        covers the policy and depletion predicate -- so dispatching on
        ``n_batteries`` alone would be wrong.
        """
        return False

    @property
    def n_batteries(self) -> int:
        """Number of batteries the problem is about (1 for this class)."""
        return 1

    @property
    def effective_delta(self) -> float:
        """The discretisation step: the explicit one, or the default."""
        if self.delta is not None:
            return self.delta
        return default_delta(self.battery)

    @property
    def has_transfer(self) -> bool:
        """Whether charge can flow between the wells (``c < 1`` and ``k > 0``)."""
        return self.battery.c < 1.0 and self.battery.k > 0.0

    @property
    def n_current_levels(self) -> int:
        """Number of distinct per-state currents of the workload."""
        return int(np.unique(self.workload.currents).size)

    def model(self) -> KiBaMRM:
        """Return the KiBaMRM (workload + battery) of this problem."""
        return KiBaMRM(workload=self.workload, battery=self.battery)

    def estimated_mrm_states(self, delta: float | None = None) -> int:
        """Estimate the expanded-CTMC size for the given (or default) step.

        Mirrors the grid arithmetic of :class:`repro.core.grid.RewardGrid`
        without building anything; used by the ``auto`` dispatcher.
        """
        step = float(delta) if delta is not None else self.effective_delta
        n1 = int(math.floor(self.battery.available_capacity / step + 1e-9)) + 1
        bound = self.battery.bound_capacity
        n2 = int(math.floor(bound / step + 1e-9)) + 1 if bound > 0.0 else 1
        return self.workload.n_states * n1 * n2

    # ------------------------------------------------------------------
    def with_battery(self, battery: KiBaMParameters) -> "LifetimeProblem":
        """Return a copy with a different battery parameter set."""
        return replace(self, battery=battery)

    def with_times(self, times: npt.ArrayLike) -> "LifetimeProblem":
        """Return a copy with a different evaluation grid."""
        return replace(self, times=np.asarray(times, dtype=float))

    def with_delta(self, delta: float | None) -> "LifetimeProblem":
        """Return a copy with a different discretisation step."""
        return replace(self, delta=delta)

    def with_label(self, label: str | None) -> "LifetimeProblem":
        """Return a copy with a different curve label."""
        return replace(self, label=label)

    # ------------------------------------------------------------------
    def workload_fingerprint(self) -> tuple[Any, ...]:
        """Hashable fingerprint of the workload (used as a batch cache key)."""
        w = self.workload
        return (
            w.state_names,
            w.generator.tobytes(),
            w.currents.tobytes(),
            w.initial_distribution.tobytes(),
        )

    def chain_key(self) -> tuple[Any, ...]:
        """Cache key identifying the expanded CTMC this problem discretises to."""
        return (
            self.workload_fingerprint(),
            float(self.battery.capacity),
            float(self.battery.c),
            float(self.battery.k),
            float(self.effective_delta),
        )
