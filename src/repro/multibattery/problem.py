"""The :class:`MultiBatteryProblem` container.

A multi-battery problem asks for the distribution of the **system
lifetime**: the first time the k-of-N depletion predicate fires on a bank
of KiBaM batteries fed by one stochastic workload under a scheduling
policy.  The class extends :class:`~repro.engine.problem.LifetimeProblem`,
so the whole engine stack applies unchanged:

* ``solve_lifetime(problem, "mrm-uniformization")`` discretises the
  product-space CTMC (:meth:`model` returns a
  :class:`~repro.multibattery.system.MultiBatterySystem`, whose
  ``discretize`` the workspace dispatches to) and runs the incremental
  uniformisation fast path with the failed-state projection;
* ``"monte-carlo"`` samples per-battery trajectories under the policy via
  the vectorised system simulator;
* ``"auto"`` dispatches on :meth:`estimated_mrm_states`, which accounts
  for the **product-space** size, so large banks fall back to simulation;
* :class:`~repro.engine.batch.ScenarioBatch` and
  :func:`~repro.engine.run_sweep` treat multi-battery scenarios as
  first-class citizens (the policy, bank and predicate are part of
  :meth:`chain_key`, hence of the sweep-cache fingerprints).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.battery.parameters import KiBaMParameters
from repro.engine.problem import LifetimeProblem
from repro.multibattery.policies import SchedulingPolicy, get_policy
from repro.multibattery.system import BACKENDS, MultiBatterySystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from repro.checking import FloatArray

__all__ = ["MultiBatteryProblem", "DEFAULT_MULTI_LEVELS"]

#: Default number of levels the *smallest* available-charge well is split
#: into when no explicit step is given.  Much coarser than the
#: single-battery default (100): the grid is raised to the N-th power in
#: the product space, so per-battery resolution is traded for bank size.
DEFAULT_MULTI_LEVELS = 16


@dataclass(frozen=True, eq=False)
class MultiBatteryProblem(LifetimeProblem):
    """One system-lifetime question over a bank of batteries.

    In addition to the single-battery knobs (inherited -- ``times``,
    ``delta``, ``epsilon``, ``n_runs``, ``seed``, ``horizon``, ``label``):

    Attributes
    ----------
    batteries:
        The bank, one :class:`KiBaMParameters` per battery (at least one).
        The inherited ``battery`` field is filled with the first entry and
        should not be passed explicitly.
    policy:
        Scheduling-policy registry key (``"static-split"``,
        ``"round-robin"``, ``"best-of"``) or a policy instance; resolved to
        an instance at construction.
    policy_params:
        Keyword arguments for the policy constructor when *policy* is a
        registry key (e.g. ``{"weights": (0.75, 0.25)}`` or
        ``{"switch_rate": 0.05}``).
    failures_to_die:
        The ``k`` of the k-of-N depletion predicate; ``None`` selects
        ``k = N`` (the system survives on its last battery).
    backend:
        Product-chain realisation handed to the MRM solver:
        ``"assembled"`` (one merged CSR matrix), ``"matrix-free"``
        (factor-wise operator application, for banks whose assembled
        generator would not fit), ``"lumped"`` (the exact
        permutation-symmetry quotient for identical-battery banks), or
        ``"auto"`` (the default; resolved from bank size and symmetry via
        :meth:`~repro.multibattery.system.MultiBatterySystem.resolve_backend`).
        All backends agree within the solver's ``epsilon``, so the backend
        is *excluded* from :meth:`chain_key` and hence from the sweep-cache
        fingerprints; cross-check runs between backends need distinct
        caches.
    """

    # The bank widens the inherited scalar fields to optional: the first
    # battery mirrors into ``battery`` for engine compatibility and the time
    # grid is defaulted in ``__post_init__``.
    battery: KiBaMParameters | None = None  # type: ignore[assignment]
    times: FloatArray | None = None  # type: ignore[assignment]
    batteries: tuple[KiBaMParameters, ...] = ()
    policy: str | SchedulingPolicy = "static-split"
    policy_params: dict[str, Any] = field(default_factory=dict, compare=False)
    failures_to_die: int | None = None
    backend: str = "auto"

    def __post_init__(self) -> None:
        batteries = tuple(self.batteries)
        if not batteries:
            raise ValueError("a multi-battery problem needs at least one battery")
        if self.times is None:
            raise ValueError("a multi-battery problem needs a time grid")
        object.__setattr__(self, "batteries", batteries)
        if self.battery is None:
            object.__setattr__(self, "battery", batteries[0])
        object.__setattr__(
            self, "policy", get_policy(self.policy, **dict(self.policy_params))
        )
        # The parameters are consumed by the resolution above; clearing them
        # keeps dataclasses.replace() copies (with_label, with_times, ...)
        # from re-applying them to the already-built policy instance.
        object.__setattr__(self, "policy_params", {})
        k = len(batteries) if self.failures_to_die is None else int(self.failures_to_die)
        if not 1 <= k <= len(batteries):
            raise ValueError(
                f"failures_to_die must lie in [1, {len(batteries)}], got {k}"
            )
        object.__setattr__(self, "failures_to_die", k)
        if self.backend not in BACKENDS + ("auto",):
            raise ValueError(
                f"unknown multi-battery backend {self.backend!r}; expected one "
                f"of {BACKENDS + ('auto',)}"
            )
        super().__post_init__()
        if self.delta is not None:
            smallest = min(battery.available_capacity for battery in batteries)
            if self.delta > smallest:
                raise ValueError(
                    "the step size must not exceed the smallest available "
                    f"capacity of the bank ({smallest:g} As)"
                )

    # ------------------------------------------------------------------
    @property
    def is_multibattery(self) -> bool:
        """Always ``True``: even a one-battery bank is a product-chain problem."""
        return True

    @property
    def n_batteries(self) -> int:
        """Number of batteries in the bank."""
        return len(self.batteries)

    @property
    def effective_delta(self) -> float:
        """The discretisation step: the explicit one, or the bank default."""
        if self.delta is not None:
            return self.delta
        smallest = min(battery.available_capacity for battery in self.batteries)
        return smallest / float(DEFAULT_MULTI_LEVELS)

    @property
    def has_transfer(self) -> bool:
        """Whether any battery of the bank has bound-to-available transfer."""
        return any(
            battery.c < 1.0 and battery.k > 0.0 for battery in self.batteries
        )

    def model(self) -> MultiBatterySystem:
        """Return the product-space system of this problem."""
        return MultiBatterySystem(
            workload=self.workload,
            batteries=self.batteries,
            policy=self.policy,
            failures_to_die=self.failures_to_die,
        )

    def estimated_mrm_states(self, delta: float | None = None) -> int:
        """Estimate the **product-space** CTMC size for the given step.

        The ``auto`` dispatcher consults this, so banks whose product space
        outgrows the Markovian-approximation budget fall back to the
        Monte-Carlo system simulator.
        """
        step = float(delta) if delta is not None else self.effective_delta
        return self.model().estimated_states(step)

    def resolved_backend(self, delta: float | None = None) -> str:
        """The concrete product-chain backend the MRM solver will use.

        Memoised per step: batch grouping, sweep cost estimation and the
        ``auto`` dispatch all consult the resolution for the same frozen
        problem, and rebuilding the model and its per-battery grids each
        time would be pure waste.
        """
        step = float(delta) if delta is not None else self.effective_delta
        cache = self.__dict__.get("_backend_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_backend_cache", cache)
        resolved = cache.get(step)
        if resolved is None:
            resolved = self.model().resolve_backend(step, self.backend)
            cache[step] = resolved
        return resolved

    def estimated_backend_states(self, delta: float | None = None) -> int:
        """State count of the chain the resolved backend actually iterates on.

        The ``auto`` solver dispatch budgets on this rather than on the raw
        product-space size: the lumped quotient of a large identical bank
        can be orders of magnitude smaller than the product space, keeping
        the Markovian approximation viable where PR 4 fell back to
        Monte-Carlo.
        """
        step = float(delta) if delta is not None else self.effective_delta
        if self.resolved_backend(step) == "lumped":
            return self.model().estimated_lumped_states(step)
        return self.estimated_mrm_states(step)

    # ------------------------------------------------------------------
    def chain_key(self) -> tuple[Any, ...]:
        """Cache key identifying the product chain this problem assembles.

        Covers the workload, every battery of the bank, the step size, the
        policy (name and parameters) and the depletion predicate -- the
        complete identity of the product generator.  The *backend* is
        deliberately excluded (all backends compute the same lifetime law
        within ``epsilon``); chain caches that must not mix backends --
        the workspace's builds and propagators -- key on the backend
        separately.
        """
        return (
            self.workload_fingerprint(),
            tuple(
                (float(b.capacity), float(b.c), float(b.k)) for b in self.batteries
            ),
            float(self.effective_delta),
            self.policy.key(),
            int(self.failures_to_die),
        )

    # ------------------------------------------------------------------
    def with_battery(self, battery: KiBaMParameters) -> "LifetimeProblem":
        raise TypeError(
            "a multi-battery problem has a bank of batteries; use with_batteries"
        )

    def with_batteries(
        self, batteries: Iterable[KiBaMParameters]
    ) -> "MultiBatteryProblem":
        """Return a copy with a different battery bank."""
        batteries = tuple(batteries)
        return replace(
            self, batteries=batteries, battery=batteries[0] if batteries else None
        )

    def with_policy(
        self, policy: str | SchedulingPolicy, **policy_params: Any
    ) -> "MultiBatteryProblem":
        """Return a copy scheduled by a different policy."""
        return replace(self, policy=policy, policy_params=policy_params)

    def with_backend(self, backend: str) -> "MultiBatteryProblem":
        """Return a copy solved through a different product-chain backend."""
        return replace(self, backend=backend)
