"""Scheduler policies for multi-battery systems.

A *scheduling policy* decides how the workload's current is routed across
the batteries of a :class:`~repro.multibattery.system.MultiBatterySystem`.
Policies are exposed through a string-keyed registry, so sweeps and
experiment drivers can name them declaratively, and each policy provides
exactly the two ingredients the product-space construction needs:

* an optional **phase clock** -- a small auxiliary CTMC whose state is part
  of the product space (round-robin switching is a cyclic phase chain; the
  state-independent policies have a single phase), and
* **routing weights** ``w_b`` -- the fraction of the total current drawn
  from battery ``b``, as a function of the phase and the per-battery
  available-charge levels.  Weights are evaluated *vectorised* over a whole
  array of charge configurations, which serves both the sparse generator
  assembly (one entry per product-grid cell) and the Monte-Carlo simulator
  (one entry per replication).

Every policy routes only to batteries that still hold available charge:
when a battery depletes, its share is re-distributed over the survivors
(the device cannot draw current from an empty cell), so all policies
deliver the full workload current until the system itself fails.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    import numpy.typing as npt

    from repro.battery.parameters import KiBaMParameters
    from repro.checking import FloatArray

__all__ = [
    "BestOfPolicy",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "StaticSplitPolicy",
    "available_policies",
    "get_policy",
    "register_policy",
]

#: Default phase-clock rate (1/s) of the round-robin policy.
DEFAULT_SWITCH_RATE = 0.1


class SchedulingPolicy:
    """Base class of the scheduler policies.

    Subclasses must set a class-level ``name`` (the registry key) and
    implement :meth:`routing_weights`; policies with a phase clock override
    :meth:`n_phases` and :meth:`phase_generator` as well.
    """

    name: str = ""

    # ------------------------------------------------------------------
    def n_phases(self, n_batteries: int) -> int:
        """Number of phase-clock states added to the product space."""
        return 1

    def phase_generator(self, n_batteries: int) -> FloatArray:
        """Generator matrix of the phase clock (zeros for a single phase)."""
        n_phases = self.n_phases(n_batteries)
        return np.zeros((n_phases, n_phases))

    def routing_weights(
        self, levels: FloatArray, alive: npt.NDArray[np.bool_]
    ) -> FloatArray:
        """Return the per-battery routing weights for every configuration.

        Parameters
        ----------
        levels:
            Array of shape ``(M, N)``: the available charge of each of the
            ``N`` batteries in ``M`` charge configurations.  The generator
            assembly passes discrete grid levels, the simulator passes
            continuous charges; policies must only rely on the *ordering*
            of the values.
        alive:
            Boolean array of shape ``(M, N)``; ``False`` marks a depleted
            battery, which must receive weight zero.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(P, M, N)`` with ``P = n_phases``; every
            ``(phase, configuration)`` row sums to one whenever at least
            one battery is alive, and to zero otherwise.
        """
        raise NotImplementedError

    def control_interval(
        self, batteries: Iterable[KiBaMParameters], max_current: float
    ) -> float | None:
        """Upper bound on the simulator's policy re-evaluation interval.

        ``None`` means the policy only needs re-evaluation at workload,
        phase and depletion events (its weights are constant in between).
        State-dependent policies return a finite interval so the simulator
        tracks the charge ordering they route by.
        """
        return None

    def is_symmetric(self, n_batteries: int) -> bool:
        """Whether the routing weights are invariant under battery permutations.

        Permutation symmetry (``w(perm(levels)) == perm(w(levels))`` for
        every battery permutation) is what makes the exact symmetry
        quotient of :mod:`repro.multibattery.lumping` applicable to banks
        of identical batteries.  The conservative default is ``False``;
        policies that are genuinely exchangeable override this.
        """
        return False

    def key(self) -> tuple[Any, ...]:
        """Hashable fingerprint of the policy (name and parameters)."""
        return (self.name,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}{self.key()[1:]!r}"


def _renormalized(
    weights: FloatArray, alive: npt.NDArray[np.bool_]
) -> FloatArray:
    """Zero the weights of depleted batteries and renormalise the rows."""
    weights = np.where(alive, weights, 0.0)
    totals = weights.sum(axis=-1, keepdims=True)
    return np.divide(weights, totals, out=np.zeros_like(weights), where=totals > 0.0)


class StaticSplitPolicy(SchedulingPolicy):
    """Fixed proportional split of the load across the batteries.

    The weights default to an equal split; an explicit (possibly skewed)
    split is normalised once at construction.  Depleted batteries drop out
    and the remaining weights are renormalised, so the survivors keep
    carrying the full load.
    """

    name = "static-split"

    def __init__(self, weights: npt.ArrayLike | None = None) -> None:
        if weights is None:
            self._weights: FloatArray | None = None
        else:
            array = np.asarray(weights, dtype=float).ravel()
            if array.size == 0 or np.any(array < 0.0) or array.sum() <= 0.0:
                raise ValueError("static-split weights must be non-negative with a positive sum")
            self._weights = array / array.sum()

    def split_weights(self, n_batteries: int) -> FloatArray:
        """The normalised split over *n_batteries* batteries."""
        if self._weights is None:
            return np.full(n_batteries, 1.0 / n_batteries)
        if self._weights.size != n_batteries:
            raise ValueError(
                f"static-split was configured with {self._weights.size} weights "
                f"but the system has {n_batteries} batteries"
            )
        return self._weights

    def routing_weights(
        self, levels: FloatArray, alive: npt.NDArray[np.bool_]
    ) -> FloatArray:
        split = self.split_weights(alive.shape[-1])
        weights = np.broadcast_to(split, alive.shape)
        return _renormalized(weights, alive)[None, ...]

    def is_symmetric(self, n_batteries: int) -> bool:
        """An equal split treats the batteries exchangeably; a skew does not."""
        if self._weights is None:
            return True
        return bool(
            self._weights.size == n_batteries
            and np.all(self._weights == self._weights[0])
        )

    def key(self) -> tuple[Any, ...]:
        weights = (
            None
            if self._weights is None
            else tuple(float(w) for w in self._weights)
        )
        return (self.name, weights)


class RoundRobinPolicy(SchedulingPolicy):
    """Phase-clocked switching: the full load cycles over the batteries.

    A cyclic phase chain ``0 -> 1 -> ... -> N-1 -> 0`` with exponential
    holding times (rate *switch_rate*) is adjoined to the product space;
    phase ``p`` routes the entire current to battery ``p``.  When the
    targeted battery is depleted the load falls through to the next alive
    battery in cyclic order.
    """

    name = "round-robin"

    def __init__(self, switch_rate: float = DEFAULT_SWITCH_RATE) -> None:
        if switch_rate <= 0.0:
            raise ValueError("the round-robin switch rate must be positive")
        self.switch_rate = float(switch_rate)

    def n_phases(self, n_batteries: int) -> int:
        return int(n_batteries)

    def phase_generator(self, n_batteries: int) -> FloatArray:
        n = int(n_batteries)
        generator = np.zeros((n, n))
        if n > 1:
            for phase in range(n):
                generator[phase, (phase + 1) % n] = self.switch_rate
                generator[phase, phase] = -self.switch_rate
        return generator

    def routing_weights(
        self, levels: FloatArray, alive: npt.NDArray[np.bool_]
    ) -> FloatArray:
        n_batteries = alive.shape[-1]
        weights = np.zeros((n_batteries,) + alive.shape)
        for phase in range(n_batteries):
            order = (phase + np.arange(n_batteries)) % n_batteries
            # argmax over booleans finds the first alive battery in cyclic
            # order starting from the phase's target.
            cyclic_alive = alive[..., order]
            first = np.argmax(cyclic_alive, axis=-1)
            target = order[first]
            any_alive = cyclic_alive.any(axis=-1)
            rows = np.nonzero(any_alive)
            weights[(phase,) + rows + (target[rows],)] = 1.0
        return weights

    def key(self) -> tuple[Any, ...]:
        return (self.name, float(self.switch_rate))


class BestOfPolicy(SchedulingPolicy):
    """Greedy balancing: route the load to the fullest battery.

    All current goes to the alive battery with the highest available
    charge; configurations in which several batteries tie (within
    *tie_tolerance*) split the load equally among the leaders, which keeps
    the policy well defined on the discrete grid and chattering-free in the
    simulator once the charges have equalised.
    """

    name = "best-of"

    def __init__(self, tie_tolerance: float = 1e-9) -> None:
        if tie_tolerance < 0.0:
            raise ValueError("the tie tolerance must be non-negative")
        self.tie_tolerance = float(tie_tolerance)

    def routing_weights(
        self, levels: FloatArray, alive: npt.NDArray[np.bool_]
    ) -> FloatArray:
        levels = np.asarray(levels, dtype=float)
        masked = np.where(alive, levels, -np.inf)
        best = masked.max(axis=-1, keepdims=True)
        leaders = alive & (masked >= best - self.tie_tolerance)
        return _renormalized(leaders.astype(float), alive)[None, ...]

    def control_interval(
        self, batteries: Iterable[KiBaMParameters], max_current: float
    ) -> float | None:
        # Re-evaluate often enough that at most ~0.5% of the smallest
        # available well can drain between decisions: the simulated routing
        # then tracks the charge ordering as tightly as the product chain.
        smallest = min(battery.available_capacity for battery in batteries)
        if max_current <= 0.0:
            return None
        return smallest / (200.0 * max_current)

    def is_symmetric(self, n_batteries: int) -> bool:
        """Routing by charge ordering alone is invariant under permutations."""
        return True

    def key(self) -> tuple[Any, ...]:
        return (self.name, float(self.tie_tolerance))


# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[SchedulingPolicy]] = {}


def register_policy(policy_class: type[SchedulingPolicy], *, replace: bool = False) -> None:
    """Register a policy class under its ``name``.

    Re-registering an existing name requires ``replace=True`` so that typos
    cannot silently shadow a built-in policy.
    """
    name = policy_class.name
    if not name:
        raise ValueError("a scheduling policy needs a non-empty name")
    if not replace and name in _REGISTRY and _REGISTRY[name] is not policy_class:
        raise ValueError(f"a policy named {name!r} is already registered")
    _REGISTRY[name] = policy_class


def get_policy(policy: SchedulingPolicy | str, **params: Any) -> SchedulingPolicy:
    """Resolve *policy* to a :class:`SchedulingPolicy` instance.

    Instances pass through unchanged (then *params* must be empty); string
    keys are looked up in the registry and instantiated with *params*.
    """
    if isinstance(policy, SchedulingPolicy):
        if params:
            raise ValueError("parameters are only accepted with a policy name")
        return policy
    try:
        policy_class = _REGISTRY[policy]
    except KeyError:
        raise KeyError(
            f"unknown scheduling policy {policy!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None
    return policy_class(**params)


def available_policies() -> list[str]:
    """Return the names of all registered scheduling policies."""
    return sorted(_REGISTRY)


for _policy_class in (StaticSplitPolicy, RoundRobinPolicy, BestOfPolicy):
    register_policy(_policy_class)
