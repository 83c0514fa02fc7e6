"""Test oracle: the per-trajectory Monte-Carlo simulation of one KiBaM battery.

One workload trajectory is sampled at a time with the standard
competing-exponentials construction, and the analytical KiBaM is stepped
along its sojourns until the available-charge well runs empty.  This is
the textbook procedure behind the paper's simulation curves, written one
run at a time; the library's vectorised engine
(:func:`repro.simulation.vectorized.simulate_system_lifetimes_vectorized`)
is checked against it.  Both sample successors with
:func:`~repro.simulation.vectorized.cumulative_jump_probabilities`, so the
two can never diverge in their jump semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.battery.kibam import KineticBatteryModel
from repro.simulation.lifetime_sim import default_system_horizon
from repro.simulation.vectorized import cumulative_jump_probabilities
from repro.workload.base import WorkloadModel

__all__ = [
    "Trajectory",
    "sample_trajectory",
    "simulate_battery_on_trajectory",
    "simulate_lifetime_once",
]


@dataclass(frozen=True)
class Trajectory:
    """A sampled piecewise-constant workload trajectory.

    Attributes
    ----------
    states:
        Indices of the visited workload states, in visiting order.
    durations:
        Sojourn time (seconds) spent in each visited state.  The final
        sojourn is truncated at the sampling horizon.
    currents:
        Current (amperes) drawn during each sojourn.
    horizon:
        The time horizon the trajectory covers.
    """

    states: np.ndarray
    durations: np.ndarray
    currents: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        if self.states.shape != self.durations.shape or self.states.shape != self.currents.shape:
            raise ValueError("states, durations and currents must have identical shapes")

    @property
    def n_sojourns(self) -> int:
        """Number of sojourns (state visits) in the trajectory."""
        return int(self.states.size)

    @property
    def total_duration(self) -> float:
        """Sum of all sojourn durations (equals the horizon)."""
        return float(self.durations.sum())

    def state_occupancy(self, n_states: int) -> np.ndarray:
        """Return the total time spent in each of *n_states* states."""
        occupancy = np.zeros(n_states)
        np.add.at(occupancy, self.states, self.durations)
        return occupancy

    def consumed_charge(self) -> float:
        """Return the total charge (As) an ideal battery would deliver."""
        return float(np.dot(self.durations, self.currents))


def sample_trajectory(
    workload: WorkloadModel,
    horizon: float,
    rng: np.random.Generator,
    *,
    initial_state: int | None = None,
) -> Trajectory:
    """Sample one workload trajectory up to time *horizon*.

    Parameters
    ----------
    workload:
        The CTMC workload model to sample from.
    horizon:
        Length of the sampled time window (seconds).
    rng:
        Random-number generator.
    initial_state:
        Optional fixed initial state index; by default the workload's
        initial distribution is sampled.

    Returns
    -------
    Trajectory
    """
    if horizon <= 0:
        raise ValueError("the horizon must be positive")

    generator = workload.generator
    exit_rates = -np.diag(generator)
    n = workload.n_states

    # Pre-compute cumulative jump probabilities per state; sampling a
    # successor then only needs one uniform and a searchsorted, which is far
    # cheaper than numpy.random.Generator.choice in this per-sojourn loop.
    cumulative_rows = cumulative_jump_probabilities(workload.generator)

    if initial_state is None:
        state = int(rng.choice(n, p=workload.initial_distribution))
    else:
        if not 0 <= initial_state < n:
            raise ValueError(f"initial state {initial_state} out of range")
        state = int(initial_state)

    states: list[int] = []
    durations: list[float] = []
    elapsed = 0.0

    while elapsed < horizon:
        rate = exit_rates[state]
        if rate <= 0.0:
            # Absorbing workload state: stay there for the rest of the horizon.
            sojourn = horizon - elapsed
        else:
            sojourn = rng.exponential(1.0 / rate)
        if elapsed + sojourn >= horizon:
            sojourn = horizon - elapsed
            states.append(state)
            durations.append(sojourn)
            break
        states.append(state)
        durations.append(sojourn)
        elapsed += sojourn
        state = int(np.searchsorted(cumulative_rows[state], rng.random(), side="right"))
        state = min(state, n - 1)

    states_array = np.asarray(states, dtype=int)
    durations_array = np.asarray(durations, dtype=float)
    currents_array = workload.currents[states_array]
    return Trajectory(
        states=states_array,
        durations=durations_array,
        currents=currents_array,
        horizon=float(horizon),
    )


def simulate_battery_on_trajectory(battery: KineticBatteryModel, trajectory: Trajectory) -> float | None:
    """Return the battery lifetime along a given *trajectory*.

    The analytical KiBaM is stepped sojourn by sojourn.  Returns ``None``
    when the battery survives the whole trajectory.
    """
    state = battery.initial_state()
    elapsed = 0.0
    for duration, current in zip(trajectory.durations, trajectory.currents):
        crossing = battery.time_to_empty(state, float(current), float(duration))
        if crossing is not None:
            return elapsed + crossing
        state = battery.step(state, float(current), float(duration))
        elapsed += float(duration)
    return None


def simulate_lifetime_once(
    workload: WorkloadModel,
    battery: KineticBatteryModel,
    rng: np.random.Generator,
    *,
    horizon: float | None = None,
) -> float:
    """Sample one workload trajectory and return the resulting lifetime.

    The horizon defaults to the library's (three ideal lifetimes at the
    workload's mean current).  Returns ``numpy.inf`` when the battery
    survives the horizon (a censored observation).
    """
    if horizon is None:
        horizon = default_system_horizon(workload, (battery,))
    trajectory = sample_trajectory(workload, horizon, rng)
    lifetime = simulate_battery_on_trajectory(battery, trajectory)
    return float("inf") if lifetime is None else float(lifetime)
