"""Driving a battery model with a sampled workload trajectory.

This is the simulation side of the paper's evaluation: a workload
trajectory (piecewise-constant current) is fed into the analytical KiBaM
(or any other :class:`~repro.battery.base.Battery`), and the first time the
available-charge well runs empty is one sample of the battery lifetime.
"""

from __future__ import annotations

import numpy as np

from repro.battery.base import Battery
from repro.battery.kibam import KineticBatteryModel
from repro.battery.profiles import PiecewiseConstantLoad
from repro.simulation.trajectory import Trajectory, sample_trajectory
from repro.workload.base import WorkloadModel

__all__ = [
    "default_horizon",
    "ideal_lifetime_horizon",
    "simulate_battery_on_trajectory",
    "simulate_lifetime_once",
]

#: Multiple of the ideal lifetime that the default simulation horizons span.
HORIZON_SAFETY_FACTOR = 3.0


def simulate_battery_on_trajectory(battery: Battery, trajectory: Trajectory) -> float | None:
    """Return the battery lifetime along a given *trajectory*.

    The trajectory's sojourns define a piecewise-constant load profile; the
    battery model is integrated segment by segment.  Returns ``None`` when
    the battery survives the whole trajectory.
    """
    if trajectory.n_sojourns == 0:
        return None
    if isinstance(battery, KineticBatteryModel):
        # Fast path: step the analytical KiBaM directly, avoiding the
        # construction of a profile object per run.
        state = battery.initial_state()
        elapsed = 0.0
        for duration, current in zip(trajectory.durations, trajectory.currents):
            crossing = battery.time_to_empty(state, float(current), float(duration))
            if crossing is not None:
                return elapsed + crossing
            state = battery.step(state, float(current), float(duration))
            elapsed += float(duration)
        return None
    profile = PiecewiseConstantLoad(trajectory.durations, trajectory.currents)
    return battery.lifetime(profile, horizon=trajectory.total_duration)


def ideal_lifetime_horizon(mean_current: float, capacity: float) -> float:
    """The shared horizon heuristic: :data:`HORIZON_SAFETY_FACTOR` times the ideal lifetime.

    The ideal lifetime is *capacity* delivered at *mean_current*; a
    non-positive mean current falls back to a large constant.  Single- and
    multi-battery default horizons both delegate here so the heuristic has
    exactly one set of constants.
    """
    if mean_current <= 0:
        return 1_000_000.0
    return HORIZON_SAFETY_FACTOR * capacity / mean_current


def default_horizon(workload: WorkloadModel, battery: Battery) -> float:
    """Return a simulation horizon that almost surely exceeds the lifetime.

    The horizon is the ideal lifetime of the full capacity at the workload's
    long-run mean current, multiplied by :data:`HORIZON_SAFETY_FACTOR`.
    """
    return ideal_lifetime_horizon(workload.mean_current(), battery.capacity)


def simulate_lifetime_once(
    workload: WorkloadModel,
    battery: Battery,
    rng: np.random.Generator,
    *,
    horizon: float | None = None,
) -> float:
    """Sample one workload trajectory and return the resulting lifetime.

    Returns ``numpy.inf`` when the battery survives the horizon (a censored
    observation).
    """
    if horizon is None:
        horizon = default_horizon(workload, battery)
    trajectory = sample_trajectory(workload, horizon, rng)
    lifetime = simulate_battery_on_trajectory(battery, trajectory)
    return float("inf") if lifetime is None else float(lifetime)
