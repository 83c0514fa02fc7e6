"""Explicit reward-discretisation scheme for homogeneous MRMs.

Section 5 of the paper discusses, as an alternative to the Markovian
approximation, the discretisation algorithm of Haverkort & Katoen [18]: time
and accumulated reward are discretised jointly and probability mass is
propagated over a (reward x state) grid.  The paper notes that the approach
requires (small) integer reward rates to be efficient.  This module
implements a straightforward operator-splitting variant of that scheme for
homogeneous MRMs with a single non-negative reward:

* one time step of length ``dt = delta / gcd_rate`` advances the CTMC part
  with the exact matrix exponential of the (small) workload generator,
* the reward part then shifts the probability mass of every state upward by
  ``r_i * dt / delta`` levels, which is an integer when the reward rates are
  commensurate with the chosen quantum.

Mass that reaches the top level (the reward bound, e.g. the battery
capacity) accumulates there, so the value at the top level is the
approximated ``Pr{Y(t) >= bound}`` -- for single-well batteries this is the
lifetime CDF.  The scheme is first-order in ``dt``; it is a test oracle,
an independent cross-check of the Markovian approximation.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from repro.markov.validate import validate_generator

__all__ = ["discretised_reward_distribution"]


def _integer_shifts(rewards: np.ndarray, delta: float, dt: float) -> np.ndarray:
    """Return per-state level shifts, checking that they are integral."""
    shifts = rewards * dt / delta
    rounded = np.rint(shifts)
    if np.any(np.abs(shifts - rounded) > 1e-6):
        raise ValueError(
            "the reward rates are not commensurate with the chosen quantum: "
            f"per-step level shifts {shifts} are not integers; adjust delta or dt"
        )
    return rounded.astype(int)


def discretised_reward_distribution(
    generator,
    initial_distribution,
    rewards,
    bound: float,
    times,
    *,
    delta: float,
    dt: float | None = None,
) -> np.ndarray:
    """Return ``Pr{Y(t) >= bound}`` with the explicit discretisation scheme.

    Parameters
    ----------
    generator:
        Generator of the (small) workload CTMC.
    initial_distribution:
        Initial probability vector.
    rewards:
        Non-negative reward rate per state (consumption current).
    bound:
        Reward bound of interest (battery capacity, in the reward unit).
    times:
        Time points at which to report the probability.
    delta:
        Reward quantum.
    dt:
        Time step; defaults to ``delta / max(rewards)`` so that the fastest
        state advances exactly one level per step.  Every state's shift
        ``r_i * dt / delta`` must be an integer.

    Returns
    -------
    numpy.ndarray
        ``Pr{Y(t) >= bound}`` for every requested time point.
    """
    generator = np.asarray(generator, dtype=float)
    validate_generator(generator)
    alpha = np.asarray(initial_distribution, dtype=float).ravel()
    rewards = np.asarray(rewards, dtype=float).ravel()
    if np.any(rewards < 0):
        raise ValueError("reward rates must be non-negative")
    if bound <= 0:
        raise ValueError("the reward bound must be positive")
    if delta <= 0:
        raise ValueError("the reward quantum delta must be positive")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be non-negative")

    max_rate = float(np.max(rewards))
    if max_rate <= 0:
        return np.zeros(times.size)
    if dt is None:
        dt = delta / max_rate
    shifts = _integer_shifts(rewards, delta, dt)

    n_levels = int(math.ceil(bound / delta)) + 1
    top = n_levels - 1
    n_states = generator.shape[0]
    transition = scipy.linalg.expm(generator * dt)

    # mass[level, state]; level `top` collects all mass at or above the bound.
    mass = np.zeros((n_levels, n_states))
    mass[0] = alpha

    order = np.argsort(times)
    results = np.zeros(times.size)
    n_steps_needed = int(math.ceil(float(times.max()) / dt + 1e-12))

    next_report = 0
    sorted_times = times[order]
    step = 0
    while True:
        elapsed = step * dt
        while next_report < sorted_times.size and sorted_times[next_report] <= elapsed + 1e-12:
            results[order[next_report]] = float(mass[top].sum())
            next_report += 1
        if step >= n_steps_needed or next_report >= sorted_times.size:
            break
        # CTMC part: exact transient step of length dt.
        mass = mass @ transition
        # Reward part: shift each state's column up by its per-step level count.
        shifted = np.zeros_like(mass)
        for state in range(n_states):
            shift = int(shifts[state])
            if shift == 0:
                shifted[:, state] += mass[:, state]
                continue
            shifted[shift:, state] += mass[:-shift, state] if shift < n_levels else 0.0
            # Mass pushed beyond the top level accumulates at the top.
            overflow = mass[max(n_levels - shift, 0) :, state].sum()
            shifted[top, state] += overflow
        mass = shifted
        step += 1

    # Report any remaining time points (beyond the last step boundary).
    while next_report < sorted_times.size:
        results[order[next_report]] = float(mass[top].sum())
        next_report += 1
    return np.clip(results, 0.0, 1.0)
