"""Vectorised Monte-Carlo engine for KiBaM lifetime simulation.

The straightforward per-trajectory simulation of
:mod:`repro.simulation.trajectory` spends most of its time in Python-level
per-sojourn bookkeeping, which is painful for workloads with many
transitions per lifetime (the 1 Hz on/off model goes through tens of
thousands of sojourns before the battery dies).  This module advances *all*
runs simultaneously with numpy array operations:

* one step samples the sojourn times and successor states of every
  still-running replication at once,
* the KiBaM wells are advanced with the closed-form constant-current
  solution, vectorised over the replications,
* runs whose available charge would drop below zero are finished by a
  bracketed root search on the analytic expression (one scalar search per
  run over its whole lifetime, so this never dominates).

For constant-current segments started from a physically reachable KiBaM
state the available charge has no interior minimum below the segment
endpoints (the height difference relaxes monotonically towards an asymptote
strictly below ``I/k``), so checking the end-of-segment value detects every
battery death exactly.
"""

from __future__ import annotations

import numpy as np

from repro.battery.kibam import KiBaMState, KineticBatteryModel
from repro.battery.parameters import KiBaMParameters
from repro.simulation.trajectory import cumulative_jump_probabilities
from repro.workload.base import WorkloadModel

__all__ = ["simulate_lifetimes_vectorized", "simulate_system_lifetimes_vectorized"]


def _step_wells(
    y1: np.ndarray,
    y2: np.ndarray,
    currents: np.ndarray,
    dt: np.ndarray,
    c: float,
    k: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the KiBaM wells by *dt* at constant *currents* (vectorised)."""
    if c >= 1.0 or k <= 0.0:
        return y1 - currents * dt, y2.copy()
    # Cancellation-free form of the constant-current solution (see
    # KineticBatteryModel._available_at): the asymptote contribution is
    # evaluated as (I/c) t (1 - e^{-k' t})/(k' t), which stays finite and
    # accurate down to the k -> 0 limit.
    k_prime = k / (c * (1.0 - c))
    delta0 = y2 / (1.0 - c) - y1 / c
    x = k_prime * dt
    growth = -np.expm1(-x)
    factor = np.ones_like(np.asarray(x, dtype=float))
    positive = x > 0.0
    factor = np.divide(growth, x, out=factor, where=positive)
    delta = delta0 * (1.0 - growth) + (currents / c) * dt * factor
    total = y1 + y2 - currents * dt
    new_y1 = c * total - c * (1.0 - c) * delta
    new_y2 = total - new_y1
    return new_y1, new_y2


def simulate_lifetimes_vectorized(
    workload: WorkloadModel,
    battery: KiBaMParameters,
    n_runs: int,
    rng: np.random.Generator,
    horizon: float,
) -> np.ndarray:
    """Return *n_runs* independent lifetime samples (``inf`` when censored).

    Parameters
    ----------
    workload:
        The CTMC workload model.
    battery:
        KiBaM parameters; the analytical KiBaM is integrated along every
        sampled trajectory.
    n_runs:
        Number of independent replications.
    rng:
        Random-number generator.
    horizon:
        Per-run time horizon (seconds); runs that survive it are censored.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if horizon <= 0:
        raise ValueError("the horizon must be positive")

    model = KineticBatteryModel(battery)
    c = battery.c
    k = battery.k

    exit_rates = -np.diag(workload.generator)
    currents_per_state = workload.currents
    cumulative = cumulative_jump_probabilities(workload)

    states = rng.choice(workload.n_states, size=n_runs, p=workload.initial_distribution)
    y1 = np.full(n_runs, battery.available_capacity)
    y2 = np.full(n_runs, battery.bound_capacity)
    elapsed = np.zeros(n_runs)
    lifetimes = np.full(n_runs, np.inf)
    active = np.arange(n_runs)

    while active.size > 0:
        current_states = states[active]
        rates = exit_rates[current_states]
        sojourns = np.empty(active.size)
        positive = rates > 0.0
        sojourns[positive] = rng.exponential(1.0, size=int(positive.sum())) / rates[positive]
        sojourns[~positive] = np.inf
        remaining = horizon - elapsed[active]
        truncated = sojourns >= remaining
        sojourns = np.minimum(sojourns, remaining)

        currents = currents_per_state[current_states]
        new_y1, new_y2 = _step_wells(y1[active], y2[active], currents, sojourns, c, k)

        died = new_y1 <= 0.0
        if np.any(died):
            died_runs = active[died]
            for position, run in zip(np.nonzero(died)[0], died_runs):
                state = KiBaMState(available=float(y1[run]), bound=float(y2[run]))
                crossing = model.time_to_empty(state, float(currents[position]), float(sojourns[position]))
                if crossing is None:
                    # Round-off straddling zero: the battery dies at the end
                    # of the segment.
                    crossing = float(sojourns[position])
                lifetimes[run] = elapsed[run] + crossing

        survivors = ~died
        surviving_runs = active[survivors]
        y1[surviving_runs] = np.maximum(new_y1[survivors], 0.0)
        y2[surviving_runs] = np.maximum(new_y2[survivors], 0.0)
        elapsed[surviving_runs] += sojourns[survivors]

        # Runs that reached the horizon without dying are censored.
        still_running = surviving_runs[~truncated[survivors]]
        if still_running.size > 0:
            states[still_running] = _sample_successors(
                cumulative, states[still_running], rng
            )
        active = still_running

    return lifetimes


def _sample_successors(cumulative: np.ndarray, states: np.ndarray, rng) -> np.ndarray:
    """Sample CTMC successors with the right-continuous inverse-CDF rule.

    The count of cumulative values ``<= u`` is the sampled successor index:
    zero-width bins (e.g. zero-probability leading successors) are skipped
    even when ``u`` lands exactly on their boundary.
    """
    uniforms = rng.random(states.size)
    return (uniforms[:, None] >= cumulative[states]).sum(axis=1)


def simulate_system_lifetimes_vectorized(
    workload: WorkloadModel,
    batteries,
    policy,
    n_runs: int,
    rng: np.random.Generator,
    horizon: float,
    *,
    failures_to_die: int | None = None,
) -> np.ndarray:
    """Sample system lifetimes of a battery bank under a scheduling policy.

    All replications advance together; each global step covers the time to
    the next event of any kind -- a workload transition, a policy phase
    switch (round-robin's clock), a policy re-evaluation epoch
    (state-dependent policies such as ``best-of`` track the charge ordering
    on a fine cadence), a battery depletion, or the horizon.  In between,
    every battery's wells follow the closed-form constant-current KiBaM
    solution with the current the policy routes to it.

    Depleted batteries are frozen (no recovery), matching the absorbing
    ``j1 = 0`` convention of the product-space chain; the system dies -- one
    lifetime sample -- when *failures_to_die* batteries have emptied
    (default: all of them).  Runs that survive *horizon* are censored
    (``inf``).

    Parameters
    ----------
    workload:
        The CTMC workload model shared by the bank.
    batteries:
        Sequence of :class:`KiBaMParameters`, one per battery.
    policy:
        A :class:`~repro.multibattery.policies.SchedulingPolicy` instance
        (or registry name).
    n_runs:
        Number of independent replications.
    rng:
        Random-number generator.
    horizon:
        Per-run time horizon (seconds).
    failures_to_die:
        The ``k`` of the k-of-N depletion predicate (default ``N``).

    The time between policy re-evaluations is bounded by the policy's own
    :meth:`control_interval` hint.
    """
    from repro.multibattery.policies import get_policy

    policy = get_policy(policy)
    batteries = tuple(batteries)
    n_batteries = len(batteries)
    if n_batteries < 1:
        raise ValueError("the bank needs at least one battery")
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if horizon <= 0:
        raise ValueError("the horizon must be positive")
    k_failures = n_batteries if failures_to_die is None else int(failures_to_die)
    if not 1 <= k_failures <= n_batteries:
        raise ValueError(f"failures_to_die must lie in [1, {n_batteries}]")

    models = [KineticBatteryModel(battery) for battery in batteries]
    currents_per_state = np.asarray(workload.currents, dtype=float)
    hint = policy.control_interval(batteries, float(currents_per_state.max(initial=0.0)))
    control_interval = np.inf if hint is None else float(hint)

    exit_rates = -np.diag(workload.generator)
    cumulative = cumulative_jump_probabilities(workload)

    n_phases = policy.n_phases(n_batteries)
    phase_generator = np.asarray(policy.phase_generator(n_batteries), dtype=float)
    phase_rates = -np.diag(phase_generator)
    phase_cumulative = np.zeros((n_phases, n_phases))
    for phase in range(n_phases):
        jumps = phase_generator[phase].copy()
        jumps[phase] = 0.0
        total = jumps.sum()
        if total > 0.0:
            phase_cumulative[phase] = np.cumsum(jumps / total)
        else:
            # Absorbing phase: self-loop (never sampled, since its clock
            # rate is zero and the timer below stays infinite).
            phase_cumulative[phase] = (np.arange(n_phases) >= phase).astype(float)

    def sample_timers(rates: np.ndarray) -> np.ndarray:
        timers = np.full(rates.shape, np.inf)
        ticking = rates > 0.0
        timers[ticking] = rng.exponential(1.0, size=int(ticking.sum())) / rates[ticking]
        return timers

    states = rng.choice(workload.n_states, size=n_runs, p=workload.initial_distribution)
    phases = np.zeros(n_runs, dtype=np.int64)
    y1 = np.tile([battery.available_capacity for battery in batteries], (n_runs, 1))
    y2 = np.tile([battery.bound_capacity for battery in batteries], (n_runs, 1))
    dead = np.zeros((n_runs, n_batteries), dtype=bool)
    elapsed = np.zeros(n_runs)
    lifetimes = np.full(n_runs, np.inf)
    workload_timer = sample_timers(exit_rates[states])
    phase_timer = sample_timers(phase_rates[phases])
    active = np.arange(n_runs)

    while active.size > 0:
        alive = ~dead[active]
        weights = policy.routing_weights(y1[active], alive)
        routed = (
            weights[phases[active], np.arange(active.size), :]
            * currents_per_state[states[active]][:, None]
        )

        remaining = horizon - elapsed[active]
        dt = np.minimum(
            np.minimum(workload_timer[active], phase_timer[active]),
            np.minimum(control_interval, remaining),
        )

        new_y1 = np.empty_like(y1[active])
        new_y2 = np.empty_like(new_y1)
        for b, battery in enumerate(batteries):
            new_y1[:, b], new_y2[:, b] = _step_wells(
                y1[active, b], y2[active, b], routed[:, b], dt, battery.c, battery.k
            )
        # Frozen batteries stay frozen (no recovery of a depleted cell).
        new_y1[~alive] = y1[active][~alive]
        new_y2[~alive] = y2[active][~alive]

        # Battery depletions interrupt the step: find the earliest crossing
        # of each affected run, advance that run only to the crossing, and
        # let the next iteration re-route the load.  Deaths are rare (at
        # most N per run over its whole lifetime), so this scalar path
        # never dominates.
        depleting = alive & (new_y1 <= 0.0)
        interrupted = depleting.any(axis=1)
        if np.any(interrupted):
            for position in np.nonzero(interrupted)[0]:
                run = active[position]
                crossing = np.inf
                fatality = -1
                for b in np.nonzero(depleting[position])[0]:
                    state_b = KiBaMState(available=float(y1[run, b]), bound=float(y2[run, b]))
                    time_b = models[b].time_to_empty(
                        state_b, float(routed[position, b]), float(dt[position])
                    )
                    if time_b is None:
                        time_b = float(dt[position])
                    if time_b < crossing:
                        crossing = time_b
                        fatality = b
                # Advance every battery of the run to the crossing instant.
                for b, battery in enumerate(batteries):
                    if dead[run, b]:
                        continue
                    step_y1, step_y2 = _step_wells(
                        y1[run, b], y2[run, b], routed[position, b], crossing,
                        battery.c, battery.k,
                    )
                    y1[run, b] = max(float(step_y1), 0.0)
                    y2[run, b] = max(float(step_y2), 0.0)
                y1[run, fatality] = 0.0
                dead[run, fatality] = True
                elapsed[run] += crossing
                workload_timer[run] -= crossing
                phase_timer[run] -= crossing
                if int(dead[run].sum()) >= k_failures:
                    lifetimes[run] = elapsed[run]

        smooth = ~interrupted
        smooth_runs = active[smooth]
        y1[smooth_runs] = np.maximum(new_y1[smooth], 0.0)
        y2[smooth_runs] = np.maximum(new_y2[smooth], 0.0)
        elapsed[smooth_runs] += dt[smooth]
        workload_timer[smooth_runs] -= dt[smooth]
        phase_timer[smooth_runs] -= dt[smooth]

        # Fire the events whose timers ran out (only for uninterrupted
        # runs; interrupted ones re-enter the loop and fire next round).
        jumping = smooth_runs[workload_timer[smooth_runs] <= 1e-12]
        if jumping.size > 0:
            states[jumping] = _sample_successors(cumulative, states[jumping], rng)
            workload_timer[jumping] = sample_timers(exit_rates[states[jumping]])
        switching = smooth_runs[phase_timer[smooth_runs] <= 1e-12]
        if switching.size > 0:
            phases[switching] = _sample_successors(
                phase_cumulative, phases[switching], rng
            )
            phase_timer[switching] = sample_timers(phase_rates[phases[switching]])

        failed = lifetimes[active] < np.inf
        censored = np.zeros(active.size, dtype=bool)
        censored[smooth] = remaining[smooth] <= dt[smooth]
        active = active[~(failed | censored)]

    return lifetimes
