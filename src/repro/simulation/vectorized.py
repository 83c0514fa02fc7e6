"""The Monte-Carlo engine: vectorised KiBaM lifetime simulation of a battery bank.

This is the library's one simulator.  A single battery is simulated as a
bank of one under ``static-split``, which routes it the whole current, so
the paper's single-battery reference curves and the multi-battery
cross-checks share one step loop.  It advances *all* replications
simultaneously with numpy array operations:

* one step covers the time to the next event of any kind (a workload
  transition, a policy phase switch, a policy re-evaluation epoch, a
  battery depletion or the horizon) for every still-running replication
  at once,
* every battery's wells follow the closed-form constant-current KiBaM
  solution, vectorised over the replications,
* a battery whose available charge would drop below zero is finished by a
  bracketed root search on the analytic expression (one scalar search per
  run and battery over the run's whole lifetime, so this never dominates).

For constant-current segments started from a physically reachable KiBaM
state the available charge has no interior minimum below the segment
endpoints (the height difference relaxes monotonically towards an asymptote
strictly below ``I/k``), so checking the end-of-segment value detects every
battery death exactly.  The per-trajectory simulator this engine is checked
against is a test oracle (``tests/oracles/trajectory.py``).
"""

from __future__ import annotations

import numpy as np

from repro.battery.kibam import KiBaMState, KineticBatteryModel
from repro.workload.base import WorkloadModel

__all__ = ["cumulative_jump_probabilities", "simulate_system_lifetimes_vectorized"]

#: A timer at or below this many seconds has run out: subtracting a step
#: from the timer that set it may leave round-off instead of zero.
EXPIRED = 1e-12


def cumulative_jump_probabilities(generator: np.ndarray) -> np.ndarray:
    """Return the cumulative jump-probability matrix of a CTMC's embedded chain.

    Row ``s`` is the cumulative distribution of the successor sampled when
    the CTMC leaves state ``s``: drawing ``u ~ U[0, 1)`` and taking
    ``searchsorted(row, u, side="right")`` (equivalently, counting the
    entries ``<= u``) yields the successor index, with zero-width bins --
    zero-probability successors -- skipped even when ``u`` lands exactly on
    their boundary.  An absorbing state (``rate <= 0``) self-loops: its row
    is 0 up to (but excluding) the state's own index and 1 from it on, so
    every ``u`` maps back to the state itself.  (An all-ones row would map
    every ``u`` to state 0 instead, silently restarting the workload.)
    The engine samples both the workload and a policy's phase clock this way.
    """
    n = generator.shape[0]
    cumulative = np.zeros((n, n))
    for state in range(n):
        rate = -generator[state, state]
        if rate <= 0.0:
            cumulative[state, state:] = 1.0
            continue
        row = generator[state].copy()
        row[state] = 0.0
        cumulative[state] = np.cumsum(row / rate)
        cumulative[state, -1] = 1.0
    return cumulative


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
        return y1 - currents * dt, y2
    # Cancellation-free form of the constant-current solution (see
    # KineticBatteryModel._available_at): the asymptote contribution is
    # evaluated as (I/c) t (1 - e^{-k' t})/(k' t), which stays finite and
    # accurate down to the k -> 0 limit.
    k_prime = k / (c * (1.0 - c))
    delta0 = y2 / (1.0 - c) - y1 / c
    x = k_prime * dt
    growth = -np.expm1(-x)
    factor = np.ones_like(x)
    np.divide(growth, x, out=factor, where=x > 0.0)
    delta = delta0 * (1.0 - growth) + (currents / c) * dt * factor
    total = y1 + y2 - currents * dt
    new_y1 = c * total - c * (1.0 - c) * delta
    new_y2 = total - new_y1
    return new_y1, new_y2


def _sample_successors(cumulative: np.ndarray, states: np.ndarray, rng) -> np.ndarray:
    """Sample CTMC successors with the right-continuous inverse-CDF rule.

    The count of cumulative values ``<= u`` is the sampled successor index:
    zero-width bins (e.g. zero-probability leading successors) are skipped
    even when ``u`` lands exactly on their boundary.
    """
    uniforms = rng.random(states.size)
    return (uniforms[:, None] >= cumulative[states]).sum(axis=1)


def _sample_timers(rates: np.ndarray, rng) -> np.ndarray:
    """Exponential holding times at *rates*; a zero rate never fires."""
    timers = np.full(rates.shape, np.inf)
    ticking = rates > 0.0
    timers[ticking] = rng.exponential(1.0, size=int(ticking.sum())) / rates[ticking]
    return timers


def _expired(timers: np.ndarray, smooth: np.ndarray | None) -> np.ndarray:
    """Indices of the runs whose timer ran out, among the *smooth* ones."""
    expired = timers <= EXPIRED
    if smooth is not None:
        expired &= smooth
    return np.flatnonzero(expired)


def _routing_shares(policy, y1, dead, phases) -> np.ndarray:
    """Each battery's share of the current, as an ``(N, runs)`` array."""
    weights = policy.routing_weights(np.column_stack(y1), ~dead)
    chosen = weights[0] if phases is None else weights[phases, np.arange(phases.size)]
    return np.ascontiguousarray(chosen.T)


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
    switch (round-robin's clock), a policy re-evaluation epoch (policies
    with a :meth:`control_interval`, such as ``best-of``, track the charge
    ordering on a fine cadence), a battery depletion, or the horizon.  In
    between, every battery's wells follow the closed-form constant-current
    KiBaM solution with the current the policy routes to it.  A single
    battery is the bank ``(battery,)`` under ``static-split``.

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

    Notes
    -----
    The random stream is consumed in a fixed order, which keeps the samples
    a pure function of the seed: the initial workload states, the workload
    timers, the phase timers (none for a single phase); then, per step, the
    successor uniforms and new timers of the runs whose workload timer ran
    out, in run order, followed by the same for the phase clock.
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
    # None: the weights depend only on the phase and on which batteries are
    # alive, so they are re-evaluated only when one of those changes.
    control_interval = policy.control_interval(batteries, float(currents_per_state.max(initial=0.0)))
    exit_rates = -np.diag(workload.generator)
    cumulative = cumulative_jump_probabilities(workload.generator)
    clocked = policy.n_phases(n_batteries) > 1

    # The state of the live runs only, in run order: finished runs are
    # dropped from every array in the step they finish.
    runs = np.arange(n_runs)
    states = rng.choice(workload.n_states, size=n_runs, p=workload.initial_distribution)
    workload_timer = _sample_timers(exit_rates[states], rng)
    phases = None
    if clocked:
        phase_generator = np.asarray(policy.phase_generator(n_batteries), dtype=float)
        phase_rates = -np.diag(phase_generator)
        phase_cumulative = cumulative_jump_probabilities(phase_generator)
        phases = np.zeros(n_runs, dtype=np.int64)
        phase_timer = _sample_timers(phase_rates[phases], rng)
    y1 = [np.full(n_runs, battery.available_capacity) for battery in batteries]
    y2 = [np.full(n_runs, battery.bound_capacity) for battery in batteries]
    dead = np.zeros((n_runs, n_batteries), dtype=bool)
    elapsed = np.zeros(n_runs)
    lifetimes = np.full(n_runs, np.inf)
    shares = None

    while runs.size > 0:
        if shares is None:
            shares = _routing_shares(policy, y1, dead, phases)
        currents = currents_per_state[states]
        remaining = horizon - elapsed
        dt = np.minimum(workload_timer, remaining)
        if clocked:
            dt = np.minimum(dt, phase_timer)
        if control_interval is not None:
            dt = np.minimum(dt, control_interval)

        routed = [share * currents for share in shares]
        frozen = dead.any()
        next_y1, next_y2, empty = [], [], []
        for b, battery in enumerate(batteries):
            a1, a2 = _step_wells(y1[b], y2[b], routed[b], dt, battery.c, battery.k)
            if frozen:
                # A depleted battery stays as it is (no recovery).
                a1 = np.where(dead[:, b], y1[b], a1)
                a2 = np.where(dead[:, b], y2[b], a2)
            empty.append(a1 <= 0.0)
            next_y1.append(np.maximum(a1, 0.0))
            next_y2.append(np.maximum(a2, 0.0))

        # A battery depletion interrupts its run's step: the run advances
        # only to the earliest crossing, and the next step re-routes the load.
        if n_batteries == 1:
            interrupted = empty[0]
            depleting = interrupted[:, None]
        else:
            depleting = np.column_stack(empty) & ~dead
            interrupted = depleting.any(axis=1)
        advance = dt
        smooth = failed = None
        if interrupted.any():
            smooth = ~interrupted
            dying = np.flatnonzero(interrupted)
            # One scalar root solve per dying (run, battery) pair; the earliest
            # crossing is fatal, the lowest battery index on a tie.
            pairs, cells = np.nonzero(depleting[dying])
            found = []
            for row, b in zip(dying[pairs].tolist(), cells.tolist()):
                state = KiBaMState(y1[b].item(row), y2[b].item(row))
                step = dt.item(row)
                time = models[b].time_to_empty(state, routed[b].item(row), step)
                found.append(step if time is None else time)
            times = np.full((dying.size, n_batteries), np.inf)
            times[pairs, cells] = found
            fatality = times.argmin(axis=1)
            advance = dt.copy()
            advance[dying] = times.min(axis=1)
            was_dead = dead[dying]
            dead[dying, fatality] = True
            fails = was_dead.sum(axis=1) >= k_failures - 1
            failed = dying[fails]
            if not fails.all():
                # A surviving run moves every battery that was alive to the
                # crossing, and its load is re-routed next step.
                rows, fatality, was_alive = dying[~fails], fatality[~fails], ~was_dead[~fails]
                for b, battery in enumerate(batteries):
                    moving = rows[was_alive[:, b]]
                    a1, a2 = _step_wells(
                        y1[b][moving], y2[b][moving], routed[b][moving], advance[moving], battery.c, battery.k
                    )
                    next_y1[b][moving] = np.maximum(a1, 0.0)
                    next_y2[b][moving] = np.maximum(a2, 0.0)
                    next_y1[b][rows[fatality == b]] = 0.0
                shares = None

        y1, y2 = next_y1, next_y2
        elapsed = elapsed + advance
        if failed is not None:
            lifetimes[runs[failed]] = elapsed[failed]

        # Fire the events whose timers ran out (an interrupted run fires its
        # events in a later step).
        workload_timer = workload_timer - advance
        jumping = _expired(workload_timer, smooth)
        if jumping.size > 0:
            states[jumping] = _sample_successors(cumulative, states[jumping], rng)
            workload_timer[jumping] = _sample_timers(exit_rates[states[jumping]], rng)
        if clocked:
            phase_timer = phase_timer - advance
            switching = _expired(phase_timer, smooth)
            if switching.size > 0:
                phases[switching] = _sample_successors(phase_cumulative, phases[switching], rng)
                phase_timer[switching] = _sample_timers(phase_rates[phases[switching]], rng)
                shares = None
        if control_interval is not None:
            shares = None

        finished = remaining <= dt
        if smooth is not None:
            finished &= smooth
            finished[failed] = True
        if finished.any():
            keep = ~finished
            runs, states, elapsed, workload_timer, dead = (
                runs[keep], states[keep], elapsed[keep], workload_timer[keep], dead[keep]
            )
            y1 = [column[keep] for column in y1]
            y2 = [column[keep] for column in y2]
            if clocked:
                phases, phase_timer = phases[keep], phase_timer[keep]
            if shares is not None:
                shares = shares[:, keep]

    return lifetimes
