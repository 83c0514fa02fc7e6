"""Exact accumulated-reward distributions for two-level reward structures.

For a homogeneous MRM whose reward rates take only two distinct values
``r_lo < r_hi`` the accumulated reward is an affine function of the
*occupation time* ``O(t)`` of the high-reward states,

.. math::

   Y(t) = r_{lo}\\, t + (r_{hi} - r_{lo})\\, O(t),

and the distribution of ``O(t)`` can be computed **exactly** with the
uniformisation-based algorithm of De Souza e Silva & Gail / Sericola (the
algorithm referenced as [25] in the paper).  The key identity is: given
``N(t) = n`` Poisson events of the uniformised chain and a path that visits
``m`` high-reward states among its ``n + 1`` sojourns,

.. math::

   \\Pr\\{O(t) > x\\,t \\mid N(t) = n,\\; M_n = m\\}
       \\;=\\; \\sum_{k=0}^{m-1} \\binom{n}{k} x^k (1-x)^{n-k}
       \\;=\\; \\Pr\\{\\mathrm{Bin}(n, x) \\le m - 1\\},

because, conditionally, the sojourn lengths are the spacings of ``n``
uniform points on ``[0, t]`` and only the *number* of high-reward sojourns
matters.  Averaging over the path distribution therefore only requires the
distribution of the count ``M_n``, which satisfies a simple forward
recursion over the uniformised DTMC.

This algorithm provides the exact reference curves for the single-well
(``c = 1``) on/off experiments and an independent correctness oracle for
the Markovian approximation of :mod:`repro.core`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.stats import binom

from repro.markov.generator import uniformized_matrix
from repro.markov.poisson import cached_poisson_weights
from repro.markov.uniformization import uniformization_rate
from repro.markov.validate import validate_generator

__all__ = [
    "occupation_time_exceeds",
    "occupation_time_distribution",
    "two_level_reward_distribution",
    "two_level_lifetime_cdf",
]

#: Probability mass below which count bins are pruned from the recursion.
_PRUNE_THRESHOLD = 1e-16


def occupation_time_exceeds(
    generator,
    initial_distribution,
    high_states,
    queries: Sequence[tuple[float, float]],
    *,
    epsilon: float = 1e-10,
    validate: bool = True,
) -> np.ndarray:
    """Return ``Pr{O(t) > x * t}`` for every query ``(t, x)``.

    Parameters
    ----------
    generator:
        Generator matrix of the (small) CTMC.
    initial_distribution:
        Initial probability vector.
    high_states:
        Indices of the states whose occupation time ``O(t)`` is measured.
    queries:
        Sequence of ``(time, fraction)`` pairs; the fraction ``x`` is
        clamped to ``[0, 1]`` (``x <= 0`` gives ``Pr{O > 0}``, ``x >= 1``
        gives 0).
    epsilon:
        Truncation error bound for the Poisson series (per query).
    validate:
        Whether to validate the generator and initial distribution.

    Returns
    -------
    numpy.ndarray
        One probability per query, in the order given.
    """
    generator = np.asarray(generator, dtype=float)
    alpha = np.asarray(initial_distribution, dtype=float).ravel()
    n_states = generator.shape[0]
    if validate:
        validate_generator(generator)
        if not np.isclose(alpha.sum(), 1.0, atol=1e-9) or np.any(alpha < -1e-12):
            raise ValueError("the initial distribution must be a probability vector")
    high = np.zeros(n_states, dtype=bool)
    high[np.asarray(list(high_states), dtype=int)] = True

    queries = [(float(t), float(x)) for t, x in queries]
    if any(t < 0 for t, _ in queries):
        raise ValueError("query times must be non-negative")
    results = np.zeros(len(queries))

    # Trivial queries (x >= 1 stays 0; t == 0 handled analytically).
    active_queries: list[tuple[int, float, float]] = []
    initial_high_probability = float(alpha[high].sum())
    for index, (time, fraction) in enumerate(queries):
        if fraction >= 1.0:
            results[index] = 0.0
        elif time == 0.0:
            results[index] = 0.0 if fraction >= 0.0 else 1.0
        else:
            active_queries.append((index, time, max(fraction, 0.0)))
    if not active_queries:
        return results

    rate = uniformization_rate(generator)
    probability_matrix = np.asarray(uniformized_matrix(generator, rate), dtype=float)

    windows = {
        index: cached_poisson_weights(rate * time, epsilon)
        for index, time, _ in active_queries
    }
    max_right = max(window.right for window in windows.values())

    low_columns = ~high

    # d[m, i] = Pr{M_n = m, Z_n = i}; the count support [m_lo, m_hi] is
    # tracked explicitly and grows by at most one per step.
    counts = np.zeros((max_right + 2, n_states))
    counts[0, low_columns] = alpha[low_columns]
    counts[1, high] = alpha[high]
    m_lo, m_hi = (0, 1) if initial_high_probability > 0 else (0, 0)
    if float(alpha[low_columns].sum()) <= 0.0:
        m_lo = 1

    for n in range(0, max_right + 1):
        support = slice(m_lo, m_hi + 1)
        mass_per_count = counts[support].sum(axis=1)
        m_values = np.arange(m_lo, m_hi + 1)

        for index, time, fraction in active_queries:
            window = windows[index]
            if window.left <= n <= window.right:
                # Pr{O > x t | N = n} = E[ BinCDF(M_n - 1; n, x) ].
                conditional = binom.cdf(m_values - 1, n, fraction)
                results[index] += window.weights[n - window.left] * float(
                    mass_per_count @ conditional
                )

        if n == max_right:
            break

        # Advance the count/state distribution by one uniformised step.
        propagated = counts[m_lo : m_hi + 1] @ probability_matrix
        counts[m_lo : m_hi + 1, :] = 0.0
        counts[m_lo : m_hi + 1, low_columns] = propagated[:, low_columns]
        counts[m_lo + 1 : m_hi + 2, high] = propagated[:, high]
        m_hi = min(m_hi + 1, counts.shape[0] - 1)
        # Prune negligible mass at the edges to keep the support small; the
        # pruned rows are cleared so they cannot leak stale values back in.
        while m_hi > m_lo and counts[m_hi].sum() < _PRUNE_THRESHOLD:
            counts[m_hi] = 0.0
            m_hi -= 1
        while m_lo < m_hi and counts[m_lo].sum() < _PRUNE_THRESHOLD:
            counts[m_lo] = 0.0
            m_lo += 1

    return np.clip(results, 0.0, 1.0)


def occupation_time_distribution(
    generator,
    initial_distribution,
    high_states,
    time: float,
    fractions,
    *,
    epsilon: float = 1e-10,
) -> np.ndarray:
    """Return ``Pr{O(t) > x * t}`` for a single time and several fractions *x*."""
    fractions = np.atleast_1d(np.asarray(fractions, dtype=float))
    queries = [(time, float(x)) for x in fractions]
    return occupation_time_exceeds(generator, initial_distribution, high_states, queries, epsilon=epsilon)


def _split_rewards(rewards: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Return ``(r_lo, r_hi, high_mask)`` for a two-level reward vector."""
    distinct = np.unique(rewards)
    if distinct.size > 2:
        raise ValueError(
            "the exact occupation-time algorithm requires at most two distinct reward "
            f"rates, got {distinct.size}"
        )
    if distinct.size == 1:
        return float(distinct[0]), float(distinct[0]), np.zeros(rewards.size, dtype=bool)
    r_lo, r_hi = float(distinct[0]), float(distinct[1])
    return r_lo, r_hi, rewards == r_hi


def two_level_reward_distribution(
    generator,
    initial_distribution,
    rewards,
    time: float,
    thresholds,
    *,
    epsilon: float = 1e-10,
) -> np.ndarray:
    """Return ``Pr{Y(t) > y}`` for every threshold *y*, exactly.

    The reward vector must take at most two distinct values.
    """
    rewards = np.asarray(rewards, dtype=float).ravel()
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    r_lo, r_hi, high = _split_rewards(rewards)
    if r_hi == r_lo:
        # Deterministic accumulation.
        return (r_lo * time > thresholds).astype(float)
    fractions = (thresholds - r_lo * time) / ((r_hi - r_lo) * time)
    return occupation_time_distribution(
        generator, initial_distribution, np.nonzero(high)[0], time, fractions, epsilon=epsilon
    )


def two_level_lifetime_cdf(
    generator,
    initial_distribution,
    rewards,
    capacity: float,
    times,
    *,
    epsilon: float = 1e-10,
) -> np.ndarray:
    """Return the exact lifetime CDF of a single-well battery (``c = 1``).

    The battery is empty at time ``t`` once the accumulated consumption
    ``Y(t)`` reaches the capacity ``C``; because ``Y`` is non-decreasing
    this equals the first-passage (lifetime) CDF.  Only two-level reward
    structures (for example the on/off model) are supported.
    """
    rewards = np.asarray(rewards, dtype=float).ravel()
    if np.any(rewards < 0):
        raise ValueError("reward rates must be non-negative for a battery model")
    if capacity <= 0:
        raise ValueError("the capacity must be positive")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    r_lo, r_hi, high = _split_rewards(rewards)
    if r_hi == r_lo:
        return (r_lo * times >= capacity).astype(float)
    queries = []
    for time in times:
        if time <= 0.0:
            queries.append((0.0, 1.0))
            continue
        fraction = (capacity - r_lo * time) / ((r_hi - r_lo) * time)
        queries.append((float(time), float(fraction)))
    return occupation_time_exceeds(
        generator, initial_distribution, np.nonzero(high)[0], queries, epsilon=epsilon
    )
