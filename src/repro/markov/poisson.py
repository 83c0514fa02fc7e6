"""Poisson probability weights for uniformisation.

Uniformisation expresses the transient solution of a CTMC as a Poisson
mixture of DTMC distributions,

.. math::

   \\pi(t) = \\sum_{n=0}^{\\infty} e^{-qt} \\frac{(qt)^n}{n!} \\; \\alpha P^n .

The series has to be truncated on the left and on the right such that the
neglected probability mass is below a prescribed error bound.
:func:`fox_glynn` computes such a window in the spirit of the classical
Fox--Glynn algorithm: weights are computed recursively outwards from the
mode of the Poisson distribution with a floating normalisation constant,
which avoids underflow of the individual terms for very large ``qt`` (the
discretised battery chains easily reach ``qt`` of several tens of
thousands).  The transient solvers read it through the memoised
:func:`cached_poisson_weights` and :func:`shared_poisson_windows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checking import FloatArray

__all__ = [
    "PoissonWeights",
    "cached_poisson_weights",
    "clear_poisson_caches",
    "fox_glynn",
    "poisson_cache_diagnostics",
    "shared_poisson_windows",
    "truncation_points",
]


@dataclass(frozen=True)
class PoissonWeights:
    """Truncated Poisson probabilities.

    Attributes
    ----------
    left:
        Index of the first retained term.
    right:
        Index of the last retained term (inclusive).
    weights:
        Array of length ``right - left + 1`` with the (normalised) Poisson
        probabilities ``Pr{N = left}, ..., Pr{N = right}``.
    rate:
        The Poisson rate ``qt`` the weights were computed for.
    """

    left: int
    right: int
    weights: FloatArray
    rate: float

    def __len__(self) -> int:
        return self.right - self.left + 1

    def weight(self, n: int) -> float:
        """Return the weight of term *n* (zero outside the truncation window)."""
        if n < self.left or n > self.right:
            return 0.0
        return float(self.weights[n - self.left])

    @property
    def total(self) -> float:
        """Total retained probability mass (close to one by construction)."""
        return float(np.sum(self.weights))


def truncation_points(rate: float, epsilon: float) -> tuple[int, int]:
    """Return conservative left/right truncation points for rate *rate*.

    The bounds follow the usual normal-approximation argument used by
    Fox--Glynn: the window is centred at the mode and extends a number of
    standard deviations that grows with ``log(1/epsilon)``.  The exact mass
    outside the window is then measured (and re-normalised away) by the
    caller, so the points only need to be safe, not tight.  The realised
    :func:`fox_glynn` window can only *shrink* from these points (tiny
    weights are trimmed), which makes the right point a cheap upper bound
    on the number of products a window can cost -- the incremental
    transient solver uses it to budget its steady-state detection
    threshold without building any weights.
    """
    if rate < 0:
        raise ValueError(f"Poisson rate must be non-negative, got {rate}")
    if rate == 0.0:
        return 0, 0
    mode = int(math.floor(rate))
    # Number of standard deviations that bounds the tail mass by epsilon/2
    # via a sub-Gaussian Chernoff-style bound; the +6 keeps small rates safe.
    k = math.sqrt(2.0 * max(math.log(4.0 / epsilon), 1.0)) + 6.0
    spread = int(math.ceil(k * math.sqrt(rate))) + 4
    left = max(0, mode - spread)
    right = mode + spread
    # For very small rates make sure the window is wide enough to capture
    # essentially all of the mass.
    right = max(right, int(math.ceil(rate)) + 25)
    return left, right


def fox_glynn(rate: float, epsilon: float = 1e-12) -> PoissonWeights:
    """Compute truncated Poisson weights with a Fox--Glynn style recursion.

    Parameters
    ----------
    rate:
        The Poisson rate ``qt >= 0``.
    epsilon:
        Bound on the total neglected probability mass.

    Returns
    -------
    PoissonWeights
        Normalised weights between the left and right truncation points.
    """
    if rate < 0:
        raise ValueError(f"Poisson rate must be non-negative, got {rate}")
    if rate == 0.0:
        return PoissonWeights(left=0, right=0, weights=np.array([1.0]), rate=0.0)

    left, right = truncation_points(rate, epsilon)
    size = right - left + 1
    weights = np.empty(size, dtype=float)
    mode = min(max(int(math.floor(rate)), left), right)
    mode_index = mode - left

    # Work with an arbitrary normalisation (weight at the mode = 1) and
    # normalise at the end; this never overflows and underflow far from the
    # mode simply produces harmless zeros.
    weights[mode_index] = 1.0
    for n in range(mode - 1, left - 1, -1):
        weights[n - left] = weights[n - left + 1] * (n + 1) / rate
    for n in range(mode + 1, right + 1):
        weights[n - left] = weights[n - left - 1] * rate / n

    total = float(np.sum(weights))
    weights /= total

    # Trim leading/trailing terms that fell below the per-term threshold to
    # keep the window (and hence the number of vector operations) small.
    threshold = epsilon / (2.0 * size)
    nonzero = np.nonzero(weights > threshold)[0]
    if nonzero.size > 0:
        first, last = int(nonzero[0]), int(nonzero[-1])
        weights = weights[first : last + 1]
        left += first
        right = left + weights.size - 1
        weights = weights / float(np.sum(weights))

    weights.setflags(write=False)
    return PoissonWeights(left=left, right=right, weights=weights, rate=float(rate))


@lru_cache(maxsize=512)
def cached_poisson_weights(rate: float, epsilon: float = 1e-12) -> PoissonWeights:
    """Memoised variant of :func:`fox_glynn`.

    Scenario sweeps evaluate the same chain on the same (or overlapping)
    time grids over and over; the Poisson window for a given ``(q t,
    epsilon)`` pair is identical every time, and for the large discretised
    battery chains (``q t`` of several ten thousands) its computation is a
    measurable fraction of a solve.  The returned weight arrays are marked
    read-only so shared windows cannot be corrupted.

    The cache size bounds the retained memory: windows grow like
    ``O(sqrt(q t))`` doubles, so 512 entries stay within a few tens of MB
    even for the million-state chains.  Use
    :func:`clear_poisson_caches` to release the memory eagerly and
    :func:`poisson_cache_diagnostics` for hit/miss diagnostics.
    """
    return fox_glynn(float(rate), float(epsilon))


def _zero_rate_window() -> PoissonWeights:
    weights = np.array([1.0])
    weights.setflags(write=False)
    return PoissonWeights(left=0, right=0, weights=weights, rate=0.0)


@lru_cache(maxsize=32)
def shared_poisson_windows(
    rates: tuple[float, ...], epsilon: float = 1e-12
) -> tuple[PoissonWeights, ...]:
    """Poisson windows for a whole time grid from ONE shared table.

    The single-pass transient sweep needs one truncated Poisson window per
    requested time point, all at the same *epsilon*.  Computing each with
    :func:`fox_glynn` rematerialises the weight recursion per window --
    ``O(sum_j sqrt(r_j))`` sequential Python steps.  But at equal epsilon
    the windows are *nested*: every window is a slice of the widest one,
    reweighted by the rate ratio.  In log space

    .. math::

        \\log w_n(r_j) = \\log w_n(r_T) + n \\log(r_j / r_T) + (r_T - r_j),

    and the constant drops out under the per-window normalisation.  So one
    vectorised table ``n log r_T - log n!`` over the widest window (a
    single ``gammaln`` call) feeds every window: slice its truncation
    range, tilt by ``n (log r_j - log r_T)``, exponentiate around the
    maximum and normalise.  Trimming then follows the same per-term
    threshold rule as :func:`fox_glynn`, so window sizes (and hence
    product counts) match the per-window construction.

    The result is memoised on the full ``(rates, epsilon)`` tuple: scenario
    sweeps evaluate the same deduplicated time grid against the same chain
    over and over, and then the whole table costs one dictionary lookup.
    Weight arrays are read-only, like those of
    :func:`cached_poisson_weights`.

    Weights agree with :func:`fox_glynn` to the accuracy of the ``gammaln``
    tilt -- ~1e-12 relative for the moderate rates of the battery chains
    -- not bit-exactly; the neglected-mass guarantee (total mass outside
    the window below *epsilon*) is inherited from the shared truncation
    points.
    """
    from scipy.special import gammaln

    eps = float(epsilon)
    cleaned = tuple(float(rate) for rate in rates)
    if any(rate < 0.0 for rate in cleaned):
        raise ValueError(f"Poisson rates must be non-negative, got {cleaned}")
    max_rate = max(cleaned, default=0.0)
    if max_rate == 0.0:
        return tuple(_zero_rate_window() for _ in cleaned)

    _, widest_right = truncation_points(max_rate, eps)
    ns = np.arange(widest_right + 1, dtype=float)
    log_max_rate = math.log(max_rate)
    # Base table for the widest window; every other window is a tilted
    # slice of it (the -r and the shared normalisation are dropped).
    base = ns * log_max_rate - gammaln(ns + 1.0)

    windows: list[PoissonWeights] = []
    for rate in cleaned:
        if rate == 0.0:
            windows.append(_zero_rate_window())
            continue
        left, right = truncation_points(rate, eps)
        # The truncation points are monotone in the rate, so every window
        # nests inside the widest one; the guard is belt-and-braces.
        right = min(right, widest_right)
        tilt = math.log(rate) - log_max_rate
        log_weights = base[left : right + 1] + ns[left : right + 1] * tilt
        log_weights = log_weights - log_weights.max()
        weights = np.exp(log_weights)
        weights /= float(np.sum(weights))
        # Same trim rule as fox_glynn: drop leading/trailing terms below
        # the per-term threshold, then renormalise.
        threshold = eps / (2.0 * (right - left + 1))
        nonzero = np.nonzero(weights > threshold)[0]
        if nonzero.size > 0:
            first, last = int(nonzero[0]), int(nonzero[-1])
            weights = weights[first : last + 1]
            left += first
            right = left + weights.size - 1
            weights = weights / float(np.sum(weights))
        weights.setflags(write=False)
        windows.append(
            PoissonWeights(left=left, right=right, weights=weights, rate=rate)
        )
    return tuple(windows)


def poisson_cache_diagnostics() -> dict[str, int]:
    """Hit/miss/size counters of the Poisson weight caches.

    One flat dict combining the per-window memo
    (:func:`cached_poisson_weights`, used by the incremental segment
    chain) and the shared-table memo (:func:`shared_poisson_windows`,
    used by the single-pass sweep).  Merged into the transient
    diagnostics of the engine's solver results.
    """
    window = cached_poisson_weights.cache_info()
    shared = shared_poisson_windows.cache_info()
    return {
        "poisson_window_cache_hits": int(window.hits),
        "poisson_window_cache_misses": int(window.misses),
        "poisson_window_cache_size": int(window.currsize),
        "poisson_window_cache_maxsize": int(window.maxsize),
        "poisson_shared_cache_hits": int(shared.hits),
        "poisson_shared_cache_misses": int(shared.misses),
        "poisson_shared_cache_size": int(shared.currsize),
        "poisson_shared_cache_maxsize": int(shared.maxsize),
    }


def clear_poisson_caches() -> None:
    """Release every memoised Poisson window (and reset the counters)."""
    cached_poisson_weights.cache_clear()
    shared_poisson_windows.cache_clear()
