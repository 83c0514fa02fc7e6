"""Transient solution of CTMCs via uniformisation.

Uniformisation (also called Jensen's method or randomisation) converts the
matrix exponential :math:`\\alpha e^{Qt}` into a Poisson mixture of powers of
the uniformised DTMC matrix ``P = I + Q/q``:

.. math::

   \\pi(t) \\;=\\; \\sum_{n=0}^{\\infty}
        e^{-qt} \\frac{(qt)^n}{n!} \\; \\alpha P^n .

The implementation supports **many output time points** and two evaluation
strategies, selected with the ``mode`` argument of
:meth:`TransientPropagator.transient_batch`:

* ``"incremental"`` (the default) sorts and deduplicates the time grid and
  propagates ``pi(t_j)`` from ``pi(t_{j-1})`` with Poisson rate
  ``q (t_j - t_{j-1})``, so the work per segment scales with the *gap*
  between neighbouring time points instead of restarting from ``t = 0``
  for the largest time.  On top of that, the iteration monitors the
  per-step change ``||v P - v||_1``: once the distribution stops changing
  (for the battery chains this happens shortly after depletion, because
  the empty states are absorbing) the remaining Poisson tail -- and every
  remaining segment -- collapses to a closed-form completion.  Because
  ``P`` is row-stochastic the 1-norm change is non-increasing, so the
  default detection threshold (half the truncation bound divided by the
  number of remaining products, the other half being spent on the window
  truncations) keeps the total per-point error below ``epsilon``.  Long horizons after
  depletion become nearly free; the savings are reported in the result's
  ``iterations_saved`` / ``steady_state_time`` diagnostics.
* ``"single-pass"`` is the classical multi-time-point sweep: the vector
  sequence ``v_n = alpha P^n`` is generated once, up to the largest right
  truncation point, and every requested time point accumulates the terms
  that fall inside its own Poisson window.  It is kept as the reference
  the incremental path is checked and benchmarked against.

Both paths share the same vectorised weight accumulation: the per-iteration
work touches only the windows that are active at term ``n`` (one fancy-index
lookup into the concatenated weight table), and projection products are
skipped entirely before the first active window.

:class:`TransientPropagator` is the one entry point.  It validates the
generator, converts it to CSR and uniformises it **once**, so repeated
solves on the same chain (time grid refinements, parameter sweeps) skip all
of that per call, and :meth:`~TransientPropagator.transient_batch`
propagates a whole *stack* of initial distributions in one pass -- the
dominating sparse matrix products then operate on a ``(K, n)`` block
instead of ``K`` separate vectors.  A single distribution is a stack of
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.checking.protocols import FloatArray
from repro.markov import kernels
from repro.markov.generator import as_csr
from repro.markov.kronecker import KroneckerGenerator, UniformizedOperator
from repro.markov.poisson import (
    PoissonWeights,
    cached_poisson_weights,
    shared_poisson_windows,
    truncation_points,
)
from repro.markov.validate import check_generator, validate_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.checking.protocols import GeneratorLike

__all__ = [
    "BatchTransientResult",
    "TransientPropagator",
    "uniformization_rate",
]

#: Safety factor applied on top of the maximal exit rate when choosing the
#: uniformisation rate.  A slightly larger rate guarantees that the
#: uniformised matrix has strictly positive diagonal entries, which makes the
#: iteration aperiodic and numerically benign.
RATE_SAFETY_FACTOR = 1.02

#: The supported evaluation strategies of the transient solvers.
TRANSIENT_MODES = ("incremental", "single-pass")


@dataclass
class BatchTransientResult:
    """Result of a batched (multi-initial-vector) uniformisation run.

    Attributes
    ----------
    times:
        The requested time points.
    values:
        Shape ``(K, len(times), n_states)`` without a projection; with a
        projection vector of shape ``(n_states,)`` the state dimension is
        contracted away and the shape is ``(K, len(times))``; a projection
        matrix ``(n_states, m)`` yields ``(K, len(times), m)``.
    rate:
        The uniformisation rate that was used.
    iterations:
        Number of block--matrix products that were performed.
    truncation_error:
        Upper bound on the neglected Poisson mass, per time point.  For the
        incremental mode this bound is cumulative over the segment chain up
        to each time point.
    mode:
        Evaluation strategy (``"incremental"`` or ``"single-pass"``).
    n_segments:
        Number of distinct propagation segments (deduplicated time points).
    iterations_saved:
        Block--matrix products avoided by steady-state detection (a
        conservative estimate for segments skipped entirely).
    steady_state_time:
        Time point during whose segment convergence was detected, or
        ``None``.
    steady_state_iteration:
        Global product count at which convergence was detected, or ``None``.
    """

    times: FloatArray
    values: FloatArray
    rate: float
    iterations: int
    truncation_error: FloatArray
    mode: str = "incremental"
    n_segments: int = 0
    iterations_saved: int = 0
    steady_state_time: float | None = None
    steady_state_iteration: int | None = None


def uniformization_rate(
    generator: GeneratorLike, *, safety: float = RATE_SAFETY_FACTOR
) -> float:
    """Return a uniformisation rate for *generator*.

    The rate is the maximal exit rate multiplied by a small safety factor.
    A strictly positive lower bound is enforced so that generators of
    completely absorbing chains (all rates zero) still produce a valid,
    trivial uniformised matrix.
    """
    from repro.markov.generator import exit_rates

    max_exit = float(np.max(exit_rates(generator), initial=0.0))
    if max_exit <= 0.0:
        return 1.0
    return max_exit * safety


class TransientPropagator:
    """Reusable transient solver for one CTMC generator.

    The constructor performs all the per-chain work exactly once -- CSR
    conversion (the pipeline is sparse end-to-end; dense workload chains are
    converted at this boundary), validation, exit-rate extraction and
    uniformisation -- so that every subsequent :meth:`transient_batch`
    call only pays for the Poisson windows (which are memoised globally)
    and the vector--matrix products.

    Parameters
    ----------
    generator:
        CTMC generator matrix (dense ndarray or any scipy sparse format).
    rate:
        Optional uniformisation rate; must dominate every exit rate.  When
        omitted, the maximal exit rate times a small safety factor is used.
    validate:
        When ``True`` (default) the generator is validated once here, and
        initial distributions are checked in every solve call.
    """

    def __init__(
        self,
        generator: GeneratorLike,
        *,
        rate: float | None = None,
        validate: bool = True,
    ) -> None:
        self._matrix_free = isinstance(generator, KroneckerGenerator)
        if self._matrix_free:
            # Matrix-free chains stay operators end-to-end: validation is
            # the operator's cheap structural check, and the uniformised
            # matrix is the lazy map v -> v + (v Q)/rate instead of a CSR
            # copy of the (possibly un-materialisable) product generator.
            matrix = generator
            if validate:
                generator.validate()
        else:
            matrix = as_csr(generator)
            if matrix.shape[0] != matrix.shape[1]:
                raise ValueError(f"generator must be square, got shape {matrix.shape}")
            if validate:
                validate_generator(matrix)
        self._validate = bool(validate)
        self._generator = matrix
        exit = -matrix.diagonal()
        max_exit = float(np.max(exit, initial=0.0))
        if rate is None:
            self._rate = max_exit * RATE_SAFETY_FACTOR if max_exit > 0.0 else 1.0
        else:
            self._rate = float(rate)
            if self._rate <= 0:
                raise ValueError(f"uniformisation rate must be positive, got {rate}")
            if self._rate < max_exit * (1.0 - 1e-12):
                raise ValueError(
                    f"uniformisation rate {rate} is smaller than the maximal exit "
                    f"rate {max_exit}"
                )
        # REPRO_CHECKS contract hook: in "off" mode this is one dict
        # lookup; "warn"/"strict" run the full structural validator
        # (including uniformisation-rate dominance) on every propagator.
        check_generator(self._generator, rate=self._rate)
        if self._matrix_free:
            self._probability_matrix = UniformizedOperator(matrix, self._rate)
        else:
            n = matrix.shape[0]
            self._probability_matrix = (
                sp.identity(n, format="csr") + matrix / self._rate
            ).tocsr()
        self._kernel = kernels.ScipyKernel(self._probability_matrix)

    # ------------------------------------------------------------------
    @property
    def generator(self) -> GeneratorLike:
        """The generator: the CSR matrix used internally, or the operator.

        Matrix-free chains (a
        :class:`~repro.markov.kronecker.KroneckerGenerator`) are kept as
        operators; everything else is the CSR conversion.
        """
        return self._generator

    @property
    def is_matrix_free(self) -> bool:
        """Whether the chain is propagated through a matrix-free operator."""
        return self._matrix_free

    @property
    def probability_matrix(self) -> sp.csr_matrix | UniformizedOperator:
        """The uniformised DTMC matrix ``P = I + Q/rate`` (CSR or operator)."""
        return self._probability_matrix

    @property
    def rate(self) -> float:
        """The uniformisation rate."""
        return self._rate

    @property
    def n_states(self) -> int:
        """Number of states of the chain."""
        return int(self._generator.shape[0])

    # ------------------------------------------------------------------
    def _check_initials(self, alphas: FloatArray) -> None:
        if alphas.shape[1] != self.n_states:
            raise ValueError(
                f"initial distribution has {alphas.shape[1]} entries but the "
                f"generator has {self.n_states} states"
            )
        if self._validate:
            totals = alphas.sum(axis=1)
            if not np.allclose(totals, 1.0, atol=1e-8):
                worst = float(totals[int(np.argmax(np.abs(totals - 1.0)))])
                raise ValueError(f"initial distribution sums to {worst}, expected 1")
            if np.any(alphas < -1e-12):
                raise ValueError("initial distribution has negative entries")

    @staticmethod
    def _windows(rate: float, times: FloatArray, epsilon: float) -> list[PoissonWeights]:
        # One shared, tilted weight table for the whole grid instead of a
        # per-window Fox--Glynn recursion; see shared_poisson_windows.
        rates = tuple(rate * float(t) for t in times)
        return list(shared_poisson_windows(rates, float(epsilon)))

    def _allocate(
        self, n_batch: int, n_times: int, n_states: int, proj: FloatArray | None
    ) -> FloatArray:
        if proj is None:
            return np.zeros((n_batch, n_times, n_states))
        if proj.ndim == 1:
            return np.zeros((n_batch, n_times))
        return np.zeros((n_batch, n_times, proj.shape[1]))

    @staticmethod
    def _store(
        results: FloatArray,
        index: int | FloatArray,
        block: FloatArray,
        proj: FloatArray | None,
    ) -> None:
        """Write the (projected) *block* into the time slot(s) *index*."""
        results[:, index] = block if proj is None else block @ proj

    def transient_batch(
        self,
        initial_distributions: npt.ArrayLike,
        times: npt.ArrayLike,
        *,
        epsilon: float = 1e-10,
        projection: npt.ArrayLike | None = None,
        mode: str = "incremental",
        steady_state_tol: float | None = None,
    ) -> BatchTransientResult:
        """Propagate a stack of initial distributions in one shared pass.

        Parameters
        ----------
        initial_distributions:
            Array of shape ``(K, n_states)``; one initial probability vector
            per scenario.
        times:
            Scalar or sequence of non-negative time points, shared by all
            scenarios (callers merge their grids and slice the result).
            Duplicates and arbitrary order are allowed; internally the grid
            is sorted and deduplicated, and the results are returned in the
            caller's order.
        epsilon:
            Bound on the truncation error per time point (cumulative along
            the segment chain in incremental mode).
        projection:
            Optional vector ``(n_states,)`` or matrix ``(n_states, m)``.
            When given, only the projected quantities (for example the
            probability mass of the absorbing "battery empty" states) are
            accumulated, which reduces the memory footprint from
            ``K x T x n`` to ``K x T (x m)``.
        mode:
            ``"incremental"`` (default) or ``"single-pass"``; see the module
            docstring.
        steady_state_tol:
            Per-step 1-norm threshold of the steady-state detector
            (incremental mode only).  By default the threshold is derived
            from the remaining product budget so that the accumulated
            detection error stays below half of *epsilon* (the other half
            covers the window truncations): because ``P`` is
            row-stochastic the 1-norm of the per-step change never grows,
            so freezing after a step change below
            ``budget / products_remaining`` bounds the total drift by
            the budget.  Pass an explicit value to override the budget
            (looser values detect earlier at reduced accuracy), or ``0``
            to disable detection.

        Returns
        -------
        BatchTransientResult
        """
        if mode not in TRANSIENT_MODES:
            raise ValueError(
                f"unknown transient mode {mode!r}; expected one of {TRANSIENT_MODES}"
            )
        times_array = np.atleast_1d(np.asarray(times, dtype=float))
        if times_array.ndim != 1:
            raise ValueError("time points must form a one-dimensional grid")
        if np.any(times_array < 0):
            raise ValueError("time points must be non-negative")
        alphas = np.atleast_2d(np.asarray(initial_distributions, dtype=float))
        self._check_initials(alphas)

        proj = None
        if projection is not None:
            proj = np.asarray(projection, dtype=float)
            if proj.shape[0] != self.n_states:
                raise ValueError(
                    f"projection has leading dimension {proj.shape[0]}, expected "
                    f"{self.n_states}"
                )

        # Deduplicate and sort once: repeated time points share one Poisson
        # window, and the incremental chain requires ascending segments.
        unique_times, inverse = np.unique(times_array, return_inverse=True)

        if mode == "single-pass":
            solved = self._single_pass(alphas, unique_times, epsilon, proj)
        else:
            solved = self._incremental(alphas, unique_times, epsilon, proj, steady_state_tol)

        return BatchTransientResult(
            times=times_array,
            values=solved.values[:, inverse],
            rate=self._rate,
            iterations=solved.iterations,
            truncation_error=solved.truncation_error[inverse],
            mode=mode,
            n_segments=int(unique_times.size),
            iterations_saved=solved.iterations_saved,
            steady_state_time=solved.steady_state_time,
            steady_state_iteration=solved.steady_state_iteration,
        )

    # ------------------------------------------------------------------
    def _single_pass(
        self,
        alphas: FloatArray,
        unique_times: FloatArray,
        epsilon: float,
        proj: FloatArray | None,
    ) -> _SolvedGrid:
        """One shared sweep ``v_n = alpha P^n`` feeding every time window."""
        n_batch = alphas.shape[0]
        windows = self._windows(self._rate, unique_times, epsilon)
        lefts = np.array([window.left for window in windows], dtype=np.int64)
        rights = np.array([window.right for window in windows], dtype=np.int64)
        max_right = int(rights.max())
        min_left = int(lefts.min())
        truncation_error = np.array(
            [max(0.0, 1.0 - window.total) for window in windows]
        )

        # Concatenated weight table: the weight of window j at term n is
        # weight_table[offsets[j] + n] whenever lefts[j] <= n <= rights[j],
        # which turns the per-iteration window loop into one fancy-index
        # gather over the active windows.
        sizes = rights - lefts + 1
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        offsets = starts - lefts
        weight_table = np.concatenate([window.weights for window in windows])

        results = self._allocate(n_batch, unique_times.size, self.n_states, proj)
        spmm = self._kernel.spmm
        block = alphas.copy()
        with obs.detail_span("single_pass", max_right=max_right):
            for n in range(max_right + 1):
                # Projection products (and window updates) are skipped
                # entirely before the first active window.
                if n >= min_left:
                    active = np.nonzero((lefts <= n) & (n <= rights))[0]
                    if active.size:
                        weights = weight_table[offsets[active] + n]
                        contribution = block if proj is None else block @ proj
                        if contribution.ndim == 1:
                            results[:, active] += (
                                contribution[:, None] * weights[None, :]
                            )
                        else:
                            results[:, active] += (
                                weights[None, :, None] * contribution[:, None, :]
                            )
                if n == max_right:
                    break
                block = spmm(block)

        return _SolvedGrid(
            values=results,
            iterations=max_right,
            truncation_error=truncation_error,
        )

    def _incremental(
        self,
        alphas: FloatArray,
        unique_times: FloatArray,
        epsilon: float,
        proj: FloatArray | None,
        steady_state_tol: float | None,
    ) -> _SolvedGrid:
        """Chain segments ``pi(t_{j-1}) -> pi(t_j)`` with steady-state detection."""
        n_batch = alphas.shape[0]
        n_times = unique_times.size
        # Split the error budget over the chained segments: every segment
        # contributes at most one window truncation to each later time point.
        # Half of the error budget goes to the window truncations (split
        # across the chained segments), the other half to the steady-state
        # detection drift, so the two mechanisms together stay below the
        # caller's epsilon.
        segment_epsilon = 0.5 * float(epsilon) / max(1, n_times)
        detection_budget = 0.5 * float(epsilon)
        fixed_tol = None if steady_state_tol is None else float(steady_state_tol)

        gaps = np.diff(unique_times, prepend=0.0)
        if fixed_tol is None:
            # Upper bound on the products each segment can perform: the
            # Fox--Glynn right truncation point (the realised window can
            # only be trimmed smaller).  The suffix sums turn the
            # detection threshold into a per-segment budget that soundly
            # covers every remaining product of the whole horizon.
            planned_products = np.array(
                [
                    truncation_points(self._rate * float(gap), segment_epsilon)[1]
                    if gap > 0.0
                    else 0
                    for gap in gaps
                ],
                dtype=np.int64,
            )
            products_after = np.concatenate(
                (np.cumsum(planned_products[::-1])[::-1][1:], [0])
            )

        results = self._allocate(n_batch, n_times, self.n_states, proj)
        truncation_error = np.zeros(n_times)

        current = alphas.copy()
        converged = False
        performed = 0
        saved = 0
        error_bound = 0.0
        steady_state_time: float | None = None
        steady_state_iteration: int | None = None

        for j in range(n_times):
            gap = float(gaps[j])
            if gap <= 0.0:
                # t = 0 (or a numerically identical neighbour): the
                # distribution is unchanged.
                self._store(results, j, current, proj)
                truncation_error[j] = error_bound
                continue
            if converged:
                # The distribution no longer changes; the whole segment is a
                # closed-form copy.  The skipped products are estimated by
                # the Poisson mean of the segment (a lower bound on the
                # window's right truncation point).
                saved += int(math.ceil(self._rate * gap))
                self._store(results, j, current, proj)
                truncation_error[j] = error_bound
                continue

            window = cached_poisson_weights(self._rate * gap, segment_epsilon)
            if fixed_tol is None:
                # Budgeted tolerance: P is row-stochastic, so the 1-norm of
                # the per-step change never grows; once one step changes by
                # less than budget / products_remaining, freezing the
                # distribution keeps the accumulated drift below the
                # detection budget over the whole remaining horizon.
                products_remaining = window.right + int(products_after[j])
                tol = detection_budget / max(1.0, float(products_remaining))
            else:
                tol = fixed_tol
            # The segment's products, weighted accumulation and
            # steady-state change tracking all run inside the kernel.
            with obs.detail_span(
                "segment", index=j, left=window.left, right=window.right
            ):
                segment = self._kernel.run_segment(
                    current, window.weights, window.left, window.right, tol
                )
            performed += segment.performed
            if segment.status == kernels.SEGMENT_START_INVARIANT:
                # The segment's *starting* vector is already invariant
                # under P, so the transient solution itself has reached
                # steady state (for the battery chains: the absorbing
                # empty states have soaked up all the mass).  This
                # segment and every later one collapse to a copy --
                # `current` stays as it is.
                saved += window.right - 1
                converged = True
                steady_state_time = float(unique_times[j])
                steady_state_iteration = performed
            else:
                if segment.status == kernels.SEGMENT_TAIL_COLLAPSED:
                    # The power iterates stopped changing mid-window: the
                    # kernel collapsed the window tail onto its remaining
                    # Poisson mass.  (This does *not* imply pi(t) is
                    # stationary -- later segments still run, and the
                    # start-invariant test above decides when the whole
                    # chain has converged.)
                    saved += window.right - (segment.break_index + 1)
                current = segment.accumulated
            error_bound += max(0.0, 1.0 - window.total)
            self._store(results, j, current, proj)
            truncation_error[j] = error_bound

        return _SolvedGrid(
            values=results,
            iterations=performed,
            truncation_error=truncation_error,
            iterations_saved=saved,
            steady_state_time=steady_state_time,
            steady_state_iteration=steady_state_iteration,
        )


@dataclass
class _SolvedGrid:
    """Internal carrier for a solve over the deduplicated, sorted grid."""

    values: FloatArray
    iterations: int
    truncation_error: FloatArray
    iterations_saved: int = 0
    steady_state_time: float | None = None
    steady_state_iteration: int | None = None
