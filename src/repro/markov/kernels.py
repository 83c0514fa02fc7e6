"""The compute kernel of the uniformisation hot path.

Every transient solve in this library bottoms out in the same inner loop:
repeated products ``v·P`` with the uniformised DTMC matrix, interleaved
with Poisson-weighted accumulation ``accumulated += w_n * v``.  This module
holds that loop.  Its iterates are *state-major*: one start is a 1-D
``(n,)`` vector and a stack of ``K`` starts is an ``(n, K)`` block, so
``v·P`` is the matvec ``P.T @ v``.  :class:`ScipyKernel` holds ``P.T``,
built once -- for a CSR ``P`` a zero-copy CSC view on ``P``'s arrays --
and evaluates each product as one scipy sparse matvec (or through a
matrix-free operator's ``apply``); :func:`segment_python` runs the segment
loop in plain Python/NumPy, keeping the numerics of
:class:`~repro.markov.uniformization.TransientPropagator` in one place.

The segment runner returns a :class:`SegmentResult` whose ``status``
encodes the steady-state detection outcome (see the constants below); the
caller owns the bookkeeping (saved-product accounting, convergence
collapse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.checking.protocols import FloatArray
from repro.markov.kronecker import is_matrix_free

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checking.protocols import GeneratorLike

__all__ = ["ScipyKernel", "SegmentResult"]

#: ``run_segment`` ran the whole Poisson window without detection firing.
SEGMENT_COMPLETED = 0
#: The segment's *starting* vector is already invariant under ``P``: the
#: transient solution has reached steady state (the caller collapses this
#: segment and every later one to a copy).
SEGMENT_START_INVARIANT = 1
#: The power iterates stopped changing mid-window: the window tail was
#: collapsed onto the remaining Poisson mass (the transient solution is
#: *not* necessarily stationary -- later segments still run).
SEGMENT_TAIL_COLLAPSED = 2


@dataclass
class SegmentResult:
    """Outcome of one Poisson-window segment run.

    Both arrays have the state-major layout of the segment's input: ``(n,)``
    for one start, ``(n, K)`` for a stack.

    Attributes
    ----------
    accumulated:
        The Poisson-weighted mixture ``sum_n w_n * (v P^n)`` accumulated
        over the window (with the tail collapsed onto the remaining mass
        when ``status == SEGMENT_TAIL_COLLAPSED``).  Undefined (callers
        must substitute the segment's input) when
        ``status == SEGMENT_START_INVARIANT``.
    vector:
        The final power iterate.
    performed:
        Number of ``v·P`` products the segment executed.
    status:
        One of the ``SEGMENT_*`` constants.
    break_index:
        The iteration index at which detection fired (the window's right
        truncation point when it never did).
    """

    accumulated: FloatArray
    vector: FloatArray
    performed: int
    status: int
    break_index: int


def segment_python(
    spmm: Callable[[FloatArray], FloatArray],
    v: FloatArray,
    weights: FloatArray,
    left: int,
    right: int,
    tol: float,
) -> SegmentResult:
    """The segment loop: one Poisson window of products and accumulation.

    *v* is state-major: one start as a 1-D ``(n,)`` vector, or ``K``
    starts as the columns of an ``(n, K)`` block.  *spmm* evaluates one
    product ``v·P`` in that layout.  The steady-state step change is the
    1-norm over states (axis 0), taken per start; detection fires once the
    largest of them falls below *tol*.
    """
    accumulated = np.zeros_like(v)
    # Reused per-iteration work buffers: the weighted copy of the iterate
    # and the step difference.  Fresh temporaries here would malloc (and
    # page-fault) one full-block array per product on large chains.
    scaled = np.empty_like(v)
    remaining_mass = 1.0
    performed = 0
    status = SEGMENT_COMPLETED
    break_index = right
    for n in range(right + 1):
        if n >= left:
            weight = weights[n - left]
            np.multiply(v, weight, out=scaled)
            accumulated += scaled
            remaining_mass -= weight
        if n == right:
            break
        v_next = spmm(v)
        performed += 1
        if tol > 0.0:
            np.subtract(v_next, v, out=scaled)
            np.abs(scaled, out=scaled)
            step_change = float(np.max(scaled.sum(axis=0)))
            v = v_next
            if step_change < tol:
                if n == 0:
                    status = SEGMENT_START_INVARIANT
                else:
                    status = SEGMENT_TAIL_COLLAPSED
                    accumulated += max(0.0, remaining_mass) * v
                break_index = n
                break
        else:
            v = v_next
    return SegmentResult(
        accumulated=accumulated,
        vector=v,
        performed=performed,
        status=status,
        break_index=break_index,
    )


class ScipyKernel:
    """The uniformisation kernel: one sparse matvec per product, Python segment loop.

    *matrix* is ``P.T`` of a CSR ``P`` -- a CSC view on ``P``'s arrays, so
    holding it copies nothing -- and ``P.T @ v`` runs the scipy routine
    that ``v @ P`` runs after building that transpose anew on every call,
    summing in the same order.  A matrix-free chain's *matrix* is its
    :class:`~repro.markov.kronecker.UniformizedOperator`, applied to a
    block's ``(K, n)`` view.
    """

    def __init__(self, matrix: GeneratorLike) -> None:
        self._matrix = matrix
        self._operator = is_matrix_free(matrix)

    @property
    def matrix(self) -> GeneratorLike:
        """``P.T`` (a CSC view on the CSR ``P``) or the uniformised operator."""
        return self._matrix

    def spmm(self, v: FloatArray) -> FloatArray:
        """One product ``v·P`` on a state-major iterate ``(n,)`` or ``(n, K)``."""
        if self._operator:
            apply = self._matrix.apply  # type: ignore[union-attr]
            return apply(v) if v.ndim == 1 else apply(v.T).T  # type: ignore[no-any-return]
        return self._matrix @ v  # type: ignore[operator,no-any-return]

    def run_segment(
        self,
        v: FloatArray,
        weights: FloatArray,
        left: int,
        right: int,
        tol: float,
    ) -> SegmentResult:
        """Run one Poisson-window segment (see :func:`segment_python`)."""
        return segment_python(self.spmm, v, weights, left, right, tol)
