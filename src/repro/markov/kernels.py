"""The compute kernel of the uniformisation hot path.

Every transient solve in this library bottoms out in the same inner loop:
repeated vector--matrix products ``v @ P`` against the uniformised DTMC
matrix, interleaved with Poisson-weighted accumulation
``accumulated += w_n * v``.  This module holds that loop:
:class:`ScipyKernel` evaluates ``v @ P`` through scipy's sparse matmul (or
a matrix-free operator's ``__rmatmul__``) and runs the segment loop of
:func:`segment_python` in plain Python/NumPy, keeping the numerics of
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
        Number of ``v @ P`` products the segment executed.
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
    progress: Callable[[int], None] | None = None,
) -> SegmentResult:
    """The segment loop: one Poisson window of products and accumulation.

    *spmm* evaluates one ``v @ P`` product; the loop body reproduces the
    historical inline implementation of the incremental transient solver
    operation-for-operation, so the default pipeline stays bit-identical.
    *progress* (when given) is invoked once per product with the count of
    products performed so far in this segment.
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
        if progress is not None:
            progress(performed)
        if tol > 0.0:
            np.subtract(v_next, v, out=scaled)
            np.abs(scaled, out=scaled)
            step_change = float(np.max(scaled.sum(axis=1)))
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
    """The uniformisation kernel: scipy sparse products, Python segment loop.

    Also the kernel for matrix-free chains -- ``block @ matrix`` defers to
    the operator's ``__rmatmul__``, so one implementation covers both.
    """

    def __init__(self, matrix: GeneratorLike) -> None:
        self._matrix = matrix

    @property
    def matrix(self) -> GeneratorLike:
        """The uniformised matrix (CSR) or operator the kernel applies."""
        return self._matrix

    def spmm(self, block: FloatArray) -> FloatArray:
        """One ``block @ P`` product."""
        return block @ self._matrix  # type: ignore[operator]

    def run_segment(
        self,
        v: FloatArray,
        weights: FloatArray,
        left: int,
        right: int,
        tol: float,
        progress: Callable[[int], None] | None = None,
    ) -> SegmentResult:
        """Run one Poisson-window segment (see :func:`segment_python`)."""
        return segment_python(self.spmm, v, weights, left, right, tol, progress)
