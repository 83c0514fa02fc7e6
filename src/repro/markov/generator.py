"""Helpers for CTMC generator matrices.

A generator (infinitesimal generator, or Q-matrix) has non-negative
off-diagonal entries and rows that sum to zero.  The helpers in this module
accept both dense :class:`numpy.ndarray` matrices and ``scipy.sparse``
matrices, because the workload models of the paper are tiny (2--5 states)
while the discretised KiBaMRM chains easily reach hundreds of thousands of
states.  The Q-matrix check itself is
:func:`repro.markov.validate.validate_generator`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.checking.protocols import FloatArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checking.protocols import GeneratorLike

__all__ = [
    "GeneratorError",
    "as_csr",
    "exit_rates",
    "kron_chain",
    "uniformized_matrix",
]

#: Default absolute tolerance used when checking that rows sum to zero.
DEFAULT_TOLERANCE = 1e-9


class GeneratorError(ValueError):
    """Raised when a matrix is not a valid CTMC generator."""


def _is_sparse(matrix: object) -> bool:
    """Return ``True`` when *matrix* is a scipy sparse matrix/array."""
    return sp.issparse(matrix)


def as_csr(matrix: GeneratorLike) -> sp.csr_matrix:
    """Convert *matrix* to CSR once, at the boundary of the sparse pipeline.

    The numerical pipeline (uniformisation, the engine solvers) works on
    CSR matrices end-to-end; dense inputs -- the tiny workload chains of the
    paper -- are converted here exactly once instead of being re-dispatched
    with ``sp.issparse`` checks in every downstream call.
    """
    if _is_sparse(matrix):
        return matrix.tocsr()
    return sp.csr_matrix(np.asarray(matrix, dtype=float))


def kron_chain(factors: Iterable[GeneratorLike]) -> sp.csr_matrix:
    """Return the Kronecker product of *factors*, reduced left to right, as CSR.

    The factors may be dense arrays or scipy sparse matrices; everything is
    pushed through :func:`as_csr` first so the product stays sparse
    end-to-end.  This is the assembly primitive of the multi-battery
    product-space construction, where a local transition matrix of one
    factor (workload, phase clock, or a single battery's charge grid) is
    lifted to the product space by Kronecker-multiplying it with identities
    on every other factor.
    """
    matrices = [as_csr(factor) for factor in factors]
    if not matrices:
        raise GeneratorError("kron_chain needs at least one factor")
    product = matrices[0]
    for factor in matrices[1:]:
        product = sp.kron(product, factor, format="csr")
    return product.tocsr()


def exit_rates(generator: GeneratorLike) -> FloatArray:
    """Return the exit rate ``q_i = -Q[i, i]`` of every state.

    Accepts dense arrays, scipy sparse matrices and the matrix-free
    operators of :mod:`repro.markov.kronecker` (which expose their
    precomputed diagonal).
    """
    from repro.markov.kronecker import KroneckerGenerator

    if _is_sparse(generator) or isinstance(generator, KroneckerGenerator):
        diagonal = generator.diagonal()
    else:
        diagonal = np.diagonal(np.asarray(generator, dtype=float))
    return -np.asarray(diagonal, dtype=float)


def uniformized_matrix(
    generator: GeneratorLike, rate: float
) -> FloatArray | sp.csr_matrix:
    """Return the uniformised DTMC matrix ``P = I + Q / rate``.

    Parameters
    ----------
    generator:
        A valid generator matrix (dense or sparse).
    rate:
        The uniformisation rate; must satisfy ``rate >= max_i q_i`` and be
        strictly positive.

    Returns
    -------
    numpy.ndarray or scipy.sparse.csr_matrix
        A (sub)stochastic matrix of the same sparsity kind as the input.
    """
    if rate <= 0:
        raise GeneratorError(f"uniformisation rate must be positive, got {rate}")
    max_exit = float(np.max(exit_rates(generator), initial=0.0))
    if rate < max_exit * (1.0 - 1e-12):
        raise GeneratorError(
            f"uniformisation rate {rate} is smaller than the maximal exit rate {max_exit}"
        )
    if _is_sparse(generator):
        n = generator.shape[0]
        return (sp.identity(n, format="csr") + generator.tocsr() / rate).tocsr()
    matrix = np.asarray(generator, dtype=float)
    return np.eye(matrix.shape[0]) + matrix / rate
