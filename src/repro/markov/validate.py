"""Structural validation of CTMC chains, operators and quotients.

The solver pipeline rests on four structural contracts that no single
runtime assert covers end-to-end:

* a **generator** is a Q-matrix (non-negative off-diagonals, non-positive
  diagonal, zero row sums) and the uniformisation rate dominates every
  exit rate (:func:`validate_generator`);
* an **absorbing chain** actually absorbs: the failure states are
  reachable from the initial distribution, and no probability mass can
  reach a recurrent class that never fails (:func:`validate_absorbing`);
* a **Kronecker operator** is consistent: factor shapes match the product
  dims, scales broadcast, signs are legal, and the implied non-zero
  accounting matches an independent recount (:func:`validate_kronecker`);
  the ``P = I + Q/q`` assembled from it is row-stochastic with exactly
  the implied entries (:func:`validate_stochastic`);
* a **lumping partition** is an exact quotient: within every block, all
  member states aggregate identically over every other block -- in
  particular exit rates are preserved (:func:`validate_lumping`).

Every failure raises :class:`ValidationError` with a diagnostic naming
the offending state, entry, term or block, so a violation found deep in a
product-space construction is attributable without a debugger.

:func:`check_chain`, :func:`check_generator` and :func:`check_uniformized`
are the entry-point hooks wired into ``discretize`` /
:class:`~repro.markov.uniformization.TransientPropagator` behind the
``REPRO_CHECKS`` toggle (see :mod:`repro.checking.contracts`):
``strict`` raises, ``off`` skips everything but one environment lookup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.checking.contracts import checks_mode
from repro.markov.generator import DEFAULT_TOLERANCE, GeneratorError, exit_rates
from repro.markov.kronecker import KroneckerGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    import numpy.typing as npt

__all__ = [
    "REACHABILITY_STATE_LIMIT",
    "ValidationError",
    "check_chain",
    "check_generator",
    "check_uniformized",
    "validate_absorbing",
    "validate_generator",
    "validate_kronecker",
    "validate_lumping",
    "validate_stochastic",
]

#: Above this state count the graph-reachability checks of
#: :func:`validate_absorbing` are skipped by :func:`check_chain` -- the
#: sweeps are linear but not free, and a bank operator must be assembled
#: (:meth:`~repro.markov.kronecker.KroneckerGenerator.to_csr`) for them.
REACHABILITY_STATE_LIMIT = 300_000

#: Above this state count :func:`validate_kronecker` skips the assembled
#: cross-check and relies on the factor-level accounting alone.
KRONECKER_ASSEMBLE_LIMIT = 20_000


class ValidationError(GeneratorError):
    """A structural chain contract is violated.

    Subclasses :class:`~repro.markov.generator.GeneratorError` so existing
    ``except GeneratorError`` sites keep catching validation failures.
    """


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def validate_generator(
    generator: Any,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    rate: float | None = None,
) -> None:
    """Raise :class:`ValidationError` unless *generator* is a valid Q-matrix.

    Checks, each naming the offending state or entry: the matrix is
    square; every entry of an assembled matrix is finite; off-diagonal
    entries are non-negative; diagonal entries are non-positive; every row
    sums to zero within *tolerance* (scaled by the row's exit rate); and,
    when *rate* is given, the uniformisation rate dominates every diagonal
    (``rate >= q_i`` for all states).

    Accepts dense arrays, scipy sparse matrices and
    :class:`~repro.markov.kronecker.KroneckerGenerator` operators (which
    are routed through :func:`validate_kronecker` first).
    """
    if isinstance(generator, KroneckerGenerator):
        validate_kronecker(generator, tolerance=tolerance)
        diagonal = generator.diagonal()
    elif sp.issparse(generator):
        shape = generator.shape
        if shape[0] != shape[1]:
            raise ValidationError(f"generator must be square, got shape {shape}")
        coo = generator.tocoo()
        not_finite = np.flatnonzero(~np.isfinite(coo.data))
        if not_finite.size:
            where = int(not_finite[0])
            _reject_non_finite(int(coo.row[where]), int(coo.col[where]), coo.data[where])
        off_mask = coo.row != coo.col
        bad = off_mask & (coo.data < -tolerance)
        if np.any(bad):
            where = int(np.argmax(bad))
            raise ValidationError(
                f"generator entry ({int(coo.row[where])}, {int(coo.col[where])}) "
                f"is negative off-diagonal: {coo.data[where]!r}"
            )
        diagonal = np.asarray(generator.diagonal(), dtype=float)
        _check_row_sums(
            np.asarray(generator.sum(axis=1)).ravel(), diagonal, tolerance
        )
    else:
        matrix = np.asarray(generator, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"generator must be square, got shape {matrix.shape}")
        rows, cols = np.nonzero(~np.isfinite(matrix))
        if rows.size:
            _reject_non_finite(int(rows[0]), int(cols[0]), matrix[rows[0], cols[0]])
        off = matrix - np.diag(np.diagonal(matrix))
        if np.any(off < -tolerance):
            row, col = np.unravel_index(int(np.argmin(off)), off.shape)
            raise ValidationError(
                f"generator entry ({int(row)}, {int(col)}) is negative "
                f"off-diagonal: {matrix[row, col]!r}"
            )
        diagonal = np.diagonal(matrix).astype(float)
        _check_row_sums(matrix.sum(axis=1), diagonal, tolerance)

    if np.any(diagonal > tolerance):
        state = int(np.argmax(diagonal))
        raise ValidationError(
            f"state {state} has a positive diagonal entry {diagonal[state]!r}"
        )
    if rate is not None:
        exits = -diagonal
        dominated = rate * (1.0 + 1e-12) + tolerance
        if np.any(exits > dominated):
            state = int(np.argmax(exits))
            raise ValidationError(
                f"uniformisation rate {rate} does not dominate state {state} "
                f"(exit rate {exits[state]!r})"
            )


def _reject_non_finite(row: int, col: int, value: float) -> None:
    raise ValidationError(f"generator entry ({row}, {col}) is not finite: {value}")


def _check_row_sums(
    row_sums: "npt.NDArray[np.float64]",
    diagonal: "npt.NDArray[np.float64]",
    tolerance: float,
) -> None:
    """Row sums must vanish within *tolerance* scaled by the exit rate."""
    scale = np.maximum(1.0, np.abs(diagonal))
    deviation = np.abs(row_sums) / scale
    if np.any(deviation > tolerance):
        state = int(np.argmax(deviation))
        raise ValidationError(
            f"row {state} of the generator sums to {row_sums[state]!r}, expected 0"
        )


# ----------------------------------------------------------------------
# absorbing structure
# ----------------------------------------------------------------------

def _reachable_mask(
    adjacency: sp.csr_matrix, seeds: "npt.NDArray[np.int64]"
) -> "npt.NDArray[np.bool_]":
    """States reachable from *seeds* along directed edges (seeds included)."""
    n = adjacency.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[seeds] = True
    frontier = reached.copy()
    while frontier.any():
        step = (adjacency.T @ frontier.astype(np.float64)) > 0.0
        frontier = step & ~reached
        reached |= frontier
    return reached


def validate_absorbing(
    generator: Any,
    initial_distribution: "npt.NDArray[np.float64]",
    absorbing: "Sequence[int] | npt.NDArray[np.int64]",
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> None:
    """Raise :class:`ValidationError` unless the chain absorbs into *absorbing*.

    Three graph-structural checks on the directed transition graph (one
    edge per positive off-diagonal rate):

    1. every listed absorbing state really is absorbing (zero exit rate);
    2. at least one absorbing state is reachable from the support of
       *initial_distribution*;
    3. no "transient sink": every state reachable from the initial
       support can itself still reach the absorbing set -- otherwise
       probability mass enters a recurrent class that never fails and the
       lifetime CDF silently saturates below one.

    The sweeps are sparse breadth-first passes, O(nnz) per round.
    """
    matrix = generator.tocsr() if sp.issparse(generator) else sp.csr_matrix(
        np.asarray(generator, dtype=float)
    )
    n = matrix.shape[0]
    absorbing_index = np.asarray(list(absorbing), dtype=np.int64)
    if absorbing_index.size == 0:
        raise ValidationError("the chain declares no absorbing (failure) states")
    if np.any((absorbing_index < 0) | (absorbing_index >= n)):
        bad = int(absorbing_index[np.argmax((absorbing_index < 0) | (absorbing_index >= n))])
        raise ValidationError(f"absorbing state {bad} outside state space of size {n}")

    exits = exit_rates(matrix)
    not_absorbing = np.abs(exits[absorbing_index]) > tolerance
    if np.any(not_absorbing):
        state = int(absorbing_index[np.argmax(not_absorbing)])
        raise ValidationError(
            f"state {state} is declared absorbing but has exit rate {exits[state]!r}"
        )

    initial = np.asarray(initial_distribution, dtype=float).ravel()
    if initial.size != n:
        raise ValidationError(
            f"initial distribution has {initial.size} entries for {n} states"
        )
    support = np.nonzero(initial > tolerance)[0]
    if support.size == 0:
        raise ValidationError("the initial distribution has no support")

    coo = matrix.tocoo()
    edge_mask = (coo.row != coo.col) & (coo.data > tolerance)
    adjacency = sp.csr_matrix(
        (
            np.ones(int(edge_mask.sum()), dtype=np.int8),
            (coo.row[edge_mask], coo.col[edge_mask]),
        ),
        shape=(n, n),
    )

    forward = _reachable_mask(adjacency, support)
    absorbing_mask = np.zeros(n, dtype=bool)
    absorbing_mask[absorbing_index] = True
    if not np.any(forward & absorbing_mask):
        state = int(absorbing_index[0])
        raise ValidationError(
            f"no absorbing state (e.g. state {state}) is reachable from the "
            "initial distribution: the chain can never fail"
        )

    # Transient sinks: reachable states that cannot reach the absorbing
    # set.  Found via reverse reachability from the absorbing states.
    backward = _reachable_mask(adjacency.T.tocsr(), absorbing_index)
    stuck = forward & ~backward
    if np.any(stuck):
        state = int(np.argmax(stuck))
        component, labels = csgraph.connected_components(
            adjacency, directed=True, connection="strong", return_labels=True
        )
        del component
        members = int(np.count_nonzero(labels == labels[state]))
        raise ValidationError(
            f"state {state} is reachable from the initial distribution but "
            f"cannot reach any absorbing state (its strongly connected "
            f"component has {members} states): probability mass is trapped "
            "in a non-failing recurrent class"
        )


# ----------------------------------------------------------------------
# Kronecker operators
# ----------------------------------------------------------------------

def validate_kronecker(
    generator: KroneckerGenerator, *, tolerance: float = DEFAULT_TOLERANCE
) -> None:
    """Raise :class:`ValidationError` unless the operator is self-consistent.

    Factor-level checks, each naming the term and axis: every factor is
    square with the dimension of its axis, every scale broadcasts to the
    product dims, factor entries and scales are non-negative, and the
    diagonal is non-positive.  The operator's implied non-zero count is
    recomputed independently (per-state product of factor row counts,
    masked by the zero pattern of the scalings) and compared against the
    operator's own accounting.  Chains with at most
    :data:`KRONECKER_ASSEMBLE_LIMIT` states are additionally assembled and
    re-validated entry-wise.
    """
    dims = tuple(generator.dims)
    n = generator.shape[0]
    if int(np.prod(dims)) != n:
        raise ValidationError(
            f"factor dims {dims} imply {int(np.prod(dims))} states but the "
            f"operator reports {n}"
        )

    implied = 0.0
    for term_index, term in enumerate(generator.terms):
        counts = np.ones((1,) * len(dims))
        for axis, matrix in term.factors:
            if not 0 <= axis < len(dims):
                raise ValidationError(
                    f"term {term_index}: factor axis {axis} outside dims of "
                    f"length {len(dims)}"
                )
            expected = (dims[axis], dims[axis])
            if matrix.shape != expected:
                raise ValidationError(
                    f"term {term_index}: factor on axis {axis} has shape "
                    f"{matrix.shape}, expected {expected}"
                )
            if matrix.nnz and float(matrix.data.min(initial=0.0)) < -tolerance:
                raise ValidationError(
                    f"term {term_index}: factor on axis {axis} has a negative entry"
                )
            row_counts = np.diff(matrix.indptr).astype(float)
            shape = [1] * len(dims)
            shape[axis] = dims[axis]
            counts = counts * row_counts.reshape(shape)
        for scale_index, scale in enumerate(term.scales):
            array = np.asarray(scale, dtype=float)
            try:
                np.broadcast_shapes(array.shape, dims)
            except ValueError:
                raise ValidationError(
                    f"term {term_index}: scale {scale_index} of shape "
                    f"{array.shape} does not broadcast to dims {dims}"
                ) from None
            if array.size and float(array.min()) < -tolerance:
                raise ValidationError(
                    f"term {term_index}: scale {scale_index} has a negative entry"
                )
            counts = counts * (array != 0.0).astype(float)
        implied += float(np.broadcast_to(counts, dims).sum())

    diagonal = generator.diagonal()
    if diagonal.size and float(diagonal.max(initial=0.0)) > tolerance:
        state = int(np.argmax(diagonal))
        raise ValidationError(
            f"matrix-free generator has positive diagonal entry "
            f"{diagonal[state]!r} at state {state}"
        )
    recount = int(round(implied)) + int(np.count_nonzero(diagonal))
    if recount != generator.nnz:
        raise ValidationError(
            f"implied-nnz accounting mismatch: the operator reports "
            f"{generator.nnz} non-zeros but the term structure implies {recount}"
        )

    if n <= KRONECKER_ASSEMBLE_LIMIT:
        assembled = generator.to_csr()
        validate_generator(assembled, tolerance=tolerance)
        if assembled.nnz > generator.nnz:
            raise ValidationError(
                f"assembled operator has {assembled.nnz} non-zeros, more than "
                f"the implied bound {generator.nnz}"
            )


def validate_stochastic(
    matrix: sp.csr_matrix,
    *,
    expected_nnz: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> None:
    """Raise :class:`ValidationError` unless CSR *matrix* is row-stochastic.

    Checks, each naming the offending row: every stored entry is finite
    and non-negative, and every row sums to 1 within *tolerance*.  When
    *expected_nnz* is given, the stored entry count must equal it (for an
    assembled ``P = I + Q/q``: the implied off-diagonal count plus one
    diagonal slot per state).
    """
    csr = matrix.tocsr()
    bad = ~(np.isfinite(csr.data) & (csr.data >= 0.0))
    if np.any(bad):
        where = int(np.argmax(bad))
        row = int(np.searchsorted(csr.indptr, where, side="right")) - 1
        raise ValidationError(
            f"row {row} of the uniformised matrix has entry "
            f"({row}, {int(csr.indices[where])}) = {csr.data[where]!r}, "
            "expected a finite non-negative probability"
        )
    sums = np.asarray(csr.sum(axis=1)).ravel()
    deviation = np.abs(sums - 1.0)
    if np.any(deviation > tolerance):
        row = int(np.argmax(deviation))
        raise ValidationError(
            f"row {row} of the uniformised matrix sums to {sums[row]!r}, expected 1"
        )
    if expected_nnz is not None and csr.nnz != expected_nnz:
        raise ValidationError(
            f"the uniformised matrix stores {csr.nnz} entries but the generator "
            f"implies {expected_nnz}"
        )


# ----------------------------------------------------------------------
# lumping quotients
# ----------------------------------------------------------------------

def validate_lumping(
    generator: Any,
    partition: "npt.NDArray[np.int64] | Sequence[int]",
    lumped_generator: Any | None = None,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> None:
    """Raise :class:`ValidationError` unless *partition* is an exact quotient.

    Strong lumpability: for every ordered block pair ``(B, C)``, all
    states of ``B`` must carry the same aggregate rate into ``C`` --
    which in particular preserves every exit rate across each block.  The
    diagnostic names the offending state, its block and the first block
    it disagrees on.  When *lumped_generator* is given it is additionally
    compared entry-wise against the induced quotient generator.
    """
    matrix = generator.tocsr() if sp.issparse(generator) else sp.csr_matrix(
        np.asarray(generator, dtype=float)
    )
    n = matrix.shape[0]
    labels = np.asarray(partition, dtype=np.int64).ravel()
    if labels.size != n:
        raise ValidationError(
            f"partition labels {labels.size} states but the generator has {n}"
        )
    blocks, labels = np.unique(labels, return_inverse=True)
    n_blocks = blocks.size

    indicator = sp.csr_matrix(
        (np.ones(n), (np.arange(n), labels)), shape=(n, n_blocks)
    )
    # (n, n_blocks) block-aggregated rates -- not an O(n^2) densification.
    aggregated = (matrix @ indicator).toarray()  # repro-lint: allow RPR001

    # Every row of a block must equal the block's first row of aggregates.
    first_of_block = np.zeros(n_blocks, dtype=np.int64)
    seen = np.zeros(n_blocks, dtype=bool)
    for state in range(n):
        block = labels[state]
        if not seen[block]:
            seen[block] = True
            first_of_block[block] = state
    representative = aggregated[first_of_block[labels]]
    scale = np.maximum(1.0, np.abs(np.asarray(matrix.diagonal())))[:, None]
    deviation = np.abs(aggregated - representative) / scale
    if float(deviation.max(initial=0.0)) > tolerance:
        state, block = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
        partner = int(first_of_block[labels[state]])
        raise ValidationError(
            f"partition is not an exact quotient: state {int(state)} (block "
            f"{int(blocks[labels[state]])}) carries aggregate rate "
            f"{aggregated[state, block]!r} into block {int(blocks[block])} but "
            f"its block representative (state {partner}) carries "
            f"{representative[state, block]!r}; exit rates are not preserved "
            "across the block"
        )

    if lumped_generator is not None:
        lumped = (
            lumped_generator.tocsr()
            if sp.issparse(lumped_generator)
            else sp.csr_matrix(np.asarray(lumped_generator, dtype=float))
        )
        if lumped.shape != (n_blocks, n_blocks):
            raise ValidationError(
                f"lumped generator has shape {lumped.shape} but the partition "
                f"has {n_blocks} blocks"
            )
        quotient = aggregated[first_of_block]
        difference = np.abs(lumped.toarray() - quotient)  # repro-lint: allow RPR001
        if float(difference.max(initial=0.0)) > tolerance:
            row, col = np.unravel_index(int(np.argmax(difference)), difference.shape)
            raise ValidationError(
                f"lumped generator entry ({int(blocks[row])}, {int(blocks[col])}) "
                f"is {lumped[row, col]!r} but the induced quotient carries "
                f"{quotient[row, col]!r}"
            )


# ----------------------------------------------------------------------
# REPRO_CHECKS entry hooks
# ----------------------------------------------------------------------

def check_generator(generator: Any, *, rate: float | None = None) -> None:
    """``REPRO_CHECKS`` hook for propagator entry: validate one generator.

    Dispatches to :func:`validate_kronecker` for matrix-free operators and
    :func:`validate_generator` otherwise; violations raise in ``strict``
    mode (see :mod:`repro.checking.contracts`).  In ``off`` mode this is a
    single dictionary lookup.
    """
    if checks_mode() == "off":
        return
    validate_generator(generator, rate=rate)


def check_uniformized(matrix: sp.csr_matrix, generator: KroneckerGenerator) -> None:
    """``REPRO_CHECKS`` hook for an assembled ``P = I + Q/q`` of an operator.

    Runs :func:`validate_stochastic` with the entry count the operator
    implies: its off-diagonal non-zeros plus one diagonal slot per state.
    In ``off`` mode this is a single dictionary lookup.
    """
    if checks_mode() == "off":
        return
    diagonal = generator.diagonal()
    expected = generator.nnz - int(np.count_nonzero(diagonal)) + diagonal.size
    validate_stochastic(matrix, expected_nnz=expected)


def check_chain(chain: Any) -> None:
    """``REPRO_CHECKS`` hook for ``discretize`` exit: validate a built chain.

    Validates the chain's generator (structural Q-matrix laws, operator
    consistency) and -- for chains up to :data:`REACHABILITY_STATE_LIMIT`
    states -- the absorbing structure against the chain's
    ``empty_states`` and initial distribution.  A Kronecker operator (the
    generator of every unlumped chain, single batteries included) is
    assembled with ``to_csr()`` for that check, whichever backend applies
    it.
    """
    if checks_mode() == "off":
        return
    generator = chain.generator
    validate_generator(generator)
    empty = getattr(chain, "empty_states", None)
    if (
        empty is not None
        and (sp.issparse(generator) or isinstance(generator, KroneckerGenerator))
        and generator.shape[0] <= REACHABILITY_STATE_LIMIT
        and np.asarray(empty).size
    ):
        if isinstance(generator, KroneckerGenerator):
            generator = generator.to_csr()
        validate_absorbing(generator, chain.initial_distribution, empty)
