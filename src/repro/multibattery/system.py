"""Product-space Markov reward models for multi-battery systems.

A :class:`MultiBatterySystem` composes one CTMC workload, a bank of ``N``
KiBaM batteries and a scheduling policy into a single product-space CTMC:

.. math::

    S^\\times = S_{\\text{workload}} \\times S_{\\text{phase}}
        \\times G_1 \\times \\cdots \\times G_N,

where ``G_b`` is battery ``b``'s discretised charge grid (the same
:class:`~repro.core.grid.RewardGrid` the single-battery Markovian
approximation uses) and the phase factor is the policy's optional switch
clock.  The transition structure is Kronecker-shaped:

* workload and phase transitions are local to their own factor,
* each battery's bound-to-available **transfer** transitions are local to
  that battery's grid factor, and
* **consumption** transitions (battery ``b`` loses one charge quantum at
  rate ``w_b I_m / Delta``) combine a diagonal current factor on the
  workload/phase axes with a down-shift on battery ``b``'s grid axis; the
  policy-dependent routing weight ``w_b`` -- which may depend on the joint
  charge configuration (``best-of``) -- enters as a diagonal row scaling
  of the lifted matrix.

Three interchangeable **backends** realise that structure
(:meth:`MultiBatterySystem.discretize` selects one; every backend yields
the same lifetime CDF within floating-point accuracy):

* ``"matrix-free"`` -- a
  :class:`~repro.markov.kronecker.KroneckerGenerator` operator that
  applies ``v @ P`` factor-wise and never materialises the product CSR,
  unlocking banks whose assembled matrix would not fit in memory.
* ``"assembled"`` -- the same operator as the chain's generator, with the
  propagator holding one CSR copy of the uniformised ``P = I + Q/q``
  written straight from the terms
  (:meth:`~repro.markov.kronecker.KroneckerGenerator.uniformized_csr`);
  memory and assembly time grow with the product-space size, and each
  ``v @ P`` product is one sparse matrix product (3.6x cheaper than the
  factor-wise apply on a 232,560-state bank).
* ``"lumped"`` -- for banks of *identical* batteries under a
  permutation-symmetric policy, the exact quotient chain over sorted
  charge multisets (:mod:`repro.multibattery.lumping`), shrinking the
  state space by up to ``N!``.

``"auto"`` lumps what it can, assembles a bank whose ``P`` fits
:data:`ASSEMBLED_CSR_BUDGET_BYTES` as CSR (sized from
:meth:`MultiBatterySystem.estimated_nonzeros`, without building anything),
and applies the rest matrix-free.

System failure is a configurable **k-of-N depletion predicate**: the
system is dead as soon as at least ``failures_to_die`` batteries have
emptied their available well.  Failed product states are made absorbing
exactly like the single-battery empty states, so every backend drops
straight into the existing :class:`~repro.markov.uniformization.TransientPropagator`
machinery (including the incremental fast path and its steady-state
detection) with the failed-state indicator as the projection vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.battery.parameters import KiBaMParameters
from repro.core.discretization import _transfer_rates
from repro.core.grid import RewardGrid
from repro.markov.kronecker import KroneckerGenerator, KroneckerTerm, assembled_csr_bytes
from repro.markov.validate import check_chain
from repro.multibattery.policies import SchedulingPolicy, get_policy
from repro.workload.base import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.checking import FloatArray, IntArray

__all__ = [
    "ASSEMBLED_CSR_BUDGET_BYTES",
    "BACKENDS",
    "DiscretizedMultiBatterySystem",
    "MultiBatterySystem",
]

#: The product-chain realisations :meth:`MultiBatterySystem.discretize`
#: can produce.
BACKENDS = ("assembled", "matrix-free", "lumped")

#: Largest CSR copy of the uniformised ``P`` (in bytes, by
#: :func:`~repro.markov.kronecker.assembled_csr_bytes` of
#: :meth:`MultiBatterySystem.estimated_nonzeros`) the ``auto`` backend
#: resolution still assembles; beyond it, non-lumpable banks go
#: matrix-free.  One CSR product beats the factor-wise apply (1.8 ms
#: against 6.5 ms on a 232,560-state bank whose ``P`` takes 16.3 MiB),
#: while the 1,062,882-state bank of ``benchmarks/bench_matrixfree.py``
#: (75.2 MiB) stays matrix-free.
ASSEMBLED_CSR_BUDGET_BYTES = 64 * 2**20


def _battery_grid(battery: KiBaMParameters, delta: float) -> RewardGrid:
    """The charge grid of one battery (1-D when ``c = 1``)."""
    return RewardGrid(
        delta=float(delta),
        upper1=battery.available_capacity,
        upper2=battery.bound_capacity,
    )


def _consumption_shift(grid: RewardGrid) -> sp.csr_matrix:
    """Unscaled down-shift ``(j1, j2) -> (j1 - 1, j2)`` over one grid's cells.

    The entries are 1; the physical rate ``w_b I_m / Delta`` is applied on
    the product space (current via the workload/phase diagonal factor,
    routing weight via a diagonal row scaling).
    """
    n1, n2 = grid.n_levels1, grid.n_levels2
    j1 = np.repeat(np.arange(1, n1, dtype=np.int64), n2)
    j2 = np.tile(np.arange(n2, dtype=np.int64), n1 - 1)
    rows = j1 * n2 + j2
    cols = (j1 - 1) * n2 + j2
    data = np.ones(rows.size)
    return sp.csr_matrix((data, (rows, cols)), shape=(grid.n_cells, grid.n_cells))


def _transfer_matrix(grid: RewardGrid, battery: KiBaMParameters) -> sp.csr_matrix:
    """Transfer transitions ``(j1, j2) -> (j1+1, j2-1)`` over one grid's cells.

    Reuses the single-battery rate computation (:func:`_transfer_rates`
    already returns ``k (h2 - h1) / Delta`` per source cell), so the
    product chain restricted to one battery matches the single-battery
    discretisation exactly.
    """
    j1, j2, rates = _transfer_rates(grid, battery.c, battery.k)
    n2 = grid.n_levels2
    rows = j1 * n2 + j2
    cols = (j1 + 1) * n2 + (j2 - 1)
    return sp.csr_matrix((rates, (rows, cols)), shape=(grid.n_cells, grid.n_cells))


def _off_diagonal(generator: FloatArray) -> FloatArray:
    """The non-negative off-diagonal part of a small dense generator."""
    off = np.asarray(generator, dtype=float).copy()
    np.fill_diagonal(off, 0.0)
    return off


@dataclass(frozen=True)
class _ProductMetadata:
    """Per-discretisation data of the product chain's Kronecker terms."""

    grids: tuple[RewardGrid, ...]
    cells: tuple[int, ...]
    n_aux: int
    failed_cells: npt.NDArray[np.bool_]
    weights: FloatArray
    currents_aux: FloatArray
    initial_distribution: FloatArray
    empty_states: IntArray


@dataclass(frozen=True)
class MultiBatterySystem:
    """A workload, a bank of KiBaM batteries, and a scheduling policy.

    Attributes
    ----------
    workload:
        The stochastic workload model shared by the whole bank.
    batteries:
        The per-battery KiBaM parameter sets (at least one).
    policy:
        The scheduling policy (an instance, or a registry name resolved via
        :func:`repro.multibattery.policies.get_policy`).
    failures_to_die:
        The ``k`` of the k-of-N depletion predicate: the system fails as
        soon as at least this many batteries are empty.  ``k = 1`` models a
        series pack (one dead cell kills the system), ``k = N`` a parallel
        bank that survives on its last battery.
    """

    workload: WorkloadModel
    batteries: tuple[KiBaMParameters, ...]
    policy: SchedulingPolicy
    failures_to_die: int

    def __post_init__(self) -> None:
        batteries = tuple(self.batteries)
        if not batteries:
            raise ValueError("a multi-battery system needs at least one battery")
        object.__setattr__(self, "batteries", batteries)
        object.__setattr__(self, "policy", get_policy(self.policy))
        k = int(self.failures_to_die)
        if not 1 <= k <= len(batteries):
            raise ValueError(
                f"failures_to_die must lie in [1, {len(batteries)}], got {k}"
            )
        object.__setattr__(self, "failures_to_die", k)

    # ------------------------------------------------------------------
    @property
    def n_batteries(self) -> int:
        """Number of batteries in the bank."""
        return len(self.batteries)

    @property
    def n_phases(self) -> int:
        """Number of phase-clock states the policy adds."""
        return self.policy.n_phases(self.n_batteries)

    @property
    def identical_batteries(self) -> bool:
        """Whether every battery of the bank has the same parameter set.

        Uses full dataclass equality, so a parameter field added to
        :class:`KiBaMParameters` later cannot silently slip past the
        lumpability check.
        """
        first = self.batteries[0]
        return all(battery == first for battery in self.batteries[1:])

    @property
    def lumpable(self) -> bool:
        """Whether the permutation-symmetry quotient (``"lumped"``) applies.

        Requires at least two *identical* batteries and a policy that is
        invariant under battery permutations and carries no phase clock --
        then states that differ only by a permutation of the per-battery
        charges behave identically and collapse exactly onto sorted charge
        multisets (see :mod:`repro.multibattery.lumping`).
        """
        n = self.n_batteries
        return (
            n >= 2
            and self.identical_batteries
            and self.policy.is_symmetric(n)
            and self.policy.n_phases(n) == 1
        )

    def estimated_states(self, delta: float) -> int:
        """Product-space size for step *delta*, without building anything."""
        cells = 1
        for battery in self.batteries:
            grid = _battery_grid(battery, delta)
            cells *= grid.n_cells
        return self.workload.n_states * self.n_phases * cells

    def estimated_nonzeros(self, delta: float) -> int:
        """Upper bound on the entries of the uniformised ``P``, without building anything.

        Each Kronecker term holds at most its factor's non-zeros once per
        state of the other axes (the absorption mask and the routing
        weights only remove entries), and ``P`` stores every diagonal
        slot.  The factor non-zeros follow from the grid sizes: a
        down-shift on ``(n1 - 1) n2`` cells, a transfer on at most
        ``(n1 - 2)(n2 - 1)``, and the workload and phase generators'
        off-diagonal entries on the aux axis.
        """
        grids = [_battery_grid(battery, delta) for battery in self.batteries]
        n_states = self.estimated_states(delta)
        n_workload = self.workload.n_states
        n_phases = self.n_phases
        workload_moves = int(np.count_nonzero(_off_diagonal(self.workload.generator)))
        phase_moves = int(
            np.count_nonzero(_off_diagonal(self.policy.phase_generator(self.n_batteries)))
        )
        aux_moves = workload_moves * n_phases + n_workload * phase_moves
        total = n_states + aux_moves * (n_states // (n_workload * n_phases))
        for grid, battery in zip(grids, self.batteries):
            n1, n2 = grid.n_levels1, grid.n_levels2
            moves = (n1 - 1) * n2
            if grid.two_dimensional and battery.k > 0.0:
                moves += max(0, n1 - 2) * (n2 - 1)
            total += moves * (n_states // grid.n_cells)
        return total

    def estimated_lumped_states(self, delta: float) -> int:
        """Quotient-chain size for step *delta* (requires :attr:`lumpable`).

        The sorted charge multisets of ``N`` identical batteries over
        ``n_cells`` grid cells number ``C(n_cells + N - 1, N)``.
        """
        if not self.lumpable:
            raise ValueError(
                "the lumped backend needs >= 2 identical batteries under a "
                "permutation-symmetric, phase-free policy"
            )
        n_cells = _battery_grid(self.batteries[0], delta).n_cells
        n = self.n_batteries
        return self.workload.n_states * math.comb(n_cells + n - 1, n)

    def resolve_backend(self, delta: float, backend: str = "auto") -> str:
        """Resolve ``"auto"`` to a concrete backend from bank symmetry and bytes.

        Identical-battery banks under a symmetric policy are lumped (the
        quotient chain is strictly smaller and exact); other banks are
        assembled while one CSR copy of ``P`` (bounded by
        :meth:`estimated_nonzeros`) fits :data:`ASSEMBLED_CSR_BUDGET_BYTES`
        and solved matrix-free beyond that.
        """
        if backend != "auto":
            if backend not in BACKENDS:
                raise ValueError(
                    f"unknown multi-battery backend {backend!r}; expected one "
                    f"of {BACKENDS + ('auto',)}"
                )
            return backend
        if self.lumpable:
            return "lumped"
        matrix_bytes = assembled_csr_bytes(
            self.estimated_nonzeros(delta), self.estimated_states(delta)
        )
        if matrix_bytes <= ASSEMBLED_CSR_BUDGET_BYTES:
            return "assembled"
        return "matrix-free"

    # ------------------------------------------------------------------
    def _product_metadata(self, delta: float) -> _ProductMetadata:
        """Everything the product chain's terms and vectors need for step *delta*."""
        workload = self.workload
        n_batteries = self.n_batteries
        grids = tuple(_battery_grid(battery, delta) for battery in self.batteries)
        cells = tuple(grid.n_cells for grid in grids)
        n_cells = int(np.prod(cells))
        n_phases = self.n_phases
        n_aux = workload.n_states * n_phases
        n_states = n_aux * n_cells

        # Per-battery charge configuration of every product cell: the cell
        # index decomposes battery-major (battery 1 outermost), mirroring
        # the Kronecker factor order (workload, phase, grid 1, ..., grid N).
        strides = np.empty(n_batteries, dtype=np.int64)
        running = 1
        for b in range(n_batteries - 1, -1, -1):
            strides[b] = running
            running *= cells[b]
        cell_index = np.arange(n_cells, dtype=np.int64)
        levels = np.empty((n_cells, n_batteries), dtype=np.int64)
        for b, grid in enumerate(grids):
            levels[:, b] = (cell_index // strides[b]) % cells[b] // grid.n_levels2
        alive = levels >= 1
        failed_cells = (~alive).sum(axis=1) >= self.failures_to_die

        weights = self.policy.routing_weights(
            levels.astype(float), alive
        )  # (n_phases, n_cells, n_batteries)
        if weights.shape != (n_phases, n_cells, n_batteries):
            raise ValueError(
                f"policy {self.policy.name!r} returned routing weights of shape "
                f"{weights.shape}, expected {(n_phases, n_cells, n_batteries)}"
            )
        currents_aux = np.repeat(np.asarray(workload.currents, dtype=float), n_phases)

        # Initial distribution: the workload's initial law, phase 0, every
        # battery at its full-charge cell.
        full_cell = 0
        for b, (grid, battery) in enumerate(zip(grids, self.batteries)):
            j1 = grid.level_of(battery.available_capacity, dimension=1)
            j2 = (
                grid.level_of(battery.bound_capacity, dimension=2)
                if grid.two_dimensional
                else 0
            )
            full_cell += (j1 * grid.n_levels2 + j2) * int(strides[b])
        initial = np.zeros(n_states)
        masses = np.asarray(workload.initial_distribution, dtype=float)
        states = np.nonzero(masses > 0.0)[0]
        initial[(states * n_phases + 0) * n_cells + full_cell] = masses[states]

        empty_states = np.nonzero(np.tile(failed_cells, n_aux))[0]

        return _ProductMetadata(
            grids=grids,
            cells=cells,
            n_aux=n_aux,
            failed_cells=failed_cells,
            weights=weights,
            currents_aux=currents_aux,
            initial_distribution=initial,
            empty_states=empty_states,
        )

    def _aux_off_diagonal(self) -> sp.csr_matrix:
        """Workload and phase transitions on the combined aux factor."""
        identity_phase = sp.identity(self.n_phases, format="csr")
        identity_workload = sp.identity(self.workload.n_states, format="csr")
        return sp.kron(
            _off_diagonal(self.workload.generator), identity_phase, format="csr"
        ) + sp.kron(
            identity_workload,
            _off_diagonal(self.policy.phase_generator(self.n_batteries)),
            format="csr",
        )

    # ------------------------------------------------------------------
    def discretize(
        self, delta: float, backend: str = "assembled"
    ) -> "DiscretizedMultiBatterySystem":
        """Build the product-space CTMC for step size *delta* (As).

        *backend* selects the realisation (see the module docstring):
        ``"assembled"`` and ``"matrix-free"`` (both the Kronecker operator;
        the chain's ``backend`` tells the propagator whether to assemble
        ``P``), ``"lumped"`` (the exact symmetry quotient; its own state
        space and result type), or ``"auto"`` (resolved via
        :meth:`resolve_backend`).
        """
        delta = float(delta)
        if not math.isfinite(delta) or delta <= 0:
            raise ValueError("the step size delta must be positive and finite")
        backend = self.resolve_backend(delta, backend)
        if backend == "lumped":
            from repro.multibattery.lumping import discretize_lumped

            return discretize_lumped(self, delta)
        metadata = self._product_metadata(delta)
        chain = DiscretizedMultiBatterySystem(
            system=self,
            grids=metadata.grids,
            generator=self._kronecker_generator(metadata, delta),
            initial_distribution=metadata.initial_distribution,
            empty_states=metadata.empty_states,
            failed_cells=metadata.failed_cells,
            backend=backend,
        )
        check_chain(chain)
        return chain

    def _kronecker_generator(
        self, metadata: _ProductMetadata, delta: float
    ) -> KroneckerGenerator:
        """The product chain's generator as Kronecker terms.

        One :class:`~repro.markov.kronecker.KroneckerTerm` per transition
        family: the workload/phase transitions on the aux factor, each
        battery's transfer and consumption on its grid factor.  The
        state-dependent rates (k-of-N absorption mask, per-state currents,
        routing weights) are broadcastable per-axis-group scalings -- the
        active/weight masks live on the joint cell axes, the current on
        the aux axis.  Phase-dependent routing (round-robin) splits the
        consumption of a battery into one term per phase, keeping every
        scaling a product of an aux vector and a cell-space array.  The
        matrix-free backend applies these terms as they are; the assembled
        backend writes its ``P`` from them
        (:meth:`~KroneckerGenerator.uniformized_csr`).
        """
        dims = (metadata.n_aux,) + metadata.cells
        cell_shape = (1,) + metadata.cells
        n_phases = self.n_phases
        active_cells = (~metadata.failed_cells).astype(float).reshape(cell_shape)

        terms: list[KroneckerTerm] = []
        aux_off = self._aux_off_diagonal()
        if aux_off.nnz:
            terms.append(KroneckerTerm(factors=((0, aux_off),), scales=(active_cells,)))

        for b, (grid, battery) in enumerate(zip(metadata.grids, self.batteries)):
            transfer = _transfer_matrix(grid, battery)
            if transfer.nnz:
                terms.append(
                    KroneckerTerm(factors=((b + 1, transfer),), scales=(active_cells,))
                )

        if np.any(metadata.currents_aux > 0.0):
            aux_index = np.arange(metadata.n_aux)
            for b, grid in enumerate(metadata.grids):
                shift = _consumption_shift(grid)
                if shift.nnz == 0:
                    continue
                for phase in range(n_phases):
                    weight_cells = (
                        metadata.weights[phase, :, b] * (~metadata.failed_cells)
                    )
                    if not np.any(weight_cells > 0.0):
                        continue
                    current_scale = np.where(
                        aux_index % n_phases == phase,
                        metadata.currents_aux / delta,
                        0.0,
                    ).reshape((metadata.n_aux,) + (1,) * len(metadata.cells))
                    terms.append(
                        KroneckerTerm(
                            factors=((b + 1, shift),),
                            scales=(current_scale, weight_cells.reshape(cell_shape)),
                        )
                    )

        # Construction-time validation catches e.g. a policy emitting
        # negative routing weights; the checks scan only the factor
        # matrices and scaling arrays, never the product space.
        return KroneckerGenerator(dims, terms)


@dataclass(frozen=True)
class DiscretizedMultiBatterySystem:
    """The product-space CTMC of a multi-battery system.

    Exposes the same surface as
    :class:`~repro.core.discretization.DiscretizedKiBaMRM` (``generator``,
    ``initial_distribution``, ``empty_states``, ``n_states``,
    ``n_nonzero``), so the engine's workspace, propagator caching and
    batched solves apply unchanged; ``empty_states`` holds the
    *system-failed* absorbing states of the k-of-N predicate.  The
    ``generator`` is the :class:`~repro.markov.kronecker.KroneckerGenerator`
    for both backends; ``backend`` tells the propagator whether to
    assemble ``P`` as CSR (``"assembled"``) or apply it factor-wise
    (``"matrix-free"``).  ``n_nonzero`` is the operator's implied count,
    so size diagnostics are backend-uniform.
    """

    system: MultiBatterySystem
    grids: tuple[RewardGrid, ...]
    generator: KroneckerGenerator
    initial_distribution: FloatArray
    empty_states: IntArray
    failed_cells: npt.NDArray[np.bool_]
    backend: str = "assembled"

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of product-space states."""
        return int(self.generator.shape[0])

    @property
    def n_nonzero(self) -> int:
        """Number of non-zero generator entries (including the diagonal).

        The size the *assembled* generator would have (the operator's
        implied count); the operator itself holds only the diagonal, the
        factor matrices and the scalings.
        """
        return int(self.generator.nnz)
