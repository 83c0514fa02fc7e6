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

* ``"assembled"`` -- sparse Kronecker products merged into one CSR matrix
  (:func:`repro.markov.kron_chain`), the PR 4 construction; memory and
  assembly time grow with the product-space size.
* ``"matrix-free"`` -- a
  :class:`~repro.markov.kronecker.KroneckerGenerator` operator that
  applies ``v @ Q`` factor-wise and never materialises the product CSR,
  unlocking banks whose assembled generator would not fit in memory.
* ``"lumped"`` -- for banks of *identical* batteries under a
  permutation-symmetric policy, the exact quotient chain over sorted
  charge multisets (:mod:`repro.multibattery.lumping`), shrinking the
  state space by up to ``N!``.

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
from repro.markov.generator import kron_chain
from repro.markov.kronecker import KroneckerGenerator, KroneckerTerm
from repro.markov.validate import check_chain
from repro.multibattery.policies import SchedulingPolicy, get_policy
from repro.workload.base import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.checking import FloatArray, IntArray

__all__ = [
    "BACKENDS",
    "DEFAULT_ASSEMBLED_STATE_LIMIT",
    "DiscretizedMultiBatterySystem",
    "MultiBatterySystem",
]

#: The product-chain realisations :meth:`MultiBatterySystem.discretize`
#: can produce.
BACKENDS = ("assembled", "matrix-free", "lumped")

#: Largest product space the ``auto`` backend resolution still assembles as
#: CSR; beyond it, non-lumpable banks go matrix-free.  Matches the ``auto``
#: solver dispatch limit for single-battery chains: up to this size the
#: assembled matrix is cheap enough that its faster per-iteration sparse
#: products win.
DEFAULT_ASSEMBLED_STATE_LIMIT = 200_000


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
    """Shared per-discretisation data of the assembled and matrix-free paths."""

    grids: tuple[RewardGrid, ...]
    cells: tuple[int, ...]
    strides: IntArray
    n_aux: int
    n_cells: int
    n_states: int
    levels: IntArray
    alive: npt.NDArray[np.bool_]
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
        """Resolve ``"auto"`` to a concrete backend from bank size and symmetry.

        Identical-battery banks under a symmetric policy are lumped (the
        quotient chain is strictly smaller and exact); other banks are
        assembled while the product space stays within
        :data:`DEFAULT_ASSEMBLED_STATE_LIMIT` states and solved matrix-free
        beyond that.
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
        if self.estimated_states(delta) <= DEFAULT_ASSEMBLED_STATE_LIMIT:
            return "assembled"
        return "matrix-free"

    # ------------------------------------------------------------------
    def _product_metadata(self, delta: float) -> _ProductMetadata:
        """Everything both product-space backends share for step *delta*."""
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
            strides=strides,
            n_aux=n_aux,
            n_cells=n_cells,
            n_states=n_states,
            levels=levels,
            alive=alive,
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
        ``"assembled"`` (CSR), ``"matrix-free"`` (operator), ``"lumped"``
        (the exact symmetry quotient; its own state space and result
        type), or ``"auto"`` (resolved via :meth:`resolve_backend`).
        """
        delta = float(delta)
        if not math.isfinite(delta) or delta <= 0:
            raise ValueError("the step size delta must be positive and finite")
        backend = self.resolve_backend(delta, backend)
        if backend == "lumped":
            from repro.multibattery.lumping import discretize_lumped

            return discretize_lumped(self, delta)
        metadata = self._product_metadata(delta)
        if backend == "matrix-free":
            generator = self._matrix_free_generator(metadata, delta)
        else:
            generator = self._assembled_generator(metadata, delta)
        chain = DiscretizedMultiBatterySystem(
            system=self,
            grids=metadata.grids,
            generator=generator,
            initial_distribution=metadata.initial_distribution,
            empty_states=metadata.empty_states,
            levels=metadata.levels,
            failed_cells=metadata.failed_cells,
            backend=backend,
        )
        check_chain(chain)
        return chain

    def _assembled_generator(
        self, metadata: _ProductMetadata, delta: float
    ) -> sp.csr_matrix:
        """Merge the Kronecker structure into one CSR generator."""
        workload = self.workload
        grids = metadata.grids
        identities = [sp.identity(size, format="csr") for size in metadata.cells]
        n_phases = self.n_phases

        # 1. Workload and phase transitions: local to the aux factors.
        off_diagonal = kron_chain([self._aux_off_diagonal()] + identities)

        # 2. Transfer transitions: local to one battery's grid factor.
        identity_aux = sp.identity(metadata.n_aux, format="csr")
        for b, (grid, battery) in enumerate(zip(grids, self.batteries)):
            transfer = _transfer_matrix(grid, battery)
            if transfer.nnz == 0:
                continue
            factors = [identity_aux] + identities[:b] + [transfer] + identities[b + 1 :]
            off_diagonal = off_diagonal + kron_chain(factors)

        # 3. Consumption transitions: current on the aux diagonal, a
        #    down-shift on battery b's grid factor, and the policy's routing
        #    weight as a diagonal row scaling over the full product space.
        if np.any(metadata.currents_aux > 0.0):
            current_factor = sp.diags(metadata.currents_aux / delta).tocsr()
            for b, grid in enumerate(grids):
                shift = _consumption_shift(grid)
                factors = [current_factor] + identities[:b] + [shift] + identities[b + 1 :]
                lifted = kron_chain(factors)
                # Routing weight of battery b for product state (i, p, cell):
                # rows are aux-major, aux = i * n_phases + p, so the phase
                # pattern tiles over the workload states.
                weight_rows = np.tile(
                    metadata.weights[:, :, b], (workload.n_states, 1)
                ).ravel()
                if not np.any(weight_rows > 0.0):
                    continue
                off_diagonal = off_diagonal + sp.diags(weight_rows) @ lifted

        # Failed states are absorbing: zero their rows (workload, phase,
        # transfer and consumption alike), mirroring the single-battery
        # convention that empty states freeze entirely.
        active_rows = np.tile(~metadata.failed_cells, metadata.n_aux).astype(float)
        off_diagonal = (sp.diags(active_rows) @ off_diagonal).tocsr()
        off_diagonal.eliminate_zeros()
        row_sums = np.asarray(off_diagonal.sum(axis=1)).ravel()
        return (off_diagonal + sp.diags(-row_sums)).tocsr()

    def _matrix_free_generator(
        self, metadata: _ProductMetadata, delta: float
    ) -> KroneckerGenerator:
        """The same transition structure as a factor-wise operator.

        Every assembled summand maps onto one
        :class:`~repro.markov.kronecker.KroneckerTerm`: the small factor
        matrices are identical, and the full-space diagonal scalings
        (k-of-N absorption mask, per-state currents, routing weights)
        become broadcastable per-axis-group scalings -- the active/weight
        masks live on the joint cell axes, the current on the aux axis.
        Phase-dependent routing (round-robin) splits the consumption of a
        battery into one term per phase, keeping every scaling a product
        of an aux vector and a cell-space array.
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

        # Construction-time validation keeps parity with the assembled
        # backend, whose TransientPropagator validation would catch e.g. a
        # buggy custom policy emitting negative routing weights; the checks
        # scan only the factor matrices and scaling arrays, never the
        # product space.
        return KroneckerGenerator(dims, terms, validate=True)


@dataclass(frozen=True)
class DiscretizedMultiBatterySystem:
    """The product-space CTMC of a multi-battery system.

    Exposes the same surface as
    :class:`~repro.core.discretization.DiscretizedKiBaMRM` (``generator``,
    ``initial_distribution``, ``empty_states``, ``n_states``,
    ``n_nonzero``), so the engine's workspace, propagator caching and
    batched solves apply unchanged; ``empty_states`` holds the
    *system-failed* absorbing states of the k-of-N predicate.  The
    ``generator`` is a CSR matrix for the assembled backend and a
    :class:`~repro.markov.kronecker.KroneckerGenerator` for the
    matrix-free backend; both expose ``shape``, ``diagonal()`` and ``nnz``
    (implied, for the operator), so all downstream size and rate
    diagnostics are backend-uniform.
    """

    system: MultiBatterySystem
    grids: tuple[RewardGrid, ...]
    generator: sp.csr_matrix | KroneckerGenerator
    initial_distribution: FloatArray
    empty_states: IntArray
    levels: IntArray
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

        For the matrix-free backend this is the size the *assembled*
        generator would have -- the operator's memory footprint is the
        diagonal plus the factor matrices and scalings.
        """
        return int(self.generator.nnz)

    @property
    def n_cells(self) -> int:
        """Number of joint charge configurations (product of the grids)."""
        return int(self.levels.shape[0])

    @property
    def uniformization_rate(self) -> float:
        """Maximal exit rate of the product chain (before the safety factor)."""
        return float(np.max(-self.generator.diagonal(), initial=0.0))

    def empty_probability(
        self, distributions: npt.ArrayLike
    ) -> FloatArray | float:
        """Sum the probability mass of the system-failed states."""
        distributions = np.asarray(distributions)
        if distributions.ndim == 1:
            return float(distributions[self.empty_states].sum())
        return distributions[:, self.empty_states].sum(axis=1)

    def battery_alive_probability(
        self, distribution: npt.ArrayLike, battery: int
    ) -> float:
        """Probability that battery *battery* still holds available charge."""
        distribution = np.asarray(distribution, dtype=float)
        n_aux = self.n_states // self.n_cells
        by_cell = distribution.reshape(n_aux, self.n_cells).sum(axis=0)
        return float(by_cell[self.levels[:, battery] >= 1].sum())
