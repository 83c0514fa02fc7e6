"""Construction of the expanded CTMC ``Q*`` (Section 5 of the paper).

The Markovian approximation turns the reward-inhomogeneous KiBaMRM -- a
CTMC workload whose two accumulated rewards are the charges of the KiBaM's
available and bound wells (Section 4.2) -- into a plain CTMC.  For one
battery the state space is

.. math::

    S^* = S \\times \\{0, \\dots, u_1/\\Delta\\} \\times \\{0, \\dots, u_2/\\Delta\\},

where a state ``(i, j1, j2)`` means "workload state ``i``, available charge
in ``(j1 Delta, (j1+1) Delta]``, bound charge in ``(j2 Delta, (j2+1) Delta]``".
A bank of ``N`` batteries under a scheduling policy (see
:mod:`repro.multibattery`) multiplies in one such charge grid per battery
and the policy's optional phase clock; a single battery is the bank of one
under ``static-split`` with ``failures_to_die = 1``, and :func:`discretize`
builds both.  Three families of transitions populate ``Q*``:

* **workload transitions** copied from the workload generator (and the
  policy's phase transitions), at every charge level,
* **consumption transitions** ``(i, j1, j2) -> (i, j1-1, j2)`` of battery
  ``b`` with rate ``w_b I_i / Delta`` (the available well loses one charge
  quantum; the policy's routing weight ``w_b`` is 1 for a single battery),
* **transfer transitions** ``(i, j1, j2) -> (i, j1+1, j2-1)`` with rate
  ``k (h2 - h1) / Delta = k (j2/(1-c) - j1/c)`` whenever the bound well is
  higher than the available well (one charge quantum moves between wells).

A battery with ``j1 = 0`` is empty; the states where at least
``failures_to_die`` batteries are empty are absorbing.  Each family is one
:class:`~repro.markov.kronecker.KroneckerTerm` per battery on that
battery's grid factor, so the generator is a
:class:`~repro.markov.kronecker.KroneckerGenerator`: applied factor-wise by
the ``"matrix-free"`` backend, or written straight into the CSR of the
uniformised ``P = I + Q/q`` by the ``"assembled"`` one
(:meth:`~repro.markov.kronecker.KroneckerGenerator.uniformized_csr`), which
every single battery uses.  Realistic step sizes yield chains with
``10^5``--``10^6`` states, so the construction is vectorised numpy index
arithmetic over the factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.core.grid import RewardGrid
from repro.markov.kronecker import KroneckerGenerator, KroneckerTerm
from repro.markov.validate import check_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.battery.parameters import KiBaMParameters
    from repro.checking import FloatArray, IntArray
    from repro.multibattery.system import MultiBatterySystem

__all__ = [
    "DiscretizedMultiBatterySystem",
    "discretize",
    "place_initial_distribution",
]


@dataclass(frozen=True)
class DiscretizedMultiBatterySystem:
    """The expanded CTMC of a battery bank (a single battery is a bank of one).

    ``empty_states`` holds the *system-failed* absorbing states of the
    k-of-N predicate.  The ``generator`` is the
    :class:`~repro.markov.kronecker.KroneckerGenerator` for both backends;
    ``backend`` tells the propagator whether to assemble ``P`` as CSR
    (``"assembled"``) or apply it factor-wise (``"matrix-free"``).
    ``n_nonzero`` is the operator's implied count, so size diagnostics are
    backend-uniform.
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
        """Number of states of the expanded CTMC."""
        return int(self.generator.shape[0])

    @property
    def n_nonzero(self) -> int:
        """Number of non-zero generator entries (including the diagonal).

        The size the *assembled* generator would have (the operator's
        implied count); the operator itself holds only the diagonal, the
        factor matrices and the scalings.
        """
        return int(self.generator.nnz)


def place_initial_distribution(grid: RewardGrid, workload, available: float, bound: float) -> np.ndarray:
    """Place the workload's initial law at the given charge levels.

    Returns the initial probability vector over a single battery's
    expanded state space: each workload state's mass is put at the grid
    cell containing ``(available, bound)``.  The engine's batched solves
    use it to start the *same* chain at different charge levels (capacity
    sweeps over transfer-free batteries).
    """
    j1 = grid.level_of(available, dimension=1)
    j2 = grid.level_of(bound, dimension=2) if grid.two_dimensional else 0
    initial = np.zeros(grid.n_expanded_states(workload.n_states))
    masses = np.asarray(workload.initial_distribution, dtype=float)
    states = np.nonzero(masses > 0.0)[0]
    np.add.at(initial, grid.flat_index(states, j1, j2), masses[states])
    return initial


def _battery_grid(battery: KiBaMParameters, delta: float) -> RewardGrid:
    """The charge grid of one battery (1-D when ``c = 1``)."""
    return RewardGrid(
        delta=float(delta),
        upper1=battery.available_capacity,
        upper2=battery.bound_capacity,
    )


def _off_diagonal(generator: FloatArray) -> FloatArray:
    """The non-negative off-diagonal part of a small dense generator."""
    off = np.asarray(generator, dtype=float).copy()
    np.fill_diagonal(off, 0.0)
    return off


def _transfer_rates(grid: RewardGrid, c: float, k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (level1, level2, rate) triples of all positive transfer transitions."""
    if not grid.two_dimensional or k <= 0.0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    # Source levels: j1 in [1, n1-2] (the target j1+1 must exist and j1 = 0 is
    # absorbing), j2 in [1, n2-1] (the target j2-1 must exist).
    level1 = np.arange(1, grid.n_levels1 - 1, dtype=np.int64)
    level2 = np.arange(1, grid.n_levels2, dtype=np.int64)
    if level1.size == 0 or level2.size == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    rates = k * (level2[None, :] / (1.0 - c) - level1[:, None] / c)
    positive = rates > 0.0
    shape = (level1.size, level2.size)
    j1_mesh = np.broadcast_to(level1[:, None], shape)
    j2_mesh = np.broadcast_to(level2[None, :], shape)
    return j1_mesh[positive], j2_mesh[positive], rates[positive]


def _transfer_matrix(grid: RewardGrid, battery: KiBaMParameters) -> sp.csr_matrix:
    """Transfer transitions ``(j1, j2) -> (j1+1, j2-1)`` over one grid's cells."""
    j1, j2, rates = _transfer_rates(grid, battery.c, battery.k)
    n2 = grid.n_levels2
    rows = j1 * n2 + j2
    cols = (j1 + 1) * n2 + (j2 - 1)
    return sp.csr_matrix((rates, (rows, cols)), shape=(grid.n_cells, grid.n_cells))


def _consumption_shift(grid: RewardGrid) -> sp.csr_matrix:
    """Unscaled down-shift ``(j1, j2) -> (j1 - 1, j2)`` over one grid's cells.

    The entries are 1; the physical rate ``w_b I_i / Delta`` is applied on
    the product space (current via the workload/phase diagonal factor,
    routing weight via a diagonal row scaling).
    """
    return sp.eye(grid.n_cells, k=-grid.n_levels2, format="csr")


def _kronecker_generator(
    system: MultiBatterySystem,
    grids: tuple[RewardGrid, ...],
    failed_cells: npt.NDArray[np.bool_],
    weights: FloatArray,
    delta: float,
) -> KroneckerGenerator:
    """The chain's generator as Kronecker terms: the one place ``Q*`` is written.

    One :class:`~repro.markov.kronecker.KroneckerTerm` per transition
    family: the workload/phase transitions on the aux factor, each
    battery's transfer and consumption on its grid factor.  The
    state-dependent rates (k-of-N absorption mask, per-state currents,
    routing weights) are broadcastable per-axis-group scalings -- the
    active/weight masks live on the joint cell axes, the current on the
    aux axis.  Phase-dependent routing (round-robin) splits the
    consumption of a battery into one term per phase, keeping every
    scaling a product of an aux vector and a cell-space array.
    """
    workload = system.workload
    n_phases = system.n_phases
    n_aux = workload.n_states * n_phases
    cells = tuple(grid.n_cells for grid in grids)
    cell_shape = (1,) + cells
    active = ~failed_cells
    active_cells = active.astype(float).reshape(cell_shape)

    terms: list[KroneckerTerm] = []
    # Workload and phase moves on the (small, dense) combined aux factor.
    aux_off = sp.csr_matrix(
        np.kron(_off_diagonal(workload.generator), np.eye(n_phases))
        + np.kron(
            np.eye(workload.n_states),
            _off_diagonal(system.policy.phase_generator(system.n_batteries)),
        )
    )
    if aux_off.nnz:
        terms.append(KroneckerTerm(factors=((0, aux_off),), scales=(active_cells,)))

    for b, (grid, battery) in enumerate(zip(grids, system.batteries)):
        transfer = _transfer_matrix(grid, battery)
        if transfer.nnz:
            terms.append(KroneckerTerm(factors=((b + 1, transfer),), scales=(active_cells,)))

    currents_aux = np.repeat(np.asarray(workload.currents, dtype=float), n_phases)
    if np.any(currents_aux > 0.0):
        aux_index = np.arange(n_aux)
        for b, grid in enumerate(grids):
            shift = _consumption_shift(grid)
            if shift.nnz == 0:
                continue
            for phase in range(n_phases):
                weight_cells = weights[phase, :, b] * active
                if not np.any(weight_cells > 0.0):
                    continue
                current_scale = np.where(
                    aux_index % n_phases == phase, currents_aux / delta, 0.0
                ).reshape((n_aux,) + (1,) * len(cells))
                terms.append(
                    KroneckerTerm(
                        factors=((b + 1, shift),),
                        scales=(current_scale, weight_cells.reshape(cell_shape)),
                    )
                )

    # Construction-time validation catches e.g. a policy emitting negative
    # routing weights; the checks scan only the factor matrices and scaling
    # arrays, never the product space.
    return KroneckerGenerator((n_aux,) + cells, terms)


def discretize(
    system: MultiBatterySystem, delta: float, backend: str = "assembled"
) -> DiscretizedMultiBatterySystem:
    """Build the expanded CTMC ``Q*`` of *system* for step size *delta* (As).

    Each battery's grid covers its available-charge well up to ``c C`` and,
    unless ``c = 1``, its bound-charge well up to ``(1 - c) C``.  *backend*
    (``"assembled"`` or ``"matrix-free"``) is recorded on the chain for
    the propagator; the lumped quotient is
    :func:`~repro.multibattery.lumping.discretize_lumped`.
    """
    workload = system.workload
    n_batteries = system.n_batteries
    grids = tuple(_battery_grid(battery, delta) for battery in system.batteries)
    cells = tuple(grid.n_cells for grid in grids)
    n_cells = int(np.prod(cells))
    n_phases = system.n_phases
    n_aux = workload.n_states * n_phases

    # Per-battery charge configuration of every product cell: the cell
    # index decomposes battery-major (battery 1 outermost), mirroring the
    # Kronecker factor order (workload, phase, grid 1, ..., grid N).
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
    failed_cells = (~alive).sum(axis=1) >= system.failures_to_die

    weights = system.policy.routing_weights(
        levels.astype(float), alive
    )  # (n_phases, n_cells, n_batteries)
    if weights.shape != (n_phases, n_cells, n_batteries):
        raise ValueError(
            f"policy {system.policy.name!r} returned routing weights of shape "
            f"{weights.shape}, expected {(n_phases, n_cells, n_batteries)}"
        )
    # The per-cell configuration arrays are the size of the joint cell
    # space: free them before the generator allocates its own.
    del cell_index, levels, alive

    # Initial distribution: the workload's initial law, phase 0, every
    # battery at its full-charge cell.
    full_cell = 0
    for b, (grid, battery) in enumerate(zip(grids, system.batteries)):
        j1 = grid.level_of(battery.available_capacity, dimension=1)
        j2 = grid.level_of(battery.bound_capacity, dimension=2) if grid.two_dimensional else 0
        full_cell += (j1 * grid.n_levels2 + j2) * int(strides[b])
    initial = np.zeros(n_aux * n_cells)
    masses = np.asarray(workload.initial_distribution, dtype=float)
    states = np.nonzero(masses > 0.0)[0]
    initial[states * n_phases * n_cells + full_cell] = masses[states]

    chain = DiscretizedMultiBatterySystem(
        system=system,
        grids=grids,
        generator=_kronecker_generator(system, grids, failed_cells, weights, delta),
        initial_distribution=initial,
        empty_states=np.nonzero(np.tile(failed_cells, n_aux))[0],
        failed_cells=failed_cells,
        backend=backend,
    )
    check_chain(chain)
    return chain
