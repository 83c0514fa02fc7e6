"""Construction of the expanded CTMC ``Q*`` (Section 5 of the paper).

The Markovian approximation turns the reward-inhomogeneous KiBaMRM into a
plain CTMC over the state space

.. math::

    S^* = S \\times \\{0, \\dots, u_1/\\Delta\\} \\times \\{0, \\dots, u_2/\\Delta\\},

where a state ``(i, j1, j2)`` means "workload state ``i``, available charge
in ``(j1 Delta, (j1+1) Delta]``, bound charge in ``(j2 Delta, (j2+1) Delta]``".
Three families of transitions populate the generator ``Q*``:

* **workload transitions** copied from the original generator (evaluated at
  the current reward levels, which for the battery models of the paper do
  not actually depend on the levels),
* **consumption transitions** ``(i, j1, j2) -> (i, j1-1, j2)`` with rate
  ``I_i / Delta`` (the available well loses one charge quantum),
* **transfer transitions** ``(i, j1, j2) -> (i, j1+1, j2-1)`` with rate
  ``k (h2 - h1) / Delta = k (j2/(1-c) - j1/c)`` whenever the bound well is
  higher than the available well (one charge quantum moves between wells).

States with ``j1 = 0`` represent an empty battery and are absorbing.  The
whole construction is vectorised with numpy index arithmetic and produces a
``scipy.sparse`` matrix, since realistic step sizes yield chains with
``10^5``--``10^6`` states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.grid import RewardGrid
from repro.core.kibamrm import KiBaMRM
from repro.markov.validate import check_chain

__all__ = ["DiscretizedKiBaMRM", "discretize", "place_initial_distribution"]


@dataclass(frozen=True)
class DiscretizedKiBaMRM:
    """The expanded CTMC produced by the Markovian approximation.

    Attributes
    ----------
    model:
        The KiBaMRM that was discretised.
    grid:
        The reward grid (step size and level counts).
    generator:
        Sparse generator matrix ``Q*`` (CSR).
    initial_distribution:
        Initial probability vector over the expanded state space (the
        workload's initial distribution placed at the full-battery levels).
    empty_states:
        Indices of all absorbing "battery empty" states (``j1 = 0``).
    """

    model: KiBaMRM
    grid: RewardGrid
    generator: sp.csr_matrix
    initial_distribution: np.ndarray
    empty_states: np.ndarray

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of states of the expanded CTMC."""
        return self.generator.shape[0]

    @property
    def n_nonzero(self) -> int:
        """Number of non-zero entries of ``Q*`` (including the diagonal)."""
        return int(self.generator.nnz)


def place_initial_distribution(grid: RewardGrid, workload, available: float, bound: float) -> np.ndarray:
    """Place the workload's initial law at the given charge levels.

    Returns the initial probability vector over the expanded state space:
    each workload state's mass is put at the grid cell containing
    ``(available, bound)``.  Shared by :func:`discretize` and by the
    engine's batched solves, which start the *same* chain at different
    charge levels (capacity sweeps over transfer-free batteries).
    """
    j1 = grid.level_of(available, dimension=1)
    j2 = grid.level_of(bound, dimension=2) if grid.two_dimensional else 0
    initial = np.zeros(grid.n_expanded_states(workload.n_states))
    masses = np.asarray(workload.initial_distribution, dtype=float)
    states = np.nonzero(masses > 0.0)[0]
    np.add.at(initial, grid.flat_index(states, j1, j2), masses[states])
    return initial


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


def discretize(model: KiBaMRM, delta: float) -> DiscretizedKiBaMRM:
    """Build the expanded CTMC ``Q*`` for the given step size *delta* (in As).

    The grid covers the available-charge well up to ``c C`` and, unless
    ``c = 1``, the bound-charge well up to ``(1 - c) C``.
    """
    upper1, upper2 = model.reward_bounds
    grid = RewardGrid(delta=float(delta), upper1=upper1, upper2=upper2)

    workload = model.workload
    n_workload = workload.n_states
    n1 = grid.n_levels1
    n2 = grid.n_levels2
    n_expanded = grid.n_expanded_states(n_workload)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    # Non-absorbing grid cells: every (j1, j2) with j1 >= 1.
    j1_mesh, j2_mesh = np.meshgrid(
        np.arange(1, n1, dtype=np.int64), np.arange(n2, dtype=np.int64), indexing="ij"
    )
    j1_flat = j1_mesh.ravel()
    j2_flat = j2_mesh.ravel()

    # 1. Workload transitions (copied at every non-absorbing reward level).
    #    All positive off-diagonal rates at once: broadcasting the (source,
    #    target) pairs against the grid cells replaces the former per-pair
    #    Python loop, so model construction no longer dominates small-delta
    #    builds.
    off_diag = np.asarray(workload.generator, dtype=float).copy()
    np.fill_diagonal(off_diag, 0.0)
    sources, targets = np.nonzero(off_diag > 0.0)
    if sources.size > 0:
        rows.append(grid.flat_index(sources[:, None], j1_flat[None, :], j2_flat[None, :]).ravel())
        cols.append(grid.flat_index(targets[:, None], j1_flat[None, :], j2_flat[None, :]).ravel())
        vals.append(np.repeat(off_diag[sources, targets], j1_flat.size))

    # 2. Consumption transitions: one charge quantum leaves the available well.
    currents = np.asarray(workload.currents, dtype=float)
    drawing = np.nonzero(currents > 0.0)[0]
    if drawing.size > 0:
        rows.append(grid.flat_index(drawing[:, None], j1_flat[None, :], j2_flat[None, :]).ravel())
        cols.append(grid.flat_index(drawing[:, None], j1_flat[None, :] - 1, j2_flat[None, :]).ravel())
        vals.append(np.repeat(currents[drawing] / grid.delta, j1_flat.size))

    # 3. Transfer transitions: one charge quantum moves from the bound to the
    #    available well.  The rate k (h2 - h1) / Delta = k (j2/(1-c) - j1/c)
    #    does not depend on the workload state.
    transfer_j1, transfer_j2, transfer_rate = _transfer_rates(grid, model.battery.c, model.battery.k)
    if transfer_j1.size > 0:
        states = np.arange(n_workload, dtype=np.int64)
        rows.append(grid.flat_index(states[:, None], transfer_j1[None, :], transfer_j2[None, :]).ravel())
        cols.append(grid.flat_index(states[:, None], transfer_j1[None, :] + 1, transfer_j2[None, :] - 1).ravel())
        vals.append(np.tile(transfer_rate, n_workload))

    if rows:
        row_array = np.concatenate(rows)
        col_array = np.concatenate(cols)
        val_array = np.concatenate(vals)
    else:
        row_array = np.empty(0, dtype=np.int64)
        col_array = np.empty(0, dtype=np.int64)
        val_array = np.empty(0)

    off_diagonal = sp.coo_matrix(
        (val_array, (row_array, col_array)), shape=(n_expanded, n_expanded)
    ).tocsr()
    row_sums = np.asarray(off_diagonal.sum(axis=1)).ravel()
    expanded_generator = (off_diagonal + sp.diags(-row_sums)).tocsr()

    # Initial distribution: the workload's initial distribution placed at the
    # levels containing the full-battery rewards.
    available0, bound0 = model.initial_rewards
    initial = place_initial_distribution(grid, workload, available0, bound0)

    # Absorbing empty states: every (i, 0, j2).
    states_mesh, j2_empty = np.meshgrid(
        np.arange(n_workload, dtype=np.int64), np.arange(n2, dtype=np.int64), indexing="ij"
    )
    empty_states = grid.flat_index(states_mesh.ravel(), 0, j2_empty.ravel())

    chain = DiscretizedKiBaMRM(
        model=model,
        grid=grid,
        generator=expanded_generator,
        initial_distribution=initial,
        empty_states=np.sort(empty_states),
    )
    check_chain(chain)
    return chain
