"""Exact permutation-symmetry lumping of identical-battery product chains.

A bank of ``N`` *identical* batteries under a permutation-symmetric,
phase-free scheduling policy (equal ``static-split``, ``best-of``) has a
product chain that is invariant under every permutation of the battery
axes: permuting the per-battery charges permutes the transition rates, the
routing weights, the k-of-N failure predicate and the (symmetric) initial
state alike.  The orbits of that symmetry group -- **sorted multisets** of
per-battery grid cells -- therefore form an exactly (strongly) lumpable
partition: every state of an orbit has the same aggregate transition rate
into each other orbit, so the quotient chain reproduces the transient law
of the full chain *exactly*, not approximately.

The quotient shrinks the ``n_cells^N`` joint charge configurations to
``C(n_cells + N - 1, N)`` multisets -- approaching an ``N!``-fold
reduction -- and the per-state exit rates are preserved, so the lumped
chain also uniformises at the same rate (identical Poisson windows, hence
bit-comparable truncation behaviour).

Construction is fully vectorised: configurations are enumerated as sorted
tuples, ranked in colexicographic order via a binomial table (so target
lookups after a single-battery transition are pure index arithmetic), and
the three transition families of the product chain (workload, transfer,
consumption) are emitted per *battery slot* with the slot's multiplicity
folded into the rate -- the lumped rate of moving one of ``m`` batteries
sharing a grid cell is ``m`` times the single-battery rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro.core.discretization import _battery_grid, _off_diagonal, _transfer_rates
from repro.core.grid import RewardGrid
from repro.markov.validate import check_chain

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.checking import FloatArray, IntArray

__all__ = [
    "LumpedMultiBatterySystem",
    "discretize_lumped",
    "enumerate_configurations",
    "multiset_count",
]


def multiset_count(n_cells: int, n_batteries: int) -> int:
    """Number of sorted multisets of *n_batteries* cells out of *n_cells*."""
    return math.comb(n_cells + n_batteries - 1, n_batteries)


def enumerate_configurations(n_cells: int, n_batteries: int) -> IntArray:
    """All sorted (ascending) charge configurations, shape ``(M, N)``.

    The rows are emitted in lexicographic order, which doubles as the
    state order of the lumped chain's configuration axis.
    """
    configs = np.fromiter(
        (
            cell
            for combo in combinations_with_replacement(range(n_cells), n_batteries)
            for cell in combo
        ),
        dtype=np.int64,
        count=multiset_count(n_cells, n_batteries) * n_batteries,
    )
    return configs.reshape(-1, n_batteries)


def _colex_ranks(configs: IntArray, binomial: IntArray) -> IntArray:
    """Colexicographic rank of each sorted configuration row.

    Mapping a sorted multiset ``c_0 <= ... <= c_{N-1}`` to the strictly
    increasing combination ``a_b = c_b + b`` gives the standard bijection
    onto plain combinations, whose colex rank is ``sum_b C(a_b, b + 1)``.
    Ranks are a bijection onto ``[0, C(n_cells + N - 1, N))``, so one
    inverse permutation turns them into configuration indices.
    """
    offsets = np.arange(configs.shape[1], dtype=np.int64)
    lifted = configs + offsets
    return binomial[lifted, offsets + 1].sum(axis=1)


def _binomial_table(n_max: int, k_max: int) -> IntArray:
    """Pascal-triangle table ``C(n, k)`` for ``n <= n_max``, ``k <= k_max``."""
    table = np.zeros((n_max + 1, k_max + 1), dtype=np.int64)
    table[:, 0] = 1
    for n in range(1, n_max + 1):
        upper = min(n, k_max)
        table[n, 1 : upper + 1] = table[n - 1, : upper] + table[n - 1, 1 : upper + 1]
    return table


def discretize_lumped(system: Any, delta: float) -> "LumpedMultiBatterySystem":
    """Build the exact symmetry quotient of *system*'s product chain.

    Raises :class:`ValueError` when the bank is not lumpable (heterogeneous
    batteries, a permutation-breaking policy, or a policy phase clock) --
    use :attr:`~repro.multibattery.system.MultiBatterySystem.lumpable` to
    test first.
    """
    if not system.lumpable:
        raise ValueError(
            "permutation-symmetry lumping needs >= 2 identical batteries under "
            "a permutation-symmetric, phase-free policy; got "
            f"{system.n_batteries} batteries "
            f"(identical={system.identical_batteries}) under "
            f"{system.policy.name!r} "
            f"(symmetric={system.policy.is_symmetric(system.n_batteries)}, "
            f"phases={system.n_phases})"
        )
    delta = float(delta)
    if not math.isfinite(delta) or delta <= 0:
        raise ValueError("the step size delta must be positive and finite")

    workload = system.workload
    battery = system.batteries[0]
    n_batteries = system.n_batteries
    grid: RewardGrid = _battery_grid(battery, delta)
    n_cells = grid.n_cells
    n2 = grid.n_levels2

    configs = enumerate_configurations(n_cells, n_batteries)
    n_configs = configs.shape[0]
    binomial = _binomial_table(n_cells + n_batteries - 1, n_batteries)
    index_of_rank = np.empty(n_configs, dtype=np.int64)
    index_of_rank[_colex_ranks(configs, binomial)] = np.arange(n_configs)

    levels = configs // n2
    alive = levels >= 1
    failed = (~alive).sum(axis=1) >= system.failures_to_die
    weights = system.policy.routing_weights(levels.astype(float), alive)
    if weights.shape != (1, n_configs, n_batteries):
        raise ValueError(
            f"policy {system.policy.name!r} returned routing weights of shape "
            f"{weights.shape}, expected {(1, n_configs, n_batteries)}"
        )
    weights = weights[0]  # (M, N)

    # Battery slots sharing a grid cell form one run per row; transitions are
    # emitted once per run (the first slot) with the run's multiplicity
    # folded into the rate -- that is exactly the lumped aggregate rate of
    # moving any one of the `multiplicity` exchangeable batteries.
    multiplicity = (configs[:, :, None] == configs[:, None, :]).sum(axis=2)
    first_of_run = np.ones_like(configs, dtype=bool)
    first_of_run[:, 1:] = configs[:, 1:] != configs[:, :-1]

    # Per-cell single-battery transitions.
    transfer_rate = np.zeros(n_cells)
    j1, j2, rates = _transfer_rates(grid, battery.c, battery.k)
    transfer_rate[j1 * n2 + j2] = rates
    transfer_target = np.arange(n_cells, dtype=np.int64) + n2 - 1  # (j1+1, j2-1)
    consumable = np.arange(n_cells, dtype=np.int64) // n2 >= 1
    consumption_target = np.arange(n_cells, dtype=np.int64) - n2  # (j1-1, j2)

    def slot_transitions(
        per_cell_mask: npt.NDArray[np.bool_],
        targets: IntArray,
        slot_rates: FloatArray,
    ) -> sp.csr_matrix:
        """COO triples for one transition family, emitted per battery slot."""
        rows: list[IntArray] = []
        cols: list[IntArray] = []
        vals: list[FloatArray] = []
        for b in range(n_batteries):
            cell = configs[:, b]
            mask = first_of_run[:, b] & per_cell_mask[cell] & (slot_rates[:, b] > 0.0)
            if not np.any(mask):
                continue
            source = np.nonzero(mask)[0]
            moved = configs[source].copy()
            moved[:, b] = targets[cell[source]]
            moved.sort(axis=1)
            rows.append(source)
            cols.append(index_of_rank[_colex_ranks(moved, binomial)])
            vals.append(multiplicity[source, b] * slot_rates[source, b])
        if not rows:
            return sp.csr_matrix((n_configs, n_configs))
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_configs, n_configs),
        )

    transfer_cfg = slot_transitions(
        per_cell_mask=transfer_rate > 0.0,
        targets=transfer_target,
        slot_rates=transfer_rate[configs],
    )
    # Consumption on the configuration axis carries the routing weight and
    # the multiplicity; the physical rate gains the per-workload-state
    # current over the Kronecker lift below.
    consumption_cfg = slot_transitions(
        per_cell_mask=consumable,
        targets=consumption_target,
        slot_rates=weights,
    )

    # Lumped product generator: workload transitions on the workload axis,
    # per-configuration transitions on the configuration axis, consumption
    # scaled by the per-state current -- mirroring the unlumped assembly.
    workload_off = _off_diagonal(workload.generator)
    identity_cfg = sp.identity(n_configs, format="csr")
    identity_workload = sp.identity(workload.n_states, format="csr")
    currents = np.asarray(workload.currents, dtype=float)
    off_diagonal = (
        sp.kron(sp.csr_matrix(workload_off), identity_cfg, format="csr")
        + sp.kron(identity_workload, transfer_cfg, format="csr")
        + sp.kron(sp.diags(currents / delta), consumption_cfg, format="csr")
    )

    # Failed configurations are absorbing, exactly like the unlumped chain.
    active_rows = np.tile(~failed, workload.n_states).astype(float)
    off_diagonal = (sp.diags(active_rows) @ off_diagonal).tocsr()
    off_diagonal.eliminate_zeros()
    row_sums = np.asarray(off_diagonal.sum(axis=1)).ravel()
    generator = (off_diagonal + sp.diags(-row_sums)).tocsr()

    # Initial distribution: every battery at the full-charge cell (one
    # symmetric configuration), workload at its initial law.
    j1_full = grid.level_of(battery.available_capacity, dimension=1)
    j2_full = (
        grid.level_of(battery.bound_capacity, dimension=2) if grid.two_dimensional else 0
    )
    full_config = np.full((1, n_batteries), j1_full * n2 + j2_full, dtype=np.int64)
    config0 = int(index_of_rank[_colex_ranks(full_config, binomial)[0]])
    initial = np.zeros(workload.n_states * n_configs)
    masses = np.asarray(workload.initial_distribution, dtype=float)
    states = np.nonzero(masses > 0.0)[0]
    initial[states * n_configs + config0] = masses[states]

    empty_states = np.nonzero(np.tile(failed, workload.n_states))[0]

    chain = LumpedMultiBatterySystem(
        system=system,
        grid=grid,
        configurations=configs,
        generator=generator,
        initial_distribution=initial,
        empty_states=empty_states,
        failed_configurations=failed,
    )
    check_chain(chain)
    return chain


@dataclass(frozen=True)
class LumpedMultiBatterySystem:
    """The exact symmetry quotient of an identical-battery product chain.

    Exposes the engine-facing surface of
    :class:`~repro.core.discretization.DiscretizedMultiBatterySystem`
    (``generator``, ``initial_distribution``, ``empty_states``,
    ``n_states``, ``n_nonzero``) over the quotient state space
    ``workload x sorted-charge-multisets``.
    """

    system: object
    grid: RewardGrid
    configurations: IntArray
    generator: sp.csr_matrix
    initial_distribution: FloatArray
    empty_states: IntArray
    failed_configurations: npt.NDArray[np.bool_]
    backend: str = "lumped"

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of quotient-chain states."""
        return int(self.generator.shape[0])

    @property
    def n_configurations(self) -> int:
        """Number of sorted charge multisets."""
        return int(self.configurations.shape[0])

    @property
    def n_nonzero(self) -> int:
        """Number of non-zero generator entries (including the diagonal)."""
        return int(self.generator.nnz)

    @property
    def lumping_ratio(self) -> float:
        """Full-product-space states per quotient state (the reduction factor)."""
        full_cells = float(self.grid.n_cells) ** self.configurations.shape[1]
        return full_cells / float(self.n_configurations)
