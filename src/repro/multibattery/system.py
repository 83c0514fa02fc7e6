"""Product-space Markov reward models for multi-battery systems.

A :class:`MultiBatterySystem` composes one CTMC workload, a bank of ``N``
KiBaM batteries and a scheduling policy into a single product-space CTMC:

.. math::

    S^\\times = S_{\\text{workload}} \\times S_{\\text{phase}}
        \\times G_1 \\times \\cdots \\times G_N,

where ``G_b`` is battery ``b``'s discretised charge grid (a
:class:`~repro.core.grid.RewardGrid`) and the phase factor is the
policy's optional switch clock.  The chain is written by
:func:`repro.core.discretization.discretize`, the one construction of
Section 5's expanded CTMC: a single battery is the bank of one under
``static-split`` with ``failures_to_die = 1``.  The transition structure
is Kronecker-shaped:

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
  factor-wise apply on a 232,560-state bank).  Every single battery's
  chain is assembled.
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
emptied their available well.  Failed product states are absorbing, so
every backend drops straight into the existing
:class:`~repro.markov.uniformization.TransientPropagator`
machinery (including the incremental fast path and its steady-state
detection) with the failed-state indicator as the projection vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.battery.parameters import KiBaMParameters
from repro.core.discretization import (
    DiscretizedMultiBatterySystem,
    _battery_grid,
    _off_diagonal,
    discretize,
)
from repro.markov.kronecker import assembled_csr_bytes
from repro.multibattery.policies import SchedulingPolicy, get_policy
from repro.workload.base import WorkloadModel

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
    def discretize(
        self, delta: float, backend: str = "assembled"
    ) -> "DiscretizedMultiBatterySystem":
        """Build the product-space CTMC for step size *delta* (As).

        *backend* selects the realisation (see the module docstring):
        ``"assembled"`` and ``"matrix-free"`` (both the Kronecker operator
        of :func:`repro.core.discretization.discretize`; the chain's
        ``backend`` tells the propagator whether to assemble ``P``),
        ``"lumped"`` (the exact symmetry quotient; its own state space and
        result type), or ``"auto"`` (resolved via :meth:`resolve_backend`).
        """
        delta = float(delta)
        if not math.isfinite(delta) or delta <= 0:
            raise ValueError("the step size delta must be positive and finite")
        backend = self.resolve_backend(delta, backend)
        if backend == "lumped":
            from repro.multibattery.lumping import discretize_lumped

            return discretize_lumped(self, delta)
        return discretize(self, delta, backend)
