"""Structural protocols for the library's plug points.

Three extension seams keep the solver pipeline swappable -- the chain
representation (assembled CSR / :class:`~repro.markov.kronecker.KroneckerGenerator`
/ lumped quotient), the uniformisation kernel
(:class:`~repro.markov.kernels.ScipyKernel`) and the scheduler policy
registry of :mod:`repro.multibattery.policies`.  None of them requires a
common base class; what matters is the *shape* of the objects.  These
:class:`typing.Protocol` definitions write that shape down so mypy checks
implementations structurally and the test suite can assert conformance at
runtime (every protocol is ``runtime_checkable``).

This module deliberately imports no concrete implementation -- protocols
would otherwise re-couple the seams they exist to keep apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable, Mapping

    import scipy.sparse as sp

    from repro.markov.kernels import SegmentResult

__all__ = [
    "DiscretizedChain",
    "FloatArray",
    "GeneratorLike",
    "GeneratorOperator",
    "IntArray",
    "SchedulerPolicy",
    "TraceSink",
    "UniformizationKernel",
]

#: Dense float64 array -- the working dtype of every propagation path.
FloatArray = npt.NDArray[np.float64]

#: Integer index array (state indices, truncation points, counts).
IntArray = npt.NDArray[np.int64]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import TypeAlias

    #: Anything the solvers accept as a CTMC generator: an assembled sparse
    #: matrix, a (small) dense array, or a matrix-free operator.
    GeneratorLike: TypeAlias = "sp.spmatrix | sp.sparray | FloatArray | GeneratorOperator"
else:  # pragma: no cover - runtime alias for isinstance-free annotation use
    GeneratorLike = object


@runtime_checkable
class GeneratorOperator(Protocol):
    """A matrix-free CTMC generator: everything ``v @ Q`` needs.

    :class:`~repro.markov.kronecker.KroneckerGenerator` is the shipped
    implementation; any operator with this shape (a hierarchical term
    structure, say) drops into
    :class:`~repro.markov.uniformization.TransientPropagator` unchanged.
    """

    @property
    def shape(self) -> tuple[int, int]:
        """Square ``(n, n)`` logical shape."""
        ...

    @property
    def nnz(self) -> int:
        """Implied non-zero count of the assembled matrix."""
        ...

    def diagonal(self) -> FloatArray:
        """The generator diagonal (negated exit rates)."""
        ...

    def validate(self) -> None:
        """Raise when the operator's structural invariants are broken."""
        ...

    def to_csr(self, *, max_bytes: int | None = None) -> "sp.csr_matrix":
        """Assemble the operator (small chains / cross-checks only)."""
        ...

    def __rmatmul__(self, other: FloatArray) -> FloatArray:
        """Evaluate ``other @ Q`` without assembling ``Q``."""
        ...


@runtime_checkable
class UniformizationKernel(Protocol):
    """One implementation of the uniformisation inner loop.

    The propagator only ever calls ``spmm`` (one ``v @ P`` product) and
    ``run_segment`` (one fused Poisson-window pass).
    """

    def spmm(self, block: FloatArray) -> FloatArray:
        """One ``block @ P`` product."""
        ...

    def run_segment(
        self,
        v: FloatArray,
        weights: FloatArray,
        left: int,
        right: int,
        tol: float,
        progress: "Callable[[int], None] | None" = None,
    ) -> "SegmentResult":
        """Run one Poisson-window segment."""
        ...


@runtime_checkable
class SchedulerPolicy(Protocol):
    """A multi-battery load-routing policy, checked by shape.

    The registry of :mod:`repro.multibattery.policies` ships class-based
    policies, but the product-space construction and the simulator only
    use this surface -- a structurally conforming object routes current
    without subclassing :class:`~repro.multibattery.policies.SchedulingPolicy`.
    """

    name: str

    def n_phases(self, n_batteries: int) -> int:
        """Number of phase-clock states adjoined to the product space."""
        ...

    def phase_generator(self, n_batteries: int) -> FloatArray:
        """Generator matrix of the policy's phase clock."""
        ...

    def routing_weights(
        self, levels: FloatArray, alive: npt.NDArray[np.bool_]
    ) -> FloatArray:
        """Per-battery routing weights for every charge configuration."""
        ...

    def is_symmetric(self, n_batteries: int) -> bool:
        """Whether the routing is invariant under battery permutations."""
        ...

    def key(self) -> tuple[Any, ...]:
        """Hashable fingerprint of the policy (name and parameters)."""
        ...


@runtime_checkable
class TraceSink(Protocol):
    """A destination for finished trace spans, checked by shape.

    :class:`~repro.obs.trace.JsonlTraceSink` is the shipped
    implementation; anything that accepts flat span records -- an
    OpenTelemetry bridge, a ring buffer, a test double -- conforms by
    implementing these two methods.  Records are plain mappings (the
    :meth:`repro.obs.trace.Span.as_record` shape: ``name``, ``span_id``,
    ``parent_id``, ``start``, ``end``, ``pid`` and optional ``attrs``);
    this module imports no obs types.
    """

    def emit(self, record: "Mapping[str, Any]") -> None:
        """Accept one finished span record."""
        ...

    def flush(self) -> None:
        """Persist anything buffered (called at export/shutdown)."""
        ...


@runtime_checkable
class DiscretizedChain(Protocol):
    """The chain object every discretisation backend hands the engine.

    ``DiscretizedKiBaMRM``, ``DiscretizedMultiBatterySystem`` and
    ``LumpedMultiBatterySystem`` all satisfy this shape; solvers and the
    workspace depend only on it.
    """

    @property
    def generator(self) -> Any:
        """The CTMC generator (CSR matrix or :class:`GeneratorOperator`)."""
        ...

    @property
    def initial_distribution(self) -> FloatArray:
        """Probability vector over the chain's states at time zero."""
        ...

    @property
    def empty_states(self) -> IntArray:
        """Indices of the absorbing system-failure states."""
        ...

    @property
    def n_states(self) -> int:
        """Number of states of the chain."""
        ...

    @property
    def n_nonzero(self) -> int:
        """Number of structural non-zeros of the generator."""
        ...
