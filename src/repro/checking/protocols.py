"""Shared array types and the structural shape of a discretised chain.

:class:`DiscretizedChain` writes down the shape every discretisation
backend hands the engine -- ``DiscretizedKiBaMRM``,
``DiscretizedMultiBatterySystem`` (a
:class:`~repro.markov.kronecker.KroneckerGenerator`) and
``LumpedMultiBatterySystem`` share no base class.  The module also names
the array and generator types the numerical code is annotated with, and
imports no concrete implementation at run time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - typing only
    import scipy.sparse as sp

    from repro.markov.kronecker import KroneckerGenerator

__all__ = [
    "DiscretizedChain",
    "FloatArray",
    "GeneratorLike",
    "IntArray",
]

#: Dense float64 array -- the working dtype of every propagation path.
FloatArray = npt.NDArray[np.float64]

#: Integer index array (state indices, truncation points, counts).
IntArray = npt.NDArray[np.int64]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import TypeAlias

    #: Anything the solvers accept as a CTMC generator: an assembled sparse
    #: matrix, a (small) dense array, or a matrix-free operator.
    GeneratorLike: TypeAlias = "sp.spmatrix | sp.sparray | FloatArray | KroneckerGenerator"
else:  # pragma: no cover - runtime alias for isinstance-free annotation use
    GeneratorLike = object


@runtime_checkable
class DiscretizedChain(Protocol):
    """The chain object every discretisation backend hands the engine.

    ``DiscretizedKiBaMRM``, ``DiscretizedMultiBatterySystem`` and
    ``LumpedMultiBatterySystem`` all satisfy this shape; solvers and the
    workspace depend only on it.
    """

    @property
    def generator(self) -> Any:
        """The CTMC generator (CSR matrix or ``KroneckerGenerator``)."""
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
