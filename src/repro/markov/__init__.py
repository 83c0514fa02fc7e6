"""Continuous-time Markov chain (CTMC) substrate.

This sub-package provides the numerical machinery that the rest of the
library is built on:

* generator-matrix helpers (:mod:`repro.markov.generator`),
* Poisson probability weights, including the Fox--Glynn algorithm
  (:mod:`repro.markov.poisson`),
* transient solution of CTMCs via uniformisation, for a stack of initial
  distributions and many time points at once
  (:meth:`repro.markov.uniformization.TransientPropagator.transient_batch`,
  checked against the dense oracles of ``tests/oracles/transient.py``),
* steady-state solution (:mod:`repro.markov.steady_state`),
* structural chain validation -- generator laws, absorbing reachability,
  Kronecker-operator consistency, exact lumping quotients -- always on for
  generators (:func:`validate_generator`) and behind the ``REPRO_CHECKS``
  toggle for built chains (:mod:`repro.markov.validate`).

The paper's Markovian-approximation algorithm (Section 5) reduces the
battery-lifetime problem to the transient solution of a large, sparse CTMC;
all of that work happens here.
"""

from repro.markov.generator import (
    as_csr,
    exit_rates,
    uniformized_matrix,
)
from repro.markov.kronecker import (
    KroneckerGenerator,
    KroneckerTerm,
    UniformizedOperator,
    assembled_csr_bytes,
)
from repro.markov.poisson import (
    PoissonWeights,
    cached_poisson_weights,
    fox_glynn,
)
from repro.markov.steady_state import steady_state_distribution
from repro.markov.uniformization import (
    BatchTransientResult,
    TransientPropagator,
    uniformization_rate,
)
from repro.markov.validate import (
    ValidationError,
    check_chain,
    check_generator,
    validate_absorbing,
    validate_generator,
    validate_kronecker,
    validate_lumping,
)

__all__ = [
    "BatchTransientResult",
    "KroneckerGenerator",
    "KroneckerTerm",
    "PoissonWeights",
    "TransientPropagator",
    "UniformizedOperator",
    "ValidationError",
    "as_csr",
    "assembled_csr_bytes",
    "cached_poisson_weights",
    "check_chain",
    "check_generator",
    "exit_rates",
    "fox_glynn",
    "steady_state_distribution",
    "uniformization_rate",
    "uniformized_matrix",
    "validate_absorbing",
    "validate_generator",
    "validate_kronecker",
    "validate_lumping",
]
