"""Continuous-time Markov chain (CTMC) substrate.

This sub-package provides the numerical machinery that the rest of the
library is built on:

* generator-matrix construction and validation (:mod:`repro.markov.generator`),
* Poisson probability weights, including the Fox--Glynn algorithm
  (:mod:`repro.markov.poisson`),
* transient solution of CTMCs via uniformisation, for one or many time
  points at once (:mod:`repro.markov.uniformization` and
  :mod:`repro.markov.transient`),
* steady-state solution (:mod:`repro.markov.steady_state`),
* discrete-time Markov chains (:mod:`repro.markov.dtmc`),
* phase-type distributions such as the Erlang-K distributions used by the
  on/off workload model (:mod:`repro.markov.phase_type`),
* structural chain validation -- generator laws, absorbing reachability,
  Kronecker-operator consistency, exact lumping quotients -- behind the
  ``REPRO_CHECKS`` toggle (:mod:`repro.markov.validate`).

The paper's Markovian-approximation algorithm (Section 5) reduces the
battery-lifetime problem to the transient solution of a large, sparse CTMC;
all of that work happens here.
"""

from repro.markov.ctmc import CTMC
from repro.markov.dtmc import DTMC
from repro.markov.generator import (
    as_csr,
    build_generator,
    embedded_jump_matrix,
    exit_rates,
    is_generator,
    kron_chain,
    uniformized_matrix,
    validate_generator,
)
from repro.markov.kronecker import (
    KroneckerGenerator,
    KroneckerTerm,
    UniformizedOperator,
    assembled_csr_bytes,
)
from repro.markov.phase_type import (
    PhaseTypeDistribution,
    erlang,
    exponential,
    hyperexponential,
)
from repro.markov.poisson import (
    PoissonWeights,
    cached_poisson_weights,
    fox_glynn,
    poisson_weights,
)
from repro.markov.steady_state import steady_state_distribution
from repro.markov.transient import transient_distribution
from repro.markov.uniformization import (
    BatchTransientResult,
    TransientPropagator,
    UniformizationResult,
    uniformization_rate,
    uniformized_transient,
)
from repro.markov.validate import (
    ValidationError,
    check_chain,
    check_generator,
    validate_absorbing,
    validate_kronecker,
    validate_lumping,
)

__all__ = [
    "BatchTransientResult",
    "CTMC",
    "DTMC",
    "KroneckerGenerator",
    "KroneckerTerm",
    "PhaseTypeDistribution",
    "PoissonWeights",
    "TransientPropagator",
    "UniformizationResult",
    "UniformizedOperator",
    "ValidationError",
    "as_csr",
    "assembled_csr_bytes",
    "build_generator",
    "cached_poisson_weights",
    "check_chain",
    "check_generator",
    "embedded_jump_matrix",
    "erlang",
    "exit_rates",
    "exponential",
    "fox_glynn",
    "hyperexponential",
    "is_generator",
    "kron_chain",
    "poisson_weights",
    "steady_state_distribution",
    "transient_distribution",
    "uniformization_rate",
    "uniformized_matrix",
    "uniformized_transient",
    "validate_absorbing",
    "validate_generator",
    "validate_kronecker",
    "validate_lumping",
]
