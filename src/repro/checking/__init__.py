"""Machine-checked correctness contracts for the reproduction.

The library keeps three interchangeable chain representations (assembled
CSR, matrix-free Kronecker operator, lumped symmetry quotient) numerically
equivalent.  The invariants behind
that equivalence -- zero row sums, non-negative off-diagonals,
uniformisation-rate dominance, no silent dense escape, registered
fingerprint fields, schema'd diagnostics keys -- used to live in scattered
runtime asserts.  This package makes them first-class artifacts:

* :mod:`repro.checking.contracts` -- the ``REPRO_CHECKS=strict|off``
  toggle that decides whether structural validators (see
  :mod:`repro.markov.validate`) raise or stay out of the way.
* :mod:`repro.checking.dense` -- the single allowlisted, size-guarded
  sparse-to-dense boundary (:func:`dense_fallback`); lint rule RPR001
  forbids ``.toarray()`` everywhere else.
* :mod:`repro.checking.fingerprints` -- the central registry every
  dataclass field of :class:`~repro.engine.problem.LifetimeProblem` /
  :class:`~repro.engine.sweep.SweepSpec` subtypes must appear in, as
  either fingerprint-relevant or fingerprint-exempt (lint rule RPR003).
* :mod:`repro.checking.protocols` -- the shared array types and the
  structural :class:`typing.Protocol` of a discretised chain, the one
  shape the three chain backends share without a common base class.

The matching static passes live in ``tools/repro_lint.py`` (run as
``python -m tools.repro_lint src tests benchmarks``) and in the strict
mypy configuration of ``pyproject.toml``.
"""

from __future__ import annotations

from repro.checking.contracts import (
    CHECK_MODES,
    checks_mode,
    override_checks,
)
from repro.checking.dense import DEFAULT_DENSE_LIMIT, DenseFallbackError, dense_fallback
from repro.checking.fingerprints import (
    FINGERPRINT_FIELDS,
    FingerprintRegistryError,
    audit_fingerprint_registry,
    registered_fields,
)
from repro.checking.protocols import (
    DiscretizedChain,
    FloatArray,
    GeneratorLike,
    IntArray,
)

__all__ = [
    "CHECK_MODES",
    "DEFAULT_DENSE_LIMIT",
    "DenseFallbackError",
    "DiscretizedChain",
    "FINGERPRINT_FIELDS",
    "FingerprintRegistryError",
    "FloatArray",
    "GeneratorLike",
    "IntArray",
    "audit_fingerprint_registry",
    "checks_mode",
    "dense_fallback",
    "override_checks",
    "registered_fields",
]
