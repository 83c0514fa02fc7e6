"""Central registry of fingerprint-relevant problem/sweep fields.

The sweep cache (:mod:`repro.engine.sweep`) keys solved scenarios by a
content fingerprint derived from :meth:`LifetimeProblem.chain_key` plus
the solve knobs.  The recurring bug class this registry kills: a new
dataclass field lands on :class:`~repro.engine.problem.LifetimeProblem`,
:class:`~repro.multibattery.problem.MultiBatteryProblem` or
:class:`~repro.engine.sweep.SweepSpec` without anyone deciding whether it
changes the answer -- and the cache silently serves stale results (if it
mattered) or needlessly misses (if it did not).

Every field must therefore be declared here, exactly once per class, as
either **relevant** (it feeds the fingerprint) or **exempt** (it provably
cannot change the solved curve: labels, presentation metadata, and the
knobs whose whole design contract is numerical equivalence -- transient
mode, chain backend).  Two enforcement layers read this table:

* lint rule RPR003 (``tools/repro_lint.py``) parses the literal below and
  flags any dataclass field of these classes (or their subtypes) that is
  missing from it, at review time;
* :func:`audit_fingerprint_registry` compares the table against the live
  ``dataclasses.fields`` at test time, so a *stale* entry (field renamed
  or removed) fails too.

``FINGERPRINT_FIELDS`` must stay a pure literal of string tuples -- the
lint pass reads it with ``ast.literal_eval`` and never imports this
package.
"""

from __future__ import annotations

__all__ = [
    "FINGERPRINT_FIELDS",
    "FingerprintRegistryError",
    "audit_fingerprint_registry",
    "registered_fields",
]

#: Field declarations per class: ``relevant`` fields feed the scenario
#: fingerprint (via ``chain_key`` or the solve-knob tail), ``exempt``
#: fields are certified not to change the solved lifetime curve.
FINGERPRINT_FIELDS = {
    "LifetimeProblem": {
        "relevant": (
            "workload",
            "battery",
            "times",
            "delta",
            "epsilon",
            "n_runs",
            "seed",
            "horizon",
        ),
        "exempt": (
            # Presentation only: never touches the numerics.
            "label",
            "metadata",
            # Equivalence-contract knob: incremental and single-pass agree
            # within epsilon, so the cache must serve across them.
            "transient_mode",
        ),
    },
    "MultiBatteryProblem": {
        "relevant": (
            "batteries",
            "policy",
            "policy_params",
            "failures_to_die",
        ),
        "exempt": (
            # Assembled / matrix-free / lumped agree to 1e-10 by gate;
            # the backend choice must not fragment the cache.
            "backend",
        ),
    },
    "LifetimeQuery": {
        "relevant": (
            # The wrapped LifetimeProblem feeds the fingerprint through its
            # own registry entry; the method is hashed alongside it (exactly
            # as scenario_fingerprint does for sweeps).
            "problem",
            "method",
        ),
        "exempt": (
            # Presentation-only request tag.
            "label",
        ),
    },
    "SweepSpec": {
        "relevant": (
            "workloads",
            "batteries",
            "times",
            "deltas",
            "methods",
            "policies",
            "failures_to_die",
            "epsilon",
            "n_runs",
            "horizon",
            "seed",
        ),
        "exempt": ("transient_mode",),
    },
}


class FingerprintRegistryError(RuntimeError):
    """The registry and the live dataclass definitions drifted apart."""


def registered_fields(class_name: str) -> frozenset[str]:
    """All declared field names (relevant and exempt) of *class_name*."""
    try:
        entry = FINGERPRINT_FIELDS[class_name]
    except KeyError:
        raise FingerprintRegistryError(
            f"{class_name!r} has no fingerprint registry entry; declare its "
            "fields in repro.checking.fingerprints.FINGERPRINT_FIELDS"
        ) from None
    return frozenset(entry["relevant"]) | frozenset(entry["exempt"])


def _registry_lineage(cls: type) -> list[str]:
    """Registry entries applicable to *cls*, base-first."""
    return [base.__name__ for base in reversed(cls.__mro__) if base.__name__ in FINGERPRINT_FIELDS]


def audit_fingerprint_registry() -> None:
    """Cross-check the registry against the live dataclass definitions.

    Raises :class:`FingerprintRegistryError` when a dataclass field of a
    registered class is undeclared, declared twice (relevant *and*
    exempt), or when the registry names a field that no longer exists.
    """
    import dataclasses

    from repro.engine.problem import LifetimeProblem
    from repro.engine.sweep import SweepSpec
    from repro.multibattery.problem import MultiBatteryProblem
    from repro.service.query import LifetimeQuery

    classes: dict[str, type] = {
        "LifetimeProblem": LifetimeProblem,
        "LifetimeQuery": LifetimeQuery,
        "MultiBatteryProblem": MultiBatteryProblem,
        "SweepSpec": SweepSpec,
    }
    problems: list[str] = []
    for name, entry in FINGERPRINT_FIELDS.items():
        if name not in classes:
            problems.append(f"registry entry {name!r} matches no audited class")
            continue
        overlap = set(entry["relevant"]) & set(entry["exempt"])
        if overlap:
            problems.append(
                f"{name}: fields declared both relevant and exempt: {sorted(overlap)}"
            )
    for name, cls in classes.items():
        actual = {field.name for field in dataclasses.fields(cls)}
        declared: set[str] = set()
        for entry_name in _registry_lineage(cls):
            declared |= set(registered_fields(entry_name))
        missing = actual - declared
        if missing:
            problems.append(
                f"{name}: undeclared dataclass fields {sorted(missing)}; add each "
                "to FINGERPRINT_FIELDS as fingerprint-relevant or fingerprint-exempt"
            )
        if name in FINGERPRINT_FIELDS:
            stale = set(registered_fields(name)) - actual
            if stale:
                problems.append(
                    f"{name}: registry names unknown fields {sorted(stale)} "
                    "(renamed or removed?)"
                )
    if problems:
        raise FingerprintRegistryError("; ".join(problems))
