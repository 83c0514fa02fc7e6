"""The :class:`LifetimeQuery` request object of the lifetime-query service.

A query is the service-side spelling of the paper's core question --
*what is the probability this battery workload dies before t?* -- as one
immutable request: a :class:`~repro.engine.problem.LifetimeProblem` plus
the solver method to use.  Its identity for caching and request
coalescing is the audited scenario fingerprint
(:func:`~repro.engine.sweep.scenario_fingerprint`), so two queries share
a solve exactly when the sweep cache would have shared an entry.

Like every fingerprinted dataclass, the query's fields are declared in
:data:`repro.checking.fingerprints.FINGERPRINT_FIELDS` (lint rule RPR003
and :func:`~repro.checking.fingerprints.audit_fingerprint_registry`
enforce the declaration stays complete).

:meth:`LifetimeQuery.from_mapping` builds a query from the plain-JSON
wire format the ``tools/repro_serve.py`` front accepts.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

import numpy as np

from repro.battery.parameters import KiBaMParameters
from repro.engine.problem import LifetimeProblem
from repro.engine.solvers import choose_method
from repro.engine.sweep import scenario_fingerprint
from repro.workload.base import WorkloadModel

__all__ = ["LifetimeQuery"]

#: The wire fields that become :class:`LifetimeProblem` knobs, with their
#: casts; ``null`` (or an absent field) keeps the problem's default.
_OPTIONAL_FIELDS = (
    ("delta", float),
    ("epsilon", float),
    ("n_runs", int),
    ("seed", int),
    ("horizon", float),
)

#: Every top-level field :meth:`LifetimeQuery.from_mapping` accepts.
_WIRE_FIELDS = frozenset(
    ["workload", "battery", "times", "method", "label"]
    + [name for name, _ in _OPTIONAL_FIELDS]
)


def _times_from_payload(value: Any) -> Any:
    """Accept either an explicit grid or a ``{start, stop, num}`` mapping."""
    if isinstance(value, Mapping):
        return np.linspace(float(value["start"]), float(value["stop"]), int(value["num"]))
    return np.asarray(value, dtype=float)


@dataclasses.dataclass(frozen=True)
class LifetimeQuery:
    """One lifetime question addressed to :class:`repro.service.server.LifetimeService`.

    Attributes
    ----------
    problem:
        The lifetime question itself (workload, battery, time grid and
        tuning knobs) -- the same object every batch entry point uses.
    method:
        Solver name (``"auto"``, ``"analytic"``,
        ``"mrm-uniformization"``, ``"monte-carlo"``); ``"auto"`` resolves
        deterministically per problem before fingerprinting, so an
        ``auto`` query and an explicit query for the same concrete solver
        coalesce onto one solve.
    label:
        Presentation-only request tag; never part of the fingerprint.
    """

    problem: LifetimeProblem
    method: str = "auto"
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.method:
            raise ValueError("a lifetime query needs a non-empty solver method")

    # ------------------------------------------------------------------
    def concrete_method(self) -> str:
        """The concrete solver name, with ``"auto"`` resolved per problem."""
        if self.method == "auto":
            return choose_method(self.problem)
        return self.method

    def fingerprint(self) -> str:
        """The audited scenario fingerprint this query coalesces on."""
        return scenario_fingerprint(self.problem, self.concrete_method())

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "LifetimeQuery":
        """Build a query from the plain-JSON wire format.

        Expected shape (``delta``/``epsilon``/... optional with the usual
        :class:`~repro.engine.problem.LifetimeProblem` defaults; any other
        top-level field is rejected by name)::

            {
              "workload": {"state_names": [...], "generator": [[...]],
                           "currents": [...], "initial_distribution": [...]},
              "battery": {"capacity": 300.0, "c": 0.625, "k": 1e-3},
              "times": [t0, t1, ...] | {"start": 0, "stop": 3000, "num": 33},
              "delta": 0.9, "epsilon": 1e-6, "n_runs": 1000, "seed": 1,
              "horizon": null, "method": "auto", "label": "query-1"
            }
        """
        unknown = sorted(set(payload) - _WIRE_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown query fields {unknown}; expected a subset of "
                f"{sorted(_WIRE_FIELDS)}"
            )
        workload_payload = payload["workload"]
        workload = WorkloadModel(
            state_names=tuple(str(name) for name in workload_payload["state_names"]),
            generator=np.asarray(workload_payload["generator"], dtype=float),
            currents=np.asarray(workload_payload["currents"], dtype=float),
            initial_distribution=np.asarray(
                workload_payload["initial_distribution"], dtype=float
            ),
        )
        battery_payload = payload["battery"]
        battery = KiBaMParameters(
            capacity=float(battery_payload["capacity"]),
            c=float(battery_payload["c"]),
            k=float(battery_payload["k"]),
        )
        optional: dict[str, Any] = {}
        for name, caster in _OPTIONAL_FIELDS:
            if payload.get(name) is not None:
                try:
                    optional[name] = caster(payload[name])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{name}: {exc}") from None
        # The label rides on the query only, never on the problem: results
        # are shared across requests through the fingerprint-keyed store
        # (labels are fingerprint-exempt), so a problem-level label would
        # leak the first requester's label to every later cache hit.  The
        # service stamps ``query.label`` onto each response individually.
        label = payload.get("label")
        problem = LifetimeProblem(
            workload=workload,
            battery=battery,
            times=_times_from_payload(payload["times"]),
            **optional,
        )
        return cls(
            problem=problem,
            method=str(payload.get("method", "auto")),
            label=None if label is None else str(label),
        )
