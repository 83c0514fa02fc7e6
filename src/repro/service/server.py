"""The long-lived in-process lifetime-query server.

:class:`LifetimeService` answers :class:`~repro.service.query.LifetimeQuery`
requests for the lifetime of a device under a stochastic workload.  It is
designed for the fleet-serving shape of traffic the ROADMAP targets --
many near-identical queries hammered repeatedly -- and gets its speed
from three layers, all reused across requests:

* a shared :class:`~repro.engine.sweep.SweepCache` result store keyed by
  the audited scenario fingerprint, with LRU eviction and per-window
  resettable hit/miss counters (repeat queries never re-solve);
* request **coalescing**: concurrent queries with the same fingerprint
  join a single in-flight solve instead of racing (N identical queries
  -> exactly one solve);
* a warm :class:`~repro.engine.workspace.SolveWorkspace`, so uniformised
  matrices, Poisson tables and steady-state hints amortise across
  *different* queries on the same chain.

Every request runs under a :func:`repro.obs.span` tree (``request`` ->
``coalesce`` -> ``solve`` -> ``respond``) and feeds the
``service_requests`` / ``service_served.*`` / ``service_latency_seconds``
metrics, so a running service is observable with the same tooling as the
batch sweeps.  Responses carry diagnostics validated against
:data:`~repro.engine.diagnostics.DIAGNOSTICS_SCHEMA`.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.engine.diagnostics import validate_diagnostics
from repro.engine.options import RunOptions
from repro.engine.registry import solve_lifetime
from repro.engine.result import LifetimeResult
from repro.engine.sweep import SweepCache
from repro.engine.workspace import SolveWorkspace
from repro.service.query import LifetimeQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    from repro.battery.parameters import KiBaMParameters
    from repro.engine.problem import LifetimeProblem
    from repro.workload.base import WorkloadModel

__all__ = ["DEFAULT_STORE_ENTRIES", "LifetimeService", "ServiceResponse"]

#: Default LRU bound of the in-memory result store.
DEFAULT_STORE_ENTRIES = 1024

#: The ways a response can be produced.
SERVED_FROM = ("solve", "cache", "coalesced")


@dataclasses.dataclass(frozen=True)
class ServiceResponse:
    """One answered lifetime query.

    Attributes
    ----------
    result:
        The solved lifetime curve.  Its ``diagnostics`` carry the solver
        telemetry *plus* the service keys (``served_from``,
        ``query_fingerprint``, ``query_id``,
        ``service_latency_seconds``), all schema-validated.
    served_from:
        ``"solve"`` (this request ran the solver), ``"cache"`` (answered
        from the result store) or ``"coalesced"`` (joined another
        request's in-flight solve).
    fingerprint:
        The audited scenario fingerprint the request was keyed on.
    query_id:
        Monotone per-service sequence number of the request.
    latency_seconds:
        Request wall time inside the service.
    """

    result: LifetimeResult
    served_from: str
    fingerprint: str
    query_id: int
    latency_seconds: float

    @property
    def diagnostics(self) -> dict[str, Any]:
        """The response diagnostics (solver telemetry + service keys)."""
        return self.result.diagnostics


class _Inflight:
    """One in-flight solve that concurrent identical requests join."""

    __slots__ = ("done", "error", "followers", "result")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: LifetimeResult | None = None
        self.error: BaseException | None = None
        self.followers = 0


class LifetimeService:
    """A thread-safe, in-process lifetime-query server.

    Parameters
    ----------
    max_entries:
        LRU bound of the in-memory tier of the result store the service
        builds; ``None`` leaves it unbounded.  Ignored when
        ``options.cache`` is given.  Entries evicted from a disk-backed
        store reload from disk.
    options:
        :class:`~repro.engine.options.RunOptions` shared with
        :func:`~repro.engine.sweep.run_sweep`.  The result store is
        ``options.cache`` when given (pass a disk-backed cache to share
        results with batch sweeps and across restarts), else a
        :class:`~repro.engine.sweep.SweepCache` bounded to *max_entries*,
        in memory or on ``options.cache_dir``.

    Notes
    -----
    The warm :class:`~repro.engine.workspace.SolveWorkspace` kept across
    requests disables steady-state horizon caps (``horizon_caps=False``)
    so stored results never depend on which queries happened to arrive
    earlier -- the same coherence rule the sweep workers follow.

    Solves are serialised on an internal lock.  Propagators and kernels
    keep no state between calls; the lock guards the warm workspace the
    solves share -- its check-then-build chain, propagator and projection
    caches (two concurrent misses on one key would both build the chain
    and its ``P``) and its build counters.  The solve path holds the GIL,
    so solving on two threads would not be faster anyway.  Requests
    answered from the store or by coalescing never take that lock.
    """

    def __init__(
        self,
        *,
        max_entries: int | None = DEFAULT_STORE_ENTRIES,
        options: RunOptions | None = None,
    ) -> None:
        self.options = options or RunOptions()
        store = self.options.cache
        self.store = store if store is not None else SweepCache(self.options.cache_dir, max_entries=max_entries)
        self.workspace = SolveWorkspace(horizon_caps=False)
        self._lock = threading.Lock()
        self._solve_lock = threading.Lock()
        self._inflight: dict[str, _Inflight] = {}
        self._queries = 0
        self._served: dict[str, int] = {key: 0 for key in SERVED_FROM}

    # ------------------------------------------------------------------
    def query(
        self,
        workload: "WorkloadModel | LifetimeProblem",
        battery: "KiBaMParameters | None" = None,
        times: "npt.ArrayLike | None" = None,
        *,
        method: str = "auto",
        **problem_kwargs: Any,
    ) -> ServiceResponse:
        """Convenience front of :meth:`submit` building the query inline.

        Accepts either a ready :class:`~repro.engine.problem.LifetimeProblem`
        as the single positional argument, or the workload/battery/times
        triple (plus any further problem keyword arguments).
        """
        from repro.engine.problem import LifetimeProblem

        if isinstance(workload, LifetimeProblem):
            if battery is not None or times is not None or problem_kwargs:
                raise TypeError(
                    "pass either a LifetimeProblem or workload/battery/times, not both"
                )
            problem = workload
        else:
            if battery is None or times is None:
                raise TypeError("query() needs battery and times alongside a workload")
            problem = LifetimeProblem(
                workload=workload, battery=battery, times=times, **problem_kwargs
            )
        return self.submit(LifetimeQuery(problem=problem, method=method))

    def submit(self, query: LifetimeQuery) -> ServiceResponse:
        """Answer one query: from the store, a joined solve, or a fresh solve."""
        started = obs.now()
        with self._lock:
            self._queries += 1
            query_id = self._queries
        with obs.span("service_request", query_id=query_id, method=query.method):
            with obs.span("service_coalesce"):
                fingerprint = query.fingerprint()
                leader = False
                cached: LifetimeResult | None = None
                with self._lock:
                    entry = self._inflight.get(fingerprint)
                    if entry is None:
                        cached = self.store.get(fingerprint)
                        if cached is None:
                            entry = _Inflight()
                            self._inflight[fingerprint] = entry
                            leader = True
                    else:
                        entry.followers += 1
            if cached is not None:
                obs.count("service_store_hits")
                return self._respond(query, cached, "cache", fingerprint, query_id, started)
            obs.count("service_store_misses")
            assert entry is not None
            if leader:
                result = self._solve(query, fingerprint, entry)
                return self._respond(query, result, "solve", fingerprint, query_id, started)
            entry.done.wait()
            if entry.error is not None:
                raise entry.error
            assert entry.result is not None
            return self._respond(
                query, entry.result, "coalesced", fingerprint, query_id, started
            )

    # ------------------------------------------------------------------
    def _solve(self, query: LifetimeQuery, fingerprint: str, entry: _Inflight) -> LifetimeResult:
        """Run the single underlying solve of a coalesced request group."""
        method = query.concrete_method()
        try:
            with self._solve_lock, obs.span(
                "service_solve", method=method, fingerprint=fingerprint
            ):
                result = solve_lifetime(query.problem, method, workspace=self.workspace)
            self.store.put(fingerprint, result)
            entry.result = result
            return result
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(fingerprint, None)
            entry.done.set()

    def _respond(
        self,
        query: LifetimeQuery,
        result: LifetimeResult,
        served_from: str,
        fingerprint: str,
        query_id: int,
        started: float,
    ) -> ServiceResponse:
        """Stamp the service diagnostics onto a response copy of *result*."""
        with obs.span("service_respond", served_from=served_from):
            latency = obs.now() - started
            service_diagnostics = {
                "served_from": served_from,
                "query_fingerprint": fingerprint,
                "query_id": query_id,
                "service_latency_seconds": latency,
            }
            validate_diagnostics(service_diagnostics)
            stamped = dataclasses.replace(
                result, diagnostics={**result.diagnostics, **service_diagnostics}
            )
            if query.label is not None:
                stamped = dataclasses.replace(
                    stamped,
                    distribution=dataclasses.replace(stamped.distribution, label=query.label),
                )
            with self._lock:
                self._served[served_from] += 1
            obs.count("service_served." + served_from)
            obs.observe("service_latency_seconds", latency)
            return ServiceResponse(
                result=stamped,
                served_from=served_from,
                fingerprint=fingerprint,
                query_id=query_id,
                latency_seconds=latency,
            )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Current window counters: requests, served-from split, store stats."""
        with self._lock:
            served = dict(self._served)
            queries = self._queries
            inflight = len(self._inflight)
        return {
            "queries": queries,
            "inflight": inflight,
            "served": served,
            "store": self.store.stats(),
            "workspace": self.workspace.diagnostics(),
        }

    def reset_window(self) -> dict[str, Any]:
        """Start a fresh observation window; return the closed window's stats.

        Resets the served-from split and the store's hit/miss counters
        (:meth:`SweepCache.reset_stats`), so steady-state hit rates are
        not diluted by warmup traffic.  The query-id sequence and the
        warm caches themselves are left intact.
        """
        snapshot = self.stats()
        with self._lock:
            self._served = {key: 0 for key in SERVED_FROM}
        snapshot["store"] = self.store.reset_stats()
        return snapshot
