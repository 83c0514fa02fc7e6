"""Shared-work caches for repeated and batched solves.

A :class:`SolveWorkspace` is the reuse boundary of the engine: solvers that
are handed the same workspace share

* the **expanded-chain builds** (keyed by the problem's chain key)
  together with their cached
  :class:`~repro.markov.uniformization.TransientPropagator`, so a parameter
  sweep that revisits a chain never rebuilds or re-uniformises it (a
  single battery's bank of one is built by
  :func:`~repro.core.discretization.discretize`, a bank by its
  ``MultiBatterySystem.discretize``, which also resolves its backend),
* the globally memoised **Poisson windows** (hit statistics are surfaced
  here for diagnostics), and
* the **steady-state times** reported by the incremental uniformisation
  fast path, keyed by chain key: once an MRM solve has detected that a
  chain's lifetime CDF is flat beyond some time, the Monte-Carlo solver
  caps its simulation horizon there instead of simulating the flat tail.

Workspaces are cheap; :class:`~repro.engine.batch.ScenarioBatch` creates
one per run, and callers doing manual sweeps can keep one alive for as long
as the memory for the cached chains is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.core.discretization import discretize
from repro.markov.poisson import poisson_cache_diagnostics
from repro.markov.uniformization import TransientPropagator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checking import DiscretizedChain, FloatArray
    from repro.multibattery.system import MultiBatterySystem

__all__ = ["SolveWorkspace"]


@dataclass
class SolveWorkspace:
    """Caches shared by every solve routed through one engine call/batch."""

    chains: dict[tuple[Any, ...], DiscretizedChain] = field(default_factory=dict)
    propagators: dict[tuple[Any, ...], TransientPropagator] = field(
        default_factory=dict
    )
    projections: dict[tuple[Any, ...], FloatArray] = field(default_factory=dict)
    steady_state_times: dict[tuple[Any, ...], float] = field(default_factory=dict)
    #: Whether the recorded steady-state times may cap Monte-Carlo horizons.
    #: The sweep runner disables this: a cap that depends on which *other*
    #: scenarios shared the workspace would make cached Monte-Carlo results
    #: order-dependent, breaking the sweep cache's one-result-per-fingerprint
    #: contract.
    horizon_caps: bool = True
    builds: int = 0
    build_hits: int = 0

    def __post_init__(self) -> None:
        # Snapshot the process-global Poisson cache counters (both the
        # per-window memo and the shared-table memo) so diagnostics report
        # what *this* workspace's solves contributed, not the cumulative
        # process history.
        self._poisson_baseline: dict[str, int] = poisson_cache_diagnostics()
        # Already forwarded to the obs metrics registry, so repeated
        # diagnostics() calls never double-count an increment.
        self._poisson_counted: dict[str, int] = {"hits": 0, "misses": 0}

    # ------------------------------------------------------------------
    def discretized(
        self,
        model: MultiBatterySystem,
        delta: float,
        key: tuple[Any, ...],
        backend: str | None = None,
    ) -> DiscretizedChain:
        """Return the expanded chain for *key*, building it at most once.

        Without a *backend*, *model* is a single battery's bank of one and
        :func:`discretize` builds it, assembled.  With one, *model* is a
        bank and its own ``discretize`` builds the realisation *backend*
        names: the Kronecker operator for ``"assembled"`` and
        ``"matrix-free"`` (the chain records which, and :meth:`propagator`
        builds ``P`` accordingly), or the symmetry-lumped quotient.
        Callers must fold *backend* into *key*, because the backends build
        different chain and propagator objects for the same physical
        chain.
        """
        chain = self.chains.get(key)
        if chain is None:
            with obs.span("chain_build", delta=float(delta), backend=backend or "single"):
                if backend is None:
                    chain = discretize(model, delta)
                else:
                    chain = model.discretize(delta, backend=backend)
            self.chains[key] = chain
            self.builds += 1
            obs.count("workspace_chain_builds")
        else:
            self.build_hits += 1
            obs.count("workspace_chain_build_hits")
        return chain

    def propagator(self, chain: DiscretizedChain, key: tuple[Any, ...]) -> TransientPropagator:
        """Return the cached uniformised propagator for *chain*.

        The chain's ``backend`` is passed on: an ``"assembled"`` chain's
        propagator (every single battery's) writes ``P`` as CSR from the
        chain's Kronecker operator and holds only that matrix.
        """
        propagator = self.propagators.get(key)
        if propagator is None:
            with obs.span("propagator_build"):
                propagator = TransientPropagator(
                    chain.generator,
                    validate=False,
                    assemble=chain.backend == "assembled",
                )
            self.propagators[key] = propagator
        return propagator

    def empty_projection(
        self, chain: DiscretizedChain, key: tuple[Any, ...]
    ) -> FloatArray:
        """Return the cached empty-state indicator vector for *chain*."""
        projection = self.projections.get(key)
        if projection is None:
            projection = np.zeros(chain.n_states)
            projection[chain.empty_states] = 1.0
            projection.setflags(write=False)
            self.projections[key] = projection
        return projection

    # ------------------------------------------------------------------
    def note_steady_state(
        self, key: tuple[Any, ...], steady_state_time: float | None
    ) -> None:
        """Record the steady-state time an MRM solve detected for *key*.

        The earliest detection wins: a finer time grid can localise the
        flattening point more tightly, and any recorded time is a valid cap
        (the CDF is flat beyond each of them, within the solve's epsilon).
        """
        if steady_state_time is None:
            return
        time = float(steady_state_time)
        known = self.steady_state_times.get(key)
        if known is None or time < known:
            self.steady_state_times[key] = time

    def steady_state_hint(self, key: tuple[Any, ...]) -> float | None:
        """Return the recorded steady-state time for *key*, if any.

        Returns ``None`` when horizon caps are disabled for this
        workspace (see :attr:`horizon_caps`).
        """
        if not self.horizon_caps:
            return None
        return self.steady_state_times.get(key)

    # ------------------------------------------------------------------
    def diagnostics(self) -> dict[str, Any]:
        """Return reuse statistics (chain builds saved, Poisson cache hits).

        The Poisson counters are relative to the creation of this
        workspace, so they describe the solves routed through it.  The
        legacy ``poisson_cache_*`` keys combine the per-window memo and
        the shared-table memo; the per-cache breakdown follows under the
        keys of
        :func:`~repro.markov.poisson.poisson_cache_diagnostics`.
        """
        current = poisson_cache_diagnostics()
        deltas = {
            key: max(0, value - self._poisson_baseline.get(key, 0))
            for key, value in current.items()
            if key.endswith(("_hits", "_misses"))
        }
        hits = (
            deltas["poisson_window_cache_hits"] + deltas["poisson_shared_cache_hits"]
        )
        misses = (
            deltas["poisson_window_cache_misses"]
            + deltas["poisson_shared_cache_misses"]
        )
        # Forward the (not yet forwarded part of the) per-workspace deltas
        # to the obs metrics registry, where they aggregate across every
        # workspace of the run.
        obs.count("poisson_cache_hits", max(0, hits - self._poisson_counted["hits"]))
        obs.count("poisson_cache_misses", max(0, misses - self._poisson_counted["misses"]))
        self._poisson_counted["hits"] = max(self._poisson_counted["hits"], hits)
        self._poisson_counted["misses"] = max(self._poisson_counted["misses"], misses)
        return {
            "chain_builds": self.builds,
            "chain_build_hits": self.build_hits,
            "poisson_cache_hits": hits,
            "poisson_cache_misses": misses,
            **deltas,
        }
