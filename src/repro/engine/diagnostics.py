"""The shared schema of solver ``diagnostics`` keys.

Every :class:`~repro.engine.result.LifetimeResult` (and the sweep/batch
aggregates) carries a ``diagnostics`` mapping.  Downstream consumers --
experiment renderers, bench-regression diffs, the planned service-layer
metrics -- address those entries by string key, so a typo'd or ad-hoc key
is a silent contract break: the producer thinks it reported something,
the consumer reads ``None``.  This module is the single source of truth
for the vocabulary.  Lint rule RPR004 (``tools/repro_lint.py``) parses
the literal below and flags any literal diagnostics key used in
:mod:`repro.engine` that is not part of it; :func:`validate_diagnostics`
gives runtime code and tests the same check.

``DIAGNOSTICS_SCHEMA`` must stay a pure ``{str: str}`` literal -- the
lint pass reads it with ``ast.literal_eval`` without importing the
package.

The schema doubles as the *map* of who writes what.  Keys are grouped,
in order, by producing layer:

* **shared MRM solve telemetry** and **transient fast-path telemetry**
  -- ``MRMUniformizationSolver.solve_group``
  (:mod:`repro.engine.solvers`) stamps these on every uniformisation
  solve, the latter read off its
  :class:`~repro.markov.uniformization.BatchTransientResult`;
* **analytic / Monte-Carlo / auto** -- the respective solvers of
  :mod:`repro.engine.solvers`;
* **scenario batching** -- ``solve_group`` on groups of two or more
  (``batched``, ``batch_size``, ``batch_rows``) and
  :meth:`~repro.engine.batch.ScenarioBatch.run` (the batch counts);
* **workspace reuse** -- :class:`~repro.engine.workspace.SolveWorkspace`
  chain/Poisson cache accounting;
* **sweep driver** -- :func:`~repro.engine.sweep.run_sweep` aggregates;
* **fault-tolerant execution** -- :func:`~repro.engine.executor.execute_chunks`
  retry/timeout/degrade accounting, surfaced through the sweep;
* **observability** -- :mod:`repro.obs` trace/metrics summaries attached
  by ``run_sweep`` (the ``"metrics"`` value is a nested
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict).
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["DIAGNOSTIC_KEYS", "DIAGNOSTICS_SCHEMA", "validate_diagnostics"]

#: Key -> one-line meaning.  Grouped by the layer that writes them.
DIAGNOSTICS_SCHEMA = {
    # -- shared MRM solve telemetry (solve_group) -----------------------
    "delta": "discretisation step (ampere-seconds per charge level)",
    "n_states": "number of states of the solved chain",
    "n_nonzero": "structural non-zeros of the generator",
    "uniformization_rate": "uniformisation rate Lambda of the solve",
    "iterations": "vector-matrix products performed",
    "epsilon": "truncation/accuracy bound of the solve",
    "cdf_mass_achieved": "CDF mass reached at the last grid time",
    "cdf_complete": "whether the grid captured the whole CDF",
    "wall_seconds": "wall-clock seconds of the producing call",
    "backend": "chain backend that solved (assembled/matrix-free/lumped)",
    # -- transient fast-path telemetry (solve_group) --------------------
    "n_segments": "Poisson-window segments of the incremental chain",
    "iterations_saved": "products avoided by steady-state detection",
    "steady_state_time": "detected steady-state time (None if not reached)",
    "steady_state_iteration": "product index at steady-state detection",
    "poisson_window_cache_hits": "per-window Poisson memo hits",
    "poisson_window_cache_misses": "per-window Poisson memo misses",
    "poisson_window_cache_size": "per-window Poisson memo entries",
    "poisson_window_cache_maxsize": "per-window Poisson memo capacity",
    "poisson_shared_cache_hits": "shared-table Poisson memo hits",
    "poisson_shared_cache_misses": "shared-table Poisson memo misses",
    "poisson_shared_cache_size": "shared-table Poisson memo entries",
    "poisson_shared_cache_maxsize": "shared-table Poisson memo capacity",
    # -- analytic solver ------------------------------------------------
    "effective_capacity_as": "available well c*C in ampere-seconds",
    # -- Monte-Carlo solver ---------------------------------------------
    "n_runs": "number of simulated replications",
    "seed": "base seed of the replication RNG tree",
    "horizon": "simulation horizon in seconds",
    "mean_lifetime_seconds": "sample-mean lifetime of the replications (None if all censored)",
    "censored_runs": "replications still alive at the horizon",
    "horizon_capped_by_steady_state": "whether a steady-state hint capped the horizon",
    "steady_state_horizon_hint": "workspace steady-state time used for the cap",
    # -- auto dispatch --------------------------------------------------
    "auto_dispatched_to": "concrete solver the auto method selected",
    # -- scenario batching (ScenarioBatch) ------------------------------
    "batched": "whether the result came from a stacked batch solve",
    "batch_size": "scenarios sharing the batch's chain",
    "batch_rows": "stacked initial-distribution rows of the batch",
    "n_scenarios": "scenarios in the batch/sweep",
    "merged_groups": "chain-sharing groups the batch merged",
    "stacked_scenarios": "scenarios solved via stacked propagation",
    # -- workspace reuse ------------------------------------------------
    "chain_builds": "chains discretised by the workspace",
    "chain_build_hits": "chain builds served from the workspace cache",
    "poisson_cache_hits": "combined Poisson memo hits (both caches)",
    "poisson_cache_misses": "combined Poisson memo misses (both caches)",
    # -- sweep driver ---------------------------------------------------
    "n_solved": "scenarios actually solved (not cache-served, not failed)",
    "cache_hit": "whether this scenario came from the sweep cache",
    "cache_hits": "scenarios served from the sweep cache",
    "resumed_hits": "cache hits recovered from on-disk checkpoints",
    "n_workers": "worker processes of the sweep",
    "n_chunks": "chain-sharing chunks the sweep partitioned into",
    "parallel": "whether the sweep fanned out over processes",
    "methods": "concrete solver methods the sweep used",
    "cache": "sweep-cache statistics (hits/misses/entries/quarantined)",
    # -- fault-tolerant execution (repro.engine.executor) ----------------
    "executor": "execution backend that ran the sweep (serial or process)",
    "failure_mode": "strict (raise) or degrade (partial results) policy",
    "n_retries": "chunk attempts retried after a failure",
    "n_timeouts": "chunk attempts killed by the per-chunk deadline",
    "n_pool_rebuilds": "worker-pool rebuilds after crashes or timeouts",
    "n_failed": "scenarios that exhausted their retries (degrade mode)",
    "checkpointed": "scenarios durably checkpointed by workers this run",
    "failure": "structured ScenarioFailure record of one failed slot",
    "failures": "all ScenarioFailure records of a degraded sweep",
    # -- observability (repro.obs) ---------------------------------------
    "trace_mode": "REPRO_TRACE mode the sweep ran under (off/summary/full)",
    "n_spans": "trace spans held by the driver tracer after the sweep",
    "metrics": "obs metrics snapshot (counters/gauges/histograms) of the run",
    # -- lifetime-query service (repro.service) ---------------------------
    "served_from": "how the service answered: solve / cache / coalesced",
    "query_fingerprint": "audited scenario fingerprint the query keyed on",
    "query_id": "monotone per-service sequence number of the request",
    "service_latency_seconds": "request wall time inside the service",
}

#: The allowed key set, for fast membership checks.
DIAGNOSTIC_KEYS = frozenset(DIAGNOSTICS_SCHEMA)


def validate_diagnostics(diagnostics: Mapping[str, Any]) -> None:
    """Raise ``KeyError`` when *diagnostics* uses keys outside the schema.

    Used by the validator self-tests; producers are checked statically by
    lint rule RPR004 instead, so the hot path never pays for this.
    """
    unknown = sorted(set(diagnostics) - DIAGNOSTIC_KEYS)
    if unknown:
        raise KeyError(
            f"diagnostics keys {unknown} are not in the shared schema; add them "
            "to repro.engine.diagnostics.DIAGNOSTICS_SCHEMA with a one-line meaning"
        )
