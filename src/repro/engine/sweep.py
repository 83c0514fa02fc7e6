"""Parallel, cache-backed, fault-tolerant scenario sweeps.

:class:`~repro.engine.batch.ScenarioBatch` shares work *within* one
process; this module fans a sweep out *across* worker processes and adds a
persistent result cache plus a fault-tolerant execution layer on top:

* :class:`SweepSpec` describes a sweep declaratively as a cross-product
  over workloads x batteries x discretisation steps x solver methods, with
  one independent child RNG stream per scenario (derived in scenario order
  with :func:`repro.simulation.rng.spawn_seeds`, so results do not depend
  on the number of workers or their completion order);
* :class:`SweepCache` memoises solved scenarios in memory and, optionally,
  on disk, keyed by a fingerprint built on
  :meth:`~repro.engine.problem.LifetimeProblem.chain_key` plus every
  solver-relevant knob -- a re-run of the same spec is answered without
  solving anything.  Disk entries are version-stamped envelopes written
  atomically; unreadable or stale files are quarantined, never served;
* :func:`run_sweep` executes a sweep: scenarios that share an expanded
  chain are kept in the same chunk (so each worker retains the
  blocked-uniformisation merging of :class:`ScenarioBatch`), chunks are
  scheduled through the retrying executor layer of
  :mod:`repro.engine.executor`, workers *checkpoint every solved group to
  the cache directory as they go* (a killed sweep resumes from exactly
  what was done), and the results are reassembled in scenario order
  regardless of which worker finished first.  Failures are retried with
  exponential backoff and chunk splitting; exhausted failures either
  abort the sweep (``failure_mode="strict"``) or degrade it to a partial
  result whose failed slots carry structured
  :class:`~repro.engine.executor.ScenarioFailure` records.

Serial execution (``max_workers=1``) routes through exactly the same
chunking, retry and :class:`ScenarioBatch` machinery in-process, so
parallel and serial sweeps produce bit-identical results.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections.abc import Callable, Iterable, Sequence
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.analysis.distribution import LifetimeDistribution
from repro.battery.parameters import KiBaMParameters
from repro.engine.batch import BatchResult, ScenarioBatch, chain_merge_key
from repro.engine.diagnostics import validate_diagnostics
from repro.engine.executor import (
    ChunkOutcome,
    ChunkTask,
    CorruptResultError,
    ExecutionPolicy,
    ExecutionStats,
    ProcessChunkExecutor,
    ScenarioFailure,
    SerialChunkExecutor,
    SweepProgress,
    execute_chunks,
)
from repro.engine.faults import FaultPlan, faults_spec
from repro.engine.options import RunOptions
from repro.engine.problem import LifetimeProblem
from repro.engine.result import LifetimeResult
from repro.engine.solvers import MRMUniformizationSolver, choose_method
from repro.engine.workspace import SolveWorkspace
from repro.simulation.rng import DEFAULT_SEED, spawn_seeds
from repro.workload.base import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checking import FloatArray

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "SweepCache",
    "SweepResult",
    "SweepScenarioError",
    "SweepSpec",
    "run_sweep",
    "scenario_fingerprint",
]


class SweepScenarioError(RuntimeError):
    """A sweep worker failed while solving identifiable scenarios.

    Worker exceptions used to surface bare (``ProcessPoolExecutor`` strips
    the remote context), leaving no way to tell *which* of hundreds of
    scenarios blew up.  This wrapper names the failing chunk's scenario
    labels in the message and carries them on :attr:`labels`; the original
    error is chained as ``__cause__`` for in-process runs and summarised
    in the message for cross-process ones (chained causes do not survive
    pickling).
    """

    def __init__(self, message: str, labels: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.labels = tuple(labels)

    def __reduce__(self) -> tuple[type[SweepScenarioError], tuple[str, tuple[str, ...]]]:
        return (type(self), (self.args[0], self.labels))


#: Solvers whose results do not depend on (seed, n_runs, horizon); their
#: cache fingerprints omit those knobs, so e.g. re-running a grown
#: :class:`SweepSpec` (whose per-position child seeds shift) still hits the
#: cache for every unchanged deterministic scenario.
DETERMINISTIC_METHODS = frozenset({"analytic", MRMUniformizationSolver.name})


def scenario_fingerprint(problem: LifetimeProblem, method: str) -> str:
    """Return a stable hex fingerprint of one (scenario, solver) pair.

    The fingerprint covers everything the solution depends on -- the
    expanded-chain identity (:meth:`LifetimeProblem.chain_key`), the time
    grid and the per-method tuning knobs -- but *not* the label, so
    relabelled copies of a scenario share one cache entry; the stochastic
    knobs (seed, n_runs, horizon) are included only for solvers outside
    :data:`DETERMINISTIC_METHODS`.  *method* should be a concrete solver
    name (resolve ``"auto"`` with
    :func:`~repro.engine.solvers.choose_method` first), otherwise the same
    scenario solved via ``auto`` and via its concrete solver would be cached
    twice.  The multi-battery product-chain ``backend`` (assembled /
    matrix-free / lumped) is deliberately *not* part of the key: every
    backend computes the same lifetime law within ``epsilon``, so
    switching it must not invalidate the deterministic cache.  The
    execution knobs (worker count, retries, timeouts, failure mode, trace
    mode) never reach a problem, so *how* a scenario was solved cannot
    change its key: a retried or traced scenario hits the cache entry its
    first, untraced attempt wrote.  The flip side: a sweep meant to
    *cross-check* two backends against each other must run with
    ``cache=None`` (or distinct caches), otherwise the second run is served
    the first run's cached results verbatim.
    """
    if str(method) in DETERMINISTIC_METHODS:
        stochastic_knobs: tuple[Any, ...] = ()
    else:
        stochastic_knobs = (
            int(problem.n_runs),
            int(problem.seed),
            None if problem.horizon is None else float(problem.horizon),
        )
    key = (
        problem.chain_key(),
        str(method),
        problem.times.tobytes(),
        float(problem.epsilon),
        stochastic_knobs,
    )
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


#: Version of the on-disk cache-entry envelope.  Bump it whenever the
#: pickle layout of an entry changes; entries stamped with another version
#: are quarantined (renamed ``*.corrupt``), never deserialised into stale
#: results.
CACHE_SCHEMA_VERSION = 1


class SweepCache:
    """Fingerprint-keyed cache of solved scenarios.

    Results live in an in-memory dictionary; when *directory* is given they
    are additionally pickled to ``<directory>/<fingerprint>.pkl`` so later
    processes (or later sweep runs) can reuse them.  Entries are keyed with
    :func:`scenario_fingerprint`; anything that changes the solution --
    workload, battery, step size, grid, epsilon, seed, method -- changes
    the key, so stale hits are impossible without hash collisions.

    Each on-disk entry is an *envelope* carrying the cache schema version
    and the ``repro`` version that wrote it, and is written atomically
    (temp file + ``os.replace``), so a file either holds a complete valid
    envelope or does not exist -- which is what makes worker-side
    checkpoint streaming crash-safe.  Unreadable files and envelopes with
    a different :data:`CACHE_SCHEMA_VERSION` are quarantined by renaming
    them ``<fingerprint>.pkl.corrupt`` (so the evidence survives for
    forensics but is never re-read); :meth:`stats` reports the count.

    The on-disk format is plain :mod:`pickle`; only point the cache at
    directories you trust.

    Caches are **thread-safe** (a single re-entrant lock guards lookups,
    stores and counters) so one instance can back the concurrent request
    handlers of :class:`repro.service.server.LifetimeService` as its shared
    result store.  For that long-lived serving role two knobs matter:

    * *max_entries* bounds the in-memory tier with LRU eviction -- the
      least recently *used* entry is dropped once the bound is exceeded
      (disk envelopes are never evicted, so an evicted entry degrades to
      a ``disk_hits`` re-load instead of a re-solve);
    * the hit/miss counters are resettable per observation window via
      :meth:`reset_stats`, so a service can report steady-state hit rates
      instead of numbers forever diluted by its warmup misses.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str] | None = None,
        *,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and int(max_entries) < 1:
            raise ValueError("max_entries must be at least 1 (or None for unbounded)")
        self._memory: dict[str, LifetimeResult] = {}
        self._directory = os.fspath(directory) if directory is not None else None
        if self._directory is not None:
            os.makedirs(self._directory, exist_ok=True)
        self._lock = threading.RLock()
        self.max_entries = None if max_entries is None else int(max_entries)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.quarantined = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def directory(self) -> str | None:
        """The backing directory, or ``None`` for a memory-only cache."""
        return self._directory

    @staticmethod
    def entry_path(directory: str, fingerprint: str) -> str:
        """The on-disk path of *fingerprint*'s envelope under *directory*."""
        return os.path.join(directory, f"{fingerprint}.pkl")

    def _path(self, fingerprint: str) -> str:
        assert self._directory is not None
        return self.entry_path(self._directory, fingerprint)

    # ------------------------------------------------------------------
    @staticmethod
    def pack_entry(fingerprint: str, result: LifetimeResult) -> dict[str, Any]:
        """Build the version-stamped envelope persisted for one entry."""
        from repro import __version__

        return {
            "schema": CACHE_SCHEMA_VERSION,
            "repro_version": __version__,
            "fingerprint": fingerprint,
            "result": result,
        }

    @classmethod
    def write_entry(cls, directory: str, fingerprint: str, result: LifetimeResult) -> None:
        """Atomically persist one envelope under *directory*.

        Static so sweep *workers* can checkpoint solved groups durably
        without holding a cache instance (each worker process streams
        entries into the same directory the parent's cache reads).
        """
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=directory, suffix=".tmp", delete=False
        )
        try:
            with handle:
                pickle.dump(cls.pack_entry(fingerprint, result), handle)
            os.replace(handle.name, cls.entry_path(directory, fingerprint))
        except BaseException:
            os.unlink(handle.name)
            raise

    def _quarantine(self, path: str) -> None:
        """Rename a bad entry to ``*.corrupt`` so it is never re-read."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:  # pragma: no cover - raced by a concurrent reader
            pass
        else:
            self.quarantined += 1

    def _load_entry(self, fingerprint: str) -> LifetimeResult | None:
        """Disk lookup with envelope validation; quarantines bad files."""
        assert self._directory is not None
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated writes cannot happen (atomic replace), so an
            # unreadable file is foreign or damaged: quarantine it.
            self._quarantine(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != CACHE_SCHEMA_VERSION
            or not isinstance(envelope.get("result"), LifetimeResult)
        ):
            self._quarantine(path)
            return None
        result: LifetimeResult = envelope["result"]
        return result

    def _evict_over_bound(self) -> None:
        """Drop least-recently-used in-memory entries past *max_entries*.

        Caller must hold the lock.  Recency is the dict insertion order:
        :meth:`get` re-inserts on hit, so the first key is always the
        least recently used.  Disk envelopes survive eviction.
        """
        if self.max_entries is None:
            return
        while len(self._memory) > self.max_entries:
            oldest = next(iter(self._memory))
            del self._memory[oldest]
            self.evictions += 1

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> LifetimeResult | None:
        """Return the cached result for *fingerprint*, or ``None``."""
        with self._lock:
            result = self._memory.get(fingerprint)
            if result is not None:
                # Refresh recency so hot fingerprints survive LRU eviction.
                del self._memory[fingerprint]
                self._memory[fingerprint] = result
            elif self._directory is not None:
                result = self._load_entry(fingerprint)
                if result is not None:
                    self._memory[fingerprint] = result
                    self.disk_hits += 1
                    self._evict_over_bound()
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
            return result

    def put(self, fingerprint: str, result: LifetimeResult, *, memory_only: bool = False) -> None:
        """Store *result* under *fingerprint* (atomically on disk).

        ``memory_only=True`` skips the disk write -- used by the sweep
        driver when the worker already checkpointed the entry, so each
        result is persisted exactly once.
        """
        with self._lock:
            self._memory.pop(fingerprint, None)
            self._memory[fingerprint] = result
            self._evict_over_bound()
            if self._directory is None or memory_only:
                return
            self.write_entry(self._directory, fingerprint, result)

    def stats(self) -> dict[str, int]:
        """Return hit/miss counters and entry counts (memory *and* disk).

        ``disk_entries`` counts the ``*.pkl`` files actually on disk -- a
        resumed process reports its warm on-disk cache instead of a
        misleading empty in-memory dict; ``disk_hits`` counts lookups
        served from disk (i.e. resumed entries), ``quarantined`` the bad
        files this instance renamed ``*.corrupt``, and ``evictions`` the
        in-memory entries dropped by the LRU bound.
        """
        disk_entries = 0
        if self._directory is not None:
            disk_entries = sum(
                1 for name in os.listdir(self._directory) if name.endswith(".pkl")
            )
        with self._lock:
            return {
                "entries": len(self._memory),
                "disk_entries": disk_entries,
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "quarantined": self.quarantined,
                "evictions": self.evictions,
            }

    def reset_stats(self) -> dict[str, int]:
        """Zero the lookup counters and return the pre-reset snapshot.

        Entry counts are state, not traffic, so they are left alone; the
        hit/miss/disk-hit/quarantine/eviction counters restart at zero.
        The service calls this at observation-window boundaries so served
        hit rates describe the current window, not process lifetime.
        """
        with self._lock:
            snapshot = self.stats()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.quarantined = 0
            self.evictions = 0
            return snapshot


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: the cross-product of scenario axes.

    Attributes
    ----------
    workloads:
        The workload axis; models, or catalog names resolved with
        :func:`repro.workload.catalog.get_workload`.
    batteries:
        The battery axis.  Each entry is either a single
        :class:`KiBaMParameters` (a single-battery scenario) or a sequence
        of them (a multi-battery *bank*, expanded to a
        :class:`~repro.multibattery.problem.MultiBatteryProblem`).
    times:
        Shared evaluation time grid (seconds).
    deltas:
        Discretisation-step axis; ``None`` entries select the default step.
    methods:
        Solver axis (solver names, ``"auto"`` allowed).
    policies:
        Scheduling-policy axis for bank entries (registry names or policy
        instances); the default single ``None`` entry means
        ``"static-split"`` for banks.  Sweeps that mix single batteries
        with a non-trivial policy axis are rejected -- split them instead.
    failures_to_die:
        The ``k`` of the banks' k-of-N depletion predicate (shared;
        ``None`` selects ``k = N`` per bank).
    epsilon, n_runs, horizon:
        Tuning knobs shared by every scenario.
    seed:
        Base seed; every scenario receives its own child seed via
        :func:`~repro.simulation.rng.spawn_seeds`, in scenario order, so
        stochastic solvers are reproducible independent of worker count.

    How the spec is run -- workers, cache, retries, failure mode -- is
    :class:`~repro.engine.options.RunOptions`; tracing is ``REPRO_TRACE``
    or :func:`repro.obs.override_trace`.
    """

    workloads: Sequence[WorkloadModel | str]
    batteries: Sequence[KiBaMParameters | Sequence[KiBaMParameters]]
    times: Sequence[float] | FloatArray
    deltas: Sequence[float | None] = (None,)
    methods: Sequence[str] = ("auto",)
    policies: Sequence[object | None] = (None,)
    failures_to_die: int | None = None
    epsilon: float = 1e-8
    n_runs: int = 1000
    horizon: float | None = None
    seed: int = DEFAULT_SEED

    def __len__(self) -> int:
        return (
            len(list(self.workloads))
            * len(list(self.batteries))
            * len(list(self.policies))
            * len(list(self.deltas))
            * len(list(self.methods))
        )

    # ------------------------------------------------------------------
    def scenarios(self) -> tuple[list[LifetimeProblem], list[str]]:
        """Expand the cross-product into (problems, methods), scenario order.

        The order is workload-major: workloads x batteries x policies x
        deltas x methods, matching the nesting of the attributes.  Labels
        name every axis value so result curves are self-describing.
        """
        from repro.multibattery.policies import get_policy
        from repro.multibattery.problem import MultiBatteryProblem
        from repro.workload.catalog import get_workload

        resolved: list[tuple[str, WorkloadModel]] = []
        for entry in self.workloads:
            if isinstance(entry, str):
                resolved.append((entry, get_workload(entry)))
            else:
                resolved.append((entry.description or f"workload-{len(resolved)}", entry))
        banks: list[KiBaMParameters | tuple[KiBaMParameters, ...]] = [
            entry if isinstance(entry, KiBaMParameters) else tuple(entry)
            for entry in self.batteries
        ]
        policies = list(self.policies)
        deltas = list(self.deltas)
        methods = [str(method) for method in self.methods]
        if not resolved or not banks or not policies or not deltas or not methods:
            raise ValueError("every sweep axis needs at least one value")
        if any(isinstance(bank, KiBaMParameters) for bank in banks) and any(
            policy is not None for policy in policies
        ):
            raise ValueError(
                "the policy axis only applies to multi-battery banks; sweep "
                "single batteries and banks-with-policies separately"
            )

        count = len(resolved) * len(banks) * len(policies) * len(deltas) * len(methods)
        seeds = spawn_seeds(self.seed, count)

        problems: list[LifetimeProblem] = []
        scenario_methods: list[str] = []
        times = np.asarray(self.times, dtype=float)
        for workload_name, workload in resolved:
            for bank in banks:
                for policy in policies:
                    for delta in deltas:
                        for method in methods:
                            shared = dict(
                                workload=workload,
                                times=times,
                                delta=None if delta is None else float(delta),
                                epsilon=float(self.epsilon),
                                n_runs=int(self.n_runs),
                                seed=seeds[len(problems)],
                                horizon=self.horizon,
                            )
                            if isinstance(bank, KiBaMParameters):
                                label = (
                                    f"{workload_name} | C={bank.capacity:g}, "
                                    f"c={bank.c:g}, k={bank.k:g}"
                                )
                                problem: LifetimeProblem = LifetimeProblem(
                                    battery=bank, **shared
                                )
                            else:
                                resolved_policy = get_policy(
                                    "static-split" if policy is None else policy
                                )
                                capacities = ", ".join(
                                    f"{battery.capacity:g}" for battery in bank
                                )
                                label = (
                                    f"{workload_name} | bank[{len(bank)}]: "
                                    f"C=({capacities}) | {resolved_policy.name}"
                                )
                                problem = MultiBatteryProblem(
                                    batteries=bank,
                                    policy=resolved_policy,
                                    failures_to_die=self.failures_to_die,
                                    **shared,
                                )
                            if delta is not None:
                                label += f" | Delta={float(delta):g}"
                            if len(methods) > 1:
                                label += f" | {method}"
                            problems.append(problem.with_label(label))
                            scenario_methods.append(method)
        return problems, scenario_methods


@dataclass(frozen=True, eq=False)
class SweepResult(BatchResult):
    """Results of :func:`run_sweep`, in scenario order.

    Identical in shape to :class:`~repro.engine.batch.BatchResult`; the
    sweep-level ``diagnostics`` additionally report worker counts, cache
    hits, retry/failure counters and which scenarios were served from the
    cache.  Under ``failure_mode="degrade"`` failed slots hold placeholder
    results (``method == "failed"``, all-NaN probabilities) whose
    diagnostics carry the :class:`~repro.engine.executor.ScenarioFailure`
    record under ``"failure"``.
    """

    @property
    def labels(self) -> list[str]:
        """The scenario labels, in scenario order."""
        return [result.label for result in self.results]

    @property
    def failed_indices(self) -> list[int]:
        """Scenario indices whose slots are failure placeholders."""
        return [
            index
            for index, result in enumerate(self.results)
            if result.method == FAILED_METHOD
        ]


# ----------------------------------------------------------------------
def _chain_group_key(problem: LifetimeProblem, method: str) -> tuple[Any, ...]:
    """Chunking key: scenarios with equal keys can share an expanded chain.

    Delegates to :func:`~repro.engine.batch.chain_merge_key` (the single
    source of truth for what may share one blocked transient solve) so
    that chain-mates are never split across worker processes -- splitting
    them would forfeit the blocked-uniformisation merge each worker
    performs locally.
    """
    if method != MRMUniformizationSolver.name:
        return ("solo", method, id(problem))
    return chain_merge_key(problem)


def _estimated_cost(problem: LifetimeProblem, method: str) -> float:
    """Crude per-scenario cost estimate used to balance worker chunks."""
    if method == MRMUniformizationSolver.name:
        if problem.is_multibattery:
            # Budget on the chain the resolved backend iterates on: a
            # symmetry-lumped bank is far cheaper than its raw product
            # space suggests.
            return float(problem.estimated_backend_states()) * float(problem.times.size)
        return float(problem.estimated_mrm_states()) * float(problem.times.size)
    if method == "monte-carlo":
        return float(problem.n_runs) * 100.0
    return float(problem.workload.n_states) * float(problem.times.size) * 10.0


def _partition(
    scenarios: list[tuple[int, LifetimeProblem, str]], n_chunks: int
) -> list[list[tuple[list[int], str, list[LifetimeProblem]]]]:
    """Split scenarios into at most *n_chunks* chunks of chain-sharing groups.

    Scenarios are first grouped by :func:`_chain_group_key`; whole groups
    are then assigned to the least-loaded chunk (longest-processing-time
    greedy on the estimated cost).  Groups of equal estimated cost are
    ordered by their first scenario index, so the assignment depends only
    on the scenario list -- it is deterministic.
    """
    groups: dict[tuple[Any, ...], list[tuple[int, LifetimeProblem, str]]] = {}
    for index, problem, method in scenarios:
        groups.setdefault(_chain_group_key(problem, method), []).append(
            (index, problem, method)
        )

    weighted = sorted(
        groups.values(),
        key=lambda members: (
            -sum(_estimated_cost(problem, method) for _, problem, method in members),
            members[0][0],
        ),
    )
    n_chunks = max(1, min(n_chunks, len(weighted)))
    loads = [0.0] * n_chunks
    chunks: list[list[tuple[list[int], str, list[LifetimeProblem]]]] = [
        [] for _ in range(n_chunks)
    ]
    for members in weighted:
        slot = loads.index(min(loads))
        loads[slot] += sum(_estimated_cost(problem, method) for _, problem, method in members)
        # Within a group every scenario has the same method by construction
        # of the group key (solo groups are singletons).
        indices = [index for index, _, _ in members]
        problems = [problem for _, problem, _ in members]
        chunks[slot].append((indices, members[0][2], problems))
    return [chunk for chunk in chunks if chunk]


#: One solved chain-sharing group: the scenario indices, the solved
#: results (scenario order within the group) and whether the worker
#: already checkpointed them to the cache directory.
ChunkGroupResult = tuple[list[int], list[LifetimeResult], bool]


@dataclass
class ChunkPayload:
    """One worker's result envelope: solved groups plus its trace spans.

    ``spans`` carries the worker tracer's finished spans (as
    :meth:`repro.obs.Span.as_record` dicts) when the task requested
    tracing; :func:`~repro.engine.executor.execute_chunks` re-parents
    them under the driver's ``chunk_attempt`` span.  The executor layer
    discovers them by duck-typing (``getattr(payload, "spans", None)``),
    so it stays free of engine imports.
    """

    groups: list[ChunkGroupResult]
    spans: list[dict[str, Any]] = field(default_factory=list)


def _solve_chunk_groups(task: ChunkTask) -> list[ChunkGroupResult]:
    """Solve every chain-sharing group of *task* (see :func:`_solve_chunk_task`)."""
    plan = FaultPlan.from_spec(task.faults)
    workspace = SolveWorkspace(horizon_caps=False)
    groups: list[ChunkGroupResult] = []
    with obs.span("chunk_solve", task_id=task.task_id, attempt=task.attempt):
        for group_indices, method, group_problems in task.groups:
            indices = list(group_indices)
            problems = list(group_problems)
            labels = tuple(
                problem.label or f"scenario #{index}"
                for index, problem in zip(indices, problems)
            )
            try:
                if plan.enabled:
                    for label in labels:
                        plan.before_scenario(label, task.attempt)
                with obs.span("group_solve", method=method, size=len(problems)):
                    outcome = ScenarioBatch(problems).run(method, workspace=workspace)
            except Exception as error:
                # Attach the failing scenarios' identity: a bare worker
                # exception is useless in a sweep of hundreds of scenarios.
                named = ", ".join(repr(label) for label in labels)
                raise SweepScenarioError(
                    f"solving sweep scenario(s) {named} with method {method!r} "
                    f"failed: {type(error).__name__}: {error}",
                    labels,
                ) from error
            results = list(outcome.results)
            corrupted = False
            if plan.enabled:
                for position, label in enumerate(labels):
                    if plan.wants_corrupt(label, task.attempt):
                        results[position] = FaultPlan.corrupt(results[position])
                        corrupted = True
            checkpointed = False
            if task.checkpoint_dir is not None and not corrupted:
                for index, result in zip(indices, results):
                    fingerprint = task.fingerprints.get(index)
                    if fingerprint is not None:
                        with obs.span("checkpoint_write", scenario=index):
                            SweepCache.write_entry(task.checkpoint_dir, fingerprint, result)
                        checkpointed = True
            groups.append((indices, results, checkpointed))
    return groups


def _solve_chunk_task(task: ChunkTask) -> ChunkPayload:
    """Worker entry point: solve one task of chain-sharing groups.

    Runs in a worker process (must stay module-level picklable).  All
    groups of the task share one workspace, so chains, propagators and
    Poisson windows are reused across groups exactly as in a serial batch.
    Steady-state horizon caps are disabled: whether an MRM solve of the
    same chain happens to precede a Monte-Carlo scenario in the chunk is
    an accident of chunking, and cached results must not depend on it.

    When the task names a checkpoint directory, every solved group is
    written to it immediately (one atomic envelope per scenario, the same
    format :class:`SweepCache` reads), so the sweep's durable frontier
    advances group by group -- not sweep by sweep.  The
    :mod:`repro.engine.faults` injectors hook in here, gated on the
    task-carried fault spec; corrupted results are deliberately *not*
    checkpointed (the parent must reject them first).

    Tracing mirrors the fault wiring: the driver stamps its active trace
    mode on the task, the worker activates it with
    :func:`repro.obs.override_trace` (no environment inheritance) and
    ships the finished spans back inside the payload for the driver to
    re-parent onto its own timeline.
    """
    if task.trace in ("summary", "full"):
        with obs.override_trace(task.trace) as tracer:
            groups = _solve_chunk_groups(task)
            assert tracer is not None
            spans = [item.as_record() for item in tracer.spans()]
        return ChunkPayload(groups=groups, spans=spans)
    return ChunkPayload(groups=_solve_chunk_groups(task))


#: Sentinel ``LifetimeResult.method`` of degrade-mode failure placeholders.
FAILED_METHOD = "failed"


def _failed_result(problem: LifetimeProblem, failure: ScenarioFailure) -> LifetimeResult:
    """Placeholder result of a scenario that exhausted its retries.

    All-NaN probabilities make any numeric use of the slot conspicuous
    (means, quantiles and plots propagate the NaNs) while keeping the
    result shape uniform; the structured failure record rides in the
    (schema-valid) diagnostics.
    """
    distribution = LifetimeDistribution(
        times=problem.times,
        probabilities=np.full(problem.times.shape, np.nan),
        label=problem.label or f"scenario #{failure.index}",
        metadata={"failed": True},
    )
    return LifetimeResult(
        distribution=distribution,
        method=FAILED_METHOD,
        diagnostics={"failure": failure.as_record(), "cache_hit": False},
    )


def _validate_result_envelope(result: object, problem: LifetimeProblem) -> None:
    """Reject structurally broken worker results before they are merged.

    The checks mirror what any consumer of a lifetime CDF assumes -- the
    scenario's own grid, finite probabilities, monotone non-decreasing up
    to solver noise, schema-conforming diagnostics -- and are exactly what
    the ``corrupt`` fault injector violates.  Raising
    :class:`~repro.engine.executor.CorruptResultError` turns the bogus
    success into a retryable failure.
    """
    if not isinstance(result, LifetimeResult):
        raise CorruptResultError(
            f"worker returned {type(result).__name__}, not a LifetimeResult"
        )
    grid = np.asarray(problem.times, dtype=float).ravel()
    if result.distribution.times.shape != grid.shape or not np.array_equal(
        result.distribution.times, grid
    ):
        raise CorruptResultError("result time grid does not match the scenario grid")
    probabilities = result.distribution.probabilities
    if not bool(np.all(np.isfinite(probabilities))):
        raise CorruptResultError("lifetime CDF contains non-finite probabilities")
    if probabilities.size > 1 and float(np.min(np.diff(probabilities))) < -1e-6:
        raise CorruptResultError("lifetime CDF is not non-decreasing")
    try:
        validate_diagnostics(result.diagnostics)
    except KeyError as error:
        raise CorruptResultError(f"result diagnostics violate the schema: {error}") from None


def _with_diagnostics(result: LifetimeResult, extra: dict[str, Any]) -> LifetimeResult:
    """Return *result* with *extra* merged into its diagnostics."""
    return replace(result, diagnostics={**result.diagnostics, **extra})


def _relabelled(result: LifetimeResult, problem: LifetimeProblem) -> LifetimeResult:
    """Re-attach the scenario's label to a cache-served result."""
    label = problem.label
    if not label or result.label == label:
        return result
    return replace(result, distribution=result.distribution.relabel(label))


def default_worker_count() -> int:
    """Return the default fan-out: the CPUs available to this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity (macOS, Windows)
        return os.cpu_count() or 1


@dataclass
class _SweepPlan:
    """What :func:`run_sweep` decided before solving anything.

    ``results`` holds one slot per scenario: the plan fills in the cache
    hits, the execute step fills the rest from the ``tasks``.
    """

    problems: list[LifetimeProblem]
    methods: list[str]
    fingerprints: list[str | None]
    results: list[LifetimeResult | None]
    n_pending: int
    resumed_hits: int
    tasks: list[ChunkTask]
    executor: str
    n_workers: int

    @property
    def cache_hits(self) -> int:
        """Scenarios answered from the cache."""
        return len(self.problems) - self.n_pending


def _plan_sweep(
    scenarios: SweepSpec | ScenarioBatch | Iterable[LifetimeProblem],
    method: str,
    cache: SweepCache | None,
    max_workers: int | None,
    chunk_timeout: float | None,
) -> _SweepPlan:
    """Expand the scenarios, resolve ``auto``, scan the cache and chunk the rest.

    Only the process executor enforces deadlines, so a parallel sweep runs
    there whenever it has several chunks *or* a ``chunk_timeout``.
    """
    if isinstance(scenarios, SweepSpec):
        problems, methods = scenarios.scenarios()
    else:
        problems = scenarios.problems if isinstance(scenarios, ScenarioBatch) else list(scenarios)
        methods = [method] * len(problems)
    if not problems:
        raise ValueError("a sweep needs at least one scenario")

    # Resolve "auto" up front so cache keys and chunk groups see concrete
    # solver names (choose_method is deterministic in the problem).
    concrete = [
        choose_method(problem) if name == "auto" else name
        for problem, name in zip(problems, methods)
    ]

    results: list[LifetimeResult | None] = [None] * len(problems)
    fingerprints: list[str | None] = [None] * len(problems)
    pending: list[tuple[int, LifetimeProblem, str]] = []
    disk_hits_before = cache.disk_hits if cache is not None else 0
    with obs.span("cache_scan", n_scenarios=len(problems)):
        for index, (problem, name) in enumerate(zip(problems, concrete)):
            if cache is not None:
                fingerprint = scenario_fingerprint(problem, name)
                fingerprints[index] = fingerprint
                hit = cache.get(fingerprint)
                if hit is not None:
                    results[index] = _with_diagnostics(
                        _relabelled(hit, problem), {"cache_hit": True}
                    )
                    continue
            pending.append((index, problem, name))
    resumed_hits = (cache.disk_hits - disk_hits_before) if cache is not None else 0
    if cache is not None:
        obs.count("sweep_cache_hits", len(problems) - len(pending))
        obs.count("sweep_cache_misses", len(pending))

    workers = max(1, int(default_worker_count() if max_workers is None else max_workers))
    with obs.span("partition", n_pending=len(pending)):
        chunks = _partition(pending, workers) if pending else []
    use_process = workers > 1 and bool(chunks) and (len(chunks) > 1 or chunk_timeout is not None)

    checkpoint_dir = cache.directory if cache is not None else None
    active_faults = faults_spec()
    active_trace = obs.trace_mode()
    tasks: list[ChunkTask] = []
    for task_id, chunk in enumerate(chunks):
        chunk_fingerprints: dict[int, str] = {}
        if checkpoint_dir is not None:
            for chunk_indices, _, _ in chunk:
                for index in chunk_indices:
                    chunk_fingerprint = fingerprints[index]
                    if chunk_fingerprint is not None:
                        chunk_fingerprints[index] = chunk_fingerprint
        tasks.append(
            ChunkTask(
                task_id=task_id,
                groups=tuple(
                    (tuple(chunk_indices), chunk_method, tuple(chunk_problems))
                    for chunk_indices, chunk_method, chunk_problems in chunk
                ),
                checkpoint_dir=checkpoint_dir,
                fingerprints=chunk_fingerprints,
                faults=active_faults,
                trace="" if active_trace == "off" else active_trace,
            )
        )
    return _SweepPlan(
        problems=problems,
        methods=concrete,
        fingerprints=fingerprints,
        results=results,
        n_pending=len(pending),
        resumed_hits=resumed_hits,
        tasks=tasks,
        executor="process" if use_process else "serial",
        n_workers=len(chunks) if use_process else 1,
    )


def _validate_payload(task: ChunkTask, payload: Any) -> None:
    """Reject a worker payload whose groups or results are malformed."""
    by_index = {
        index: problem
        for group_indices, _, group_problems in task.groups
        for index, problem in zip(group_indices, group_problems)
    }
    for group_indices, group_results, _ in getattr(payload, "groups", payload):
        if len(group_indices) != len(group_results):
            raise CorruptResultError("worker payload has mismatched index/result counts")
        for index, result in zip(group_indices, group_results):
            _validate_result_envelope(result, by_index[index])


def _store_solved(payload: Any, plan: _SweepPlan, cache: SweepCache | None) -> int:
    """Fill the plan's slots from a solved chunk and store its results.

    Returns how many scenarios the worker already checkpointed; those are
    stored in memory only, so each result is persisted exactly once.
    """
    checkpointed = 0
    for group_indices, group_results, on_disk in getattr(payload, "groups", payload):
        for index, result in zip(group_indices, group_results):
            stamped = _with_diagnostics(result, {"cache_hit": False})
            plan.results[index] = stamped
            fingerprint = plan.fingerprints[index]
            if cache is not None and fingerprint is not None:
                cache.put(fingerprint, stamped, memory_only=on_disk)
        if on_disk:
            checkpointed += len(group_indices)
    return checkpointed


def _strict_error(outcome: ChunkOutcome) -> SweepScenarioError:
    """The error a strict sweep raises for a chunk that exhausted its retries."""
    error = outcome.error
    labels = error.labels if isinstance(error, SweepScenarioError) and error.labels else outcome.task.labels()
    named = ", ".join(repr(label) for label in labels)
    return SweepScenarioError(
        f"sweep scenario(s) {named} failed after {outcome.task.attempt + 1} "
        f"attempt(s): {type(error).__name__}: {error}",
        labels,
    )


def _degrade(outcome: ChunkOutcome, plan: _SweepPlan) -> list[ScenarioFailure]:
    """Fill an exhausted chunk's slots with failure placeholders."""
    failures: list[ScenarioFailure] = []
    for group_indices, group_method, group_problems in outcome.task.groups:
        for index, problem in zip(group_indices, group_problems):
            failure = ScenarioFailure(
                index=index,
                label=problem.label or f"scenario #{index}",
                method=group_method,
                error_type=type(outcome.error).__name__,
                message=str(outcome.error),
                attempts=outcome.task.attempt + 1,
                timed_out=outcome.timed_out,
            )
            plan.results[index] = _failed_result(problem, failure)
            failures.append(failure)
            obs.count("sweep_degraded_scenarios")
    return failures


def _report_progress(
    progress: Callable[[SweepProgress], None] | None,
    plan: _SweepPlan,
    started: float,
    done: int,
    failed: int,
    retries: int,
) -> None:
    """Hand one :class:`SweepProgress` event to *progress*, if given."""
    if progress is None:
        return
    elapsed = obs.now() - started
    solved_so_far = done - plan.cache_hits
    remaining = len(plan.problems) - done
    eta: float | None = None
    if remaining == 0:
        eta = 0.0
    elif solved_so_far > 0:
        eta = elapsed / solved_so_far * remaining
    progress(
        SweepProgress(
            total=len(plan.problems), done=done, failed=failed, retries=retries, elapsed_seconds=elapsed, eta_seconds=eta
        )
    )


def run_sweep(
    scenarios: SweepSpec | ScenarioBatch | Iterable[LifetimeProblem],
    method: str = "auto",
    *,
    options: RunOptions | None = None,
) -> SweepResult:
    """Solve a scenario sweep, fanning uncached work out over processes.

    Parameters
    ----------
    scenarios:
        A :class:`SweepSpec` (which carries per-scenario solver methods), a
        :class:`ScenarioBatch`, or an iterable of
        :class:`LifetimeProblem` objects.
    method:
        Solver name applied to every scenario when *scenarios* is not a
        :class:`SweepSpec`; ``"auto"`` resolves per scenario.
    options:
        :class:`~repro.engine.options.RunOptions` bundling every execution
        knob:

        * ``max_workers`` -- worker-process count; ``None`` uses the CPUs
          available to this process and ``1`` solves everything in-process
          (same code path, identical results).
        * ``cache`` -- optional :class:`SweepCache`.  Scenarios found in
          the cache are not solved again; their results carry
          ``diagnostics["cache_hit"] == True``.  Freshly solved scenarios
          are stored back and carry ``cache_hit == False``.  With a
          disk-backed cache, workers checkpoint each solved chain-sharing
          group to the cache directory *as it finishes*, so a sweep killed
          mid-run resumes from its last completed group
          (``diagnostics["resumed_hits"]`` counts the entries a run
          recovered from disk).  ``cache_dir`` is the convenience
          spelling, used only when ``cache`` is ``None``.
        * ``execution`` -- :class:`~repro.engine.executor.ExecutionPolicy`
          controlling retries, per-chunk timeouts, backoff and the failure
          mode (default: two retries, no timeout, strict).  None of these
          knobs affects cache fingerprints.  ``failure_mode="strict"``
          raises :class:`SweepScenarioError` naming the failing scenarios
          once their retries are exhausted; ``"degrade"`` returns a
          partial :class:`SweepResult` whose failed slots carry structured
          :class:`~repro.engine.executor.ScenarioFailure` records.
        * ``progress`` -- optional callback receiving
          :class:`~repro.engine.executor.SweepProgress` events (scenario
          counts, retries, elapsed and ETA seconds) after the cache scan
          and after every completed or failed chunk.

    Returns
    -------
    SweepResult
        Results in scenario order -- independent of worker count and
        completion order -- plus sweep-level diagnostics (``n_workers``,
        ``n_chunks``, ``cache_hits``, ``n_retries``, ``resumed_hits``,
        ``wall_seconds``, ...).
    """
    opts = options or RunOptions()
    policy = opts.execution or ExecutionPolicy()
    cache = opts.resolve_cache()
    started = obs.now()
    with obs.span("sweep"):
        plan = _plan_sweep(scenarios, method, cache, opts.max_workers, policy.chunk_timeout)

        stats = ExecutionStats()
        done = plan.cache_hits
        checkpointed = 0
        failures: list[ScenarioFailure] = []
        _report_progress(opts.progress, plan, started, done, 0, 0)
        if plan.tasks:
            executor: SerialChunkExecutor | ProcessChunkExecutor
            if plan.executor == "process":
                executor = ProcessChunkExecutor(_solve_chunk_task, plan.n_workers, policy.chunk_timeout)
            else:
                executor = SerialChunkExecutor(_solve_chunk_task)
            with closing(execute_chunks(plan.tasks, executor, policy, stats, validate=_validate_payload)) as outcomes:
                for outcome in outcomes:
                    if outcome.error is None:
                        checkpointed += _store_solved(outcome.payload, plan, cache)
                    elif policy.failure_mode == "strict":
                        raise _strict_error(outcome) from outcome.error
                    else:
                        failures += _degrade(outcome, plan)
                    done += outcome.task.n_scenarios
                    _report_progress(opts.progress, plan, started, done, len(failures), stats.n_retries)

        assert all(result is not None for result in plan.results)
        diagnostics: dict[str, Any] = {
            "n_scenarios": len(plan.problems),
            "n_solved": plan.n_pending - len(failures),
            "cache_hits": plan.cache_hits,
            "resumed_hits": plan.resumed_hits,
            "n_workers": plan.n_workers,
            "n_chunks": len(plan.tasks),
            "parallel": plan.executor == "process",
            "executor": plan.executor,
            "failure_mode": policy.failure_mode,
            "n_retries": stats.n_retries,
            "n_timeouts": stats.n_timeouts,
            "n_pool_rebuilds": stats.pool_rebuilds,
            "n_failed": len(failures),
            "checkpointed": checkpointed,
            "methods": sorted(set(plan.methods)),
            "wall_seconds": obs.now() - started,
            "trace_mode": obs.trace_mode(),
        }
        if failures:
            diagnostics["failures"] = [failure.as_record() for failure in failures]
        if cache is not None:
            diagnostics["cache"] = cache.stats()
        tracer = obs.current_tracer()
        if tracer is not None:
            diagnostics["n_spans"] = len(tracer.spans())
        registry = obs.metrics_registry()
        if registry is not None:
            diagnostics["metrics"] = registry.snapshot()
        return SweepResult(results=tuple(plan.results), diagnostics=diagnostics)
