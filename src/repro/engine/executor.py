"""Fault-tolerant chunk execution for scenario sweeps.

:func:`repro.engine.sweep.run_sweep` used to fan chunks over a bare
``ProcessPoolExecutor.map``: one OOM-killed or crashing worker aborted the
whole sweep, a hung scenario stalled it forever, and nothing reached the
cache until *every* chunk had returned.  This module is the execution
layer that replaces that call:

* :class:`ExecutionPolicy` -- the retry / timeout / backoff / degradation
  knobs.  Deliberately excluded from the scenario fingerprints: how a
  result was obtained must not change its cache key.
* :class:`ChunkTask` / :class:`ChunkOutcome` -- one schedulable chunk of
  chain-sharing scenario groups and its completion record.
* :class:`SerialChunkExecutor` / :class:`ProcessChunkExecutor` -- the
  in-process executor and the process-pool executor.  The process
  executor enforces per-chunk deadlines and survives
  ``BrokenProcessPool`` by killing and rebuilding its pool; tasks that
  were merely sharing the pool with the offender are resubmitted without
  consuming a retry.
* :func:`execute_chunks` -- the deterministic retry loop: failed chunks
  back off exponentially and are *split* on retry (first into their
  chain-sharing groups, then into single scenarios), so a poison scenario
  is isolated down to a one-scenario chunk instead of poisoning its
  chunk-mates.  It yields each chunk's final outcome -- a validated
  success or an exhausted failure -- and the caller either raises
  (``failure_mode="strict"``) or records a :class:`ScenarioFailure` and
  degrades (``failure_mode="degrade"``).

The layer is exercised end-to-end by the deterministic fault injectors of
:mod:`repro.engine.faults` (``REPRO_FAULTS``).
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable, Iterator, Mapping, Sequence

__all__ = [
    "FAILURE_MODES",
    "ChunkOutcome",
    "ChunkTask",
    "ChunkTimeoutError",
    "CorruptResultError",
    "ExecutionPolicy",
    "ExecutionStats",
    "ProcessChunkExecutor",
    "ScenarioFailure",
    "SerialChunkExecutor",
    "SweepProgress",
    "execute_chunks",
]

#: What happens when a chunk exhausts its retries: ``"strict"`` raises
#: :class:`~repro.engine.sweep.SweepScenarioError`, ``"degrade"`` returns a
#: partial sweep whose failed slots carry :class:`ScenarioFailure` records.
FAILURE_MODES = ("strict", "degrade")

#: Growth factor and cap (seconds) of the exponential retry backoff.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 5.0

#: One chunk: a tuple of chain-sharing groups, each ``(scenario indices,
#: concrete method, problems)``.  Problems are typed loosely so this module
#: never imports the problem classes it schedules.
ChunkGroups = tuple[tuple[tuple[int, ...], str, tuple[Any, ...]], ...]


class ChunkTimeoutError(RuntimeError):
    """A chunk exceeded its per-chunk deadline and its worker was killed."""


class CorruptResultError(RuntimeError):
    """A worker returned a structurally invalid result envelope."""


@dataclasses.dataclass(frozen=True)
class ExecutionPolicy:
    """Retry / timeout / degradation policy of one sweep run.

    None of these knobs can change a solved curve -- they only decide how
    hard the driver tries to obtain it -- so none of them feeds the
    scenario fingerprints.

    Attributes
    ----------
    max_retries:
        Additional attempts after the first failure of a chunk (its
        scenarios' total attempt budget is ``max_retries + 1``).  Every
        retry splits the failed chunk -- first into its chain-sharing
        groups, then into single scenarios -- so one poison scenario
        cannot take its chunk-mates down with it.
    chunk_timeout:
        Per-chunk deadline in seconds; on expiry the worker pool is killed
        and rebuilt and the chunk counts as failed (retried like a crash).
        ``None`` disables deadlines.  Only the process executor enforces
        timeouts, so a parallel sweep with a deadline always runs its
        chunks in worker processes; a serial (``max_workers=1``) sweep has
        nobody to reap a hung solve.
    backoff_base:
        Retry *n* waits ``min(BACKOFF_MAX, backoff_base * BACKOFF_FACTOR**n)``
        seconds.
    failure_mode:
        ``"strict"`` (default) raises after retries are exhausted;
        ``"degrade"`` records :class:`ScenarioFailure` slots and returns a
        partial result.
    """

    max_retries: int = 2
    chunk_timeout: float | None = None
    backoff_base: float = 0.1
    failure_mode: str = "strict"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries!r}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0.0:
            raise ValueError(f"chunk_timeout must be positive, got {self.chunk_timeout!r}")
        if self.backoff_base < 0.0:
            raise ValueError(f"backoff_base must be non-negative, got {self.backoff_base!r}")
        if self.failure_mode not in FAILURE_MODES:
            raise ValueError(
                f"failure_mode {self.failure_mode!r} is not one of {FAILURE_MODES}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff delay before resubmitting a chunk that failed *attempt*."""
        return min(BACKOFF_MAX, self.backoff_base * BACKOFF_FACTOR**attempt)


@dataclasses.dataclass(frozen=True)
class ScenarioFailure:
    """Structured record of one scenario that exhausted its retries.

    Under ``failure_mode="degrade"`` the failed slot of the
    :class:`~repro.engine.sweep.SweepResult` carries this record in its
    (schema-validated) diagnostics; the sweep-level diagnostics list every
    record under ``"failures"``.
    """

    index: int
    label: str
    method: str
    error_type: str
    message: str
    attempts: int
    timed_out: bool

    def as_record(self) -> dict[str, Any]:
        """The record as a plain dict (JSON-friendly, pickle-stable)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ChunkTask:
    """One schedulable chunk of chain-sharing scenario groups.

    Tasks are picklable (they cross the process boundary) and carry
    everything a worker needs beyond the problems themselves: the attempt
    counter (consulted by the fault injectors and reported in failures),
    the checkpoint directory and per-scenario cache fingerprints (so the
    worker can stream each solved group durably to disk), the active
    fault spec (so :func:`~repro.engine.faults.override_faults` in the
    parent reaches workers without environment inheritance), and the
    trace mode (so ``repro.obs.override_trace`` in a worker mirrors the
    driver's ``REPRO_TRACE`` the same way).
    """

    task_id: int
    groups: ChunkGroups
    attempt: int = 0
    checkpoint_dir: str | None = None
    fingerprints: "Mapping[int, str]" = dataclasses.field(default_factory=dict)
    faults: str = ""
    trace: str = ""

    @property
    def indices(self) -> tuple[int, ...]:
        """All scenario indices of the task, group order."""
        return tuple(index for indices, _, _ in self.groups for index in indices)

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios the task carries."""
        return sum(len(indices) for indices, _, _ in self.groups)

    def labels(self) -> tuple[str, ...]:
        """Scenario labels (falling back to ``scenario #<index>``)."""
        named: list[str] = []
        for indices, _, problems in self.groups:
            for index, problem in zip(indices, problems):
                named.append(getattr(problem, "label", None) or f"scenario #{index}")
        return tuple(named)

    def split_groups(self) -> list[ChunkGroups]:
        """Split for retry: multi-group tasks into groups, then scenarios.

        Splitting a chain-sharing group forfeits its blocked-propagation
        merge, so it is the last resort -- but it is what isolates a
        poison scenario down to a single-scenario chunk.  A task already
        at one scenario returns itself unchanged.
        """
        if len(self.groups) > 1:
            return [(group,) for group in self.groups]
        if self.groups and len(self.groups[0][0]) > 1:
            indices, method, problems = self.groups[0]
            return [
                (((index,), method, (problem,)),)
                for index, problem in zip(indices, problems)
            ]
        return [self.groups]


@dataclasses.dataclass
class ChunkOutcome:
    """Completion record of one :class:`ChunkTask` submission."""

    task: ChunkTask
    payload: Any = None
    error: BaseException | None = None
    timed_out: bool = False


@dataclasses.dataclass(frozen=True)
class SweepProgress:
    """One progress event handed to a sweep's ``progress`` callback."""

    total: int
    done: int
    failed: int
    retries: int
    elapsed_seconds: float
    eta_seconds: float | None


@dataclasses.dataclass
class ExecutionStats:
    """Counters accumulated by one :func:`execute_chunks` run."""

    n_retries: int = 0
    n_timeouts: int = 0
    n_failed_tasks: int = 0
    n_splits: int = 0
    pool_rebuilds: int = 0


# ----------------------------------------------------------------------
class SerialChunkExecutor:
    """In-process executor: solves one queued task per :meth:`poll`.

    The executor of serial sweeps (``max_workers=1``) -- the exact same
    retry/split/degrade driver runs on top, so serial and parallel sweeps
    share one fault-handling path.  Deadlines are not enforced: a hung
    in-process solve has nobody left to reap it.
    """

    def __init__(self, work: "Callable[[ChunkTask], Any]") -> None:
        self._work = work
        self._queue: list[ChunkTask] = []
        self.pool_rebuilds = 0

    @property
    def capacity(self) -> int:
        """Concurrent tasks the executor accepts (one: it is serial)."""
        return 1

    def submit(self, task: ChunkTask) -> None:
        """Queue *task* for the next :meth:`poll`."""
        self._queue.append(task)

    def poll(self, timeout: float | None = None) -> list[ChunkOutcome]:
        """Run the oldest queued task to completion and return its outcome."""
        del timeout
        if not self._queue:
            return []
        task = self._queue.pop(0)
        try:
            payload = self._work(task)
        except Exception as error:
            return [ChunkOutcome(task=task, error=error)]
        return [ChunkOutcome(task=task, payload=payload)]

    def shutdown(self) -> None:
        """Drop any queued tasks."""
        self._queue.clear()


class ProcessChunkExecutor:
    """Process-pool executor with per-chunk deadlines and pool rebuilds.

    Wraps a ``ProcessPoolExecutor`` and adds the two recoveries the bare
    pool lacks:

    * ``BrokenProcessPool`` (a worker OOM-killed or SIGKILLed) fails every
      in-flight task -- the offender cannot be told apart from its pool
      mates -- and the pool is rebuilt; the retry driver above re-runs and
      splits them, which isolates the actual offender.
    * An expired per-chunk deadline kills the worker processes outright
      (a hung worker ignores gentler signals), rebuilds the pool, fails
      the expired tasks with :class:`ChunkTimeoutError` and transparently
      resubmits the *innocent* in-flight tasks with a fresh deadline and
      no attempt consumed.
    """

    def __init__(self, work: "Callable[[ChunkTask], Any]", max_workers: int, timeout: float | None) -> None:
        self._work = work
        self._max_workers = max(1, int(max_workers))
        self._timeout = timeout
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(self._max_workers)
        self._inflight: dict[Future[Any], tuple[ChunkTask, float | None]] = {}
        self.pool_rebuilds = 0

    @property
    def capacity(self) -> int:
        """Concurrent tasks the executor accepts (its worker count)."""
        return self._max_workers

    def submit(self, task: ChunkTask) -> None:
        """Submit *task* to the pool, stamping its deadline."""
        if self._pool is None:
            raise RuntimeError("executor is shut down")
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        future = self._pool.submit(self._work, task)
        self._inflight[future] = (task, deadline)

    def poll(self, timeout: float | None = None) -> list[ChunkOutcome]:
        """Wait (up to *timeout* and the nearest deadline) for completions."""
        if not self._inflight:
            return []
        wait_for = timeout
        deadlines = [deadline for _, deadline in self._inflight.values() if deadline is not None]
        if deadlines:
            until_deadline = max(0.0, min(deadlines) - time.monotonic())
            wait_for = until_deadline if wait_for is None else min(wait_for, until_deadline)
        done, _ = wait(list(self._inflight), timeout=wait_for, return_when=FIRST_COMPLETED)
        outcomes: list[ChunkOutcome] = []
        for future in done:
            task, _ = self._inflight.pop(future)
            try:
                payload = future.result()
            except BrokenProcessPool as error:
                # The pool is gone; every in-flight task failed with it.
                outcomes.append(ChunkOutcome(task=task, error=error))
                for other, _ in self._inflight.values():
                    outcomes.append(ChunkOutcome(task=other, error=error))
                self._inflight.clear()
                self._rebuild(kill=False)
                return outcomes
            except Exception as error:
                outcomes.append(ChunkOutcome(task=task, error=error))
            else:
                outcomes.append(ChunkOutcome(task=task, payload=payload))
        if outcomes:
            return outcomes
        return self._reap_expired()

    def _reap_expired(self) -> list[ChunkOutcome]:
        """Kill the pool when a deadline expired; resubmit the innocents."""
        now = time.monotonic()
        expired = [
            task
            for future, (task, deadline) in self._inflight.items()
            if deadline is not None and deadline <= now and not future.done()
        ]
        if not expired:
            return []
        outcomes: list[ChunkOutcome] = []
        victims: list[ChunkTask] = []
        for future, (task, deadline) in list(self._inflight.items()):
            if future.done():
                # Finished in the race window between wait() and the
                # deadline check -- harvest before the result is lost.
                try:
                    payload = future.result()
                except Exception as error:
                    outcomes.append(ChunkOutcome(task=task, error=error))
                else:
                    outcomes.append(ChunkOutcome(task=task, payload=payload))
            elif deadline is not None and deadline <= now:
                outcomes.append(
                    ChunkOutcome(
                        task=task,
                        error=ChunkTimeoutError(
                            f"chunk of {task.n_scenarios} scenario(s) exceeded its "
                            f"{self._timeout!r}s deadline (attempt {task.attempt})"
                        ),
                        timed_out=True,
                    )
                )
            else:
                victims.append(task)
        self._inflight.clear()
        self._rebuild(kill=True)
        for task in victims:
            self.submit(task)
        return outcomes

    def _rebuild(self, *, kill: bool) -> None:
        """Replace the pool; *kill* first when workers may be hung."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            if kill:
                processes = getattr(pool, "_processes", None) or {}
                for process in list(processes.values()):
                    process.kill()
            pool.shutdown(wait=True, cancel_futures=True)
        self._pool = ProcessPoolExecutor(self._max_workers)
        self.pool_rebuilds += 1

    def shutdown(self) -> None:
        """Tear the pool down; kill workers if tasks are still in flight."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        if self._inflight:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                process.kill()
            self._inflight.clear()
        pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
def execute_chunks(
    tasks: "Sequence[ChunkTask]",
    executor: SerialChunkExecutor | ProcessChunkExecutor,
    policy: ExecutionPolicy,
    stats: ExecutionStats,
    *,
    validate: "Callable[[ChunkTask, Any], None] | None" = None,
) -> "Iterator[ChunkOutcome]":
    """Run *tasks* to completion under *policy*'s retry rules.

    A generator of final outcomes: each yielded :class:`ChunkOutcome` is
    either a validated success (``error is None``) or a failure that
    exhausted its retries.  The loop keeps at most ``executor.capacity``
    tasks in flight, applies *validate* to every successful payload (a
    :class:`CorruptResultError` turns the success into a retryable
    failure), and retries failures with exponential backoff, splitting
    every failed chunk.  Backoff is driven by a ready-time priority queue,
    so a backing-off chunk never blocks other chunks from being submitted.
    *stats* is updated in place as the run goes, so a consumer can read
    the retry count between outcomes.

    The executor is shut down when the generator finishes or is closed,
    killing in-flight workers; a consumer that may stop early (strict mode
    raises on the first exhausted failure) should close it
    deterministically, e.g. with :func:`contextlib.closing`.

    When tracing is active (:mod:`repro.obs`), every attempt is recorded
    as a ``chunk_attempt`` span bracketing submit-to-outcome on the
    driver timeline, every backoff wait as a ``backoff`` span, and the
    spans a worker shipped back inside its payload (any object with a
    ``spans`` attribute) are re-parented under the attempt span.
    """
    sequence = 0
    next_id = max((task.task_id for task in tasks), default=-1) + 1
    ready: list[tuple[float, int, ChunkTask]] = []
    for task in tasks:
        heapq.heappush(ready, (0.0, sequence, task))
        sequence += 1
    inflight = 0
    # Per-attempt submit timestamps, pending backoff starts and retry
    # lineage, keyed by task_id (unique per attempt: retries always get a
    # fresh id).  The lineage lets a trace reader chain a retry's spans
    # back to the failed attempt it follows.
    submitted: dict[int, float] = {}
    backing_off: dict[int, float] = {}
    retry_of: dict[int, int] = {}
    try:
        while ready or inflight:
            now = time.monotonic()
            while ready and inflight < executor.capacity and ready[0][0] <= now:
                _, _, task = heapq.heappop(ready)
                submit_at = obs.now()
                wait_started = backing_off.pop(task.task_id, None)
                if wait_started is not None:
                    obs.record_span(
                        "backoff",
                        start=wait_started,
                        end=submit_at,
                        task_id=task.task_id,
                        attempt=task.attempt,
                        retry_of=retry_of.get(task.task_id),
                    )
                submitted[task.task_id] = submit_at
                executor.submit(task)
                inflight += 1
            if inflight == 0:
                time.sleep(max(0.0, ready[0][0] - time.monotonic()))
                continue
            poll_timeout = max(0.0, ready[0][0] - time.monotonic()) if ready else None
            for outcome in executor.poll(poll_timeout):
                inflight -= 1
                task = outcome.task
                error = outcome.error
                if error is None and validate is not None:
                    try:
                        validate(task, outcome.payload)
                    except CorruptResultError as corrupt:
                        error = outcome.error = corrupt
                status = "ok" if error is None else ("timeout" if outcome.timed_out else "failed")
                attempt_started = submitted.pop(task.task_id, None)
                attempt_span: str | None = None
                if attempt_started is not None:
                    attempt_span = obs.record_span(
                        "chunk_attempt",
                        start=attempt_started,
                        end=obs.now(),
                        task_id=task.task_id,
                        attempt=task.attempt,
                        n_scenarios=task.n_scenarios,
                        status=status,
                        retry_of=retry_of.get(task.task_id),
                    )
                if error is None:
                    worker_spans = getattr(outcome.payload, "spans", None)
                    if worker_spans and attempt_span is not None and attempt_started is not None:
                        obs.ingest_spans(
                            worker_spans,
                            parent_id=attempt_span,
                            align_start=attempt_started,
                        )
                    yield outcome
                    continue
                if outcome.timed_out:
                    stats.n_timeouts += 1
                    obs.count("executor_timeouts")
                if task.attempt >= policy.max_retries:
                    stats.n_failed_tasks += 1
                    obs.count("executor_exhausted_tasks")
                    yield outcome
                    continue
                stats.n_retries += 1
                obs.count("executor_retries")
                due = time.monotonic() + policy.backoff(task.attempt)
                pieces = task.split_groups()
                if len(pieces) > 1:
                    stats.n_splits += 1
                    obs.count("executor_splits")
                wait_from = obs.now()
                for piece in pieces:
                    retry = dataclasses.replace(
                        task, task_id=next_id, groups=piece, attempt=task.attempt + 1
                    )
                    next_id += 1
                    backing_off[retry.task_id] = wait_from
                    retry_of[retry.task_id] = task.task_id
                    heapq.heappush(ready, (due, sequence, retry))
                    sequence += 1
    finally:
        executor.shutdown()
        stats.pool_rebuilds = executor.pool_rebuilds
