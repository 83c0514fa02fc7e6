"""Benchmark-side tracing: spans around the public calls of each layer.

The traced run wraps the public functions and methods each layer exposes
(see :func:`install`) from the benchmark's own files; the program is not
edited.  A wrapped call becomes either

* a *span* (name, start, end, parent, process, thread, workload and the
  counts read off its result), kept in memory and written to a JSONL file
  when the run ends; or
* for calls made thousands of times per operation (one ``v @ P``
  product, one Poisson-window lookup, one store read) a *hot* call, which
  is folded into its enclosing span as a count, an inclusive time and a
  self time, so that the trace stays small.

Sweep workers are forked from the benchmark process, so they inherit the
wrappers.  A worker appends its records to a file of its own in the output
directory whenever one of its root spans closes (pool workers end without
running exit handlers); the driver merges the files after each sweep.
All timestamps come from ``time.perf_counter``, which reads the
system-wide monotonic clock on Linux, so driver and worker spans share
one timeline.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Smallest normal double; non-zero magnitudes below it are subnormal.
_TINY = sys.float_info.min


def layer_of(name: str) -> str:
    """Layer of a span or hot-call name: the prefix up to its last dot."""
    return name.rsplit(".", 1)[0]


class _Frame:
    """One open span: its identity, counts and the hot calls inside it."""

    __slots__ = ("id", "name", "parent", "start", "attrs", "hot", "hot_stack", "hot_top")

    def __init__(self, span_id: str, name: str, parent: str | None) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.attrs: dict[str, Any] = {}
        # name -> [calls, inclusive seconds, self seconds]
        self.hot: dict[str, list[float]] = {}
        self.hot_stack: list[list[float]] = []
        self.hot_top = 0.0

    def add(self, key: str, value: float) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + value


class Recorder:
    """In-memory span store shared by every wrapper of one traced run."""

    def __init__(self, workload: str, out_dir: Path) -> None:
        self.workload = workload
        self.out_dir = out_dir
        self.driver_pid = os.getpid()
        self.records: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[_Frame | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        # Collects hot calls made outside any span; they are not reported.
        self._root = _Frame("root", "root", None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked sweep worker starts with no records and no open span.
        self.records = []
        self._lock = threading.Lock()
        self._root = _Frame("root", "root", None)
        self._current.set(None)

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict,
             after: Callable[[_Frame, Any, tuple, dict], None] | None = None) -> Any:
        """Call *fn* inside a span named *name*; *after* reads counts off the result."""
        parent = self._current.get()
        frame = _Frame(f"{os.getpid():x}-{next(self._ids):x}", name,
                       parent.id if parent is not None else None)
        token = self._current.set(frame)
        frame.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            self._current.reset(token)
            frame.add("failed", 1)
            self._finish(frame, end)
            raise
        end = time.perf_counter()
        self._current.reset(token)
        if after is not None:
            after(frame, result, args, kwargs)
        self._finish(frame, end)
        return result

    def _finish(self, frame: _Frame, end: float) -> None:
        record = {
            "name": frame.name,
            "span_id": frame.id,
            "parent_id": frame.parent,
            "start": frame.start,
            "end": end,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "workload": self.workload,
            "attrs": frame.attrs,
            "hot": frame.hot,
            "hot_top": frame.hot_top,
        }
        with self._lock:
            self.records.append(record)
        if frame.parent is None and os.getpid() != self.driver_pid:
            self.flush_worker()

    def hot(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Call *fn* as a hot call folded into the enclosing span."""
        frame = self._current.get() or self._root
        nested = [0.0]
        frame.hot_stack.append(nested)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            frame.hot_stack.pop()
            entry = frame.hot.get(name)
            if entry is None:
                entry = frame.hot[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - nested[0]
            if frame.hot_stack:
                frame.hot_stack[-1][0] += elapsed
            else:
                frame.hot_top += elapsed

    def note(self, key: str, value: float) -> None:
        """Add *value* to count *key* of the innermost open span."""
        (self._current.get() or self._root).add(key, value)

    # ------------------------------------------------------------------
    def flush_worker(self) -> None:
        """Append this worker's records to its own file and forget them."""
        with self._lock:
            records, self.records = self.records, []
        path = self.out_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def collect_workers(self) -> None:
        """Merge and delete the records sweep workers wrote so far."""
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.records.extend(json.loads(line) for line in handle if line.strip())
            path.unlink()

    def write(self, path: Path, extra: list[dict[str, Any]]) -> None:
        """Write every span, then the *extra* records, to *path* as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in [*self.records, *extra]:
                handle.write(json.dumps(record, default=str) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _patch(owner: Any, attr: str, make: Callable[[Any], Any], undo: list) -> None:
    """Replace ``owner.attr`` by ``make(original)``, remembering the original."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    undo.append((owner, attr, original))
    setattr(owner, attr, make(original))


def _span_wrapper(rec: Recorder, name: str, fn: Callable[..., Any], after: Any) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return rec.span(name, fn, args, kwargs, after)
    return wrapper


def _hot_wrapper(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return rec.hot(name, fn, args, kwargs)
    return wrapper


def _lru_wrapper(rec: Recorder, name: str, fn: Any) -> Callable[..., Any]:
    """Hot wrapper for a memoised Poisson function: also counts its hits."""
    def call(*args: Any, **kwargs: Any) -> Any:
        before = fn.cache_info().hits
        result = fn(*args, **kwargs)
        rec.note("poisson_hits" if fn.cache_info().hits > before else "poisson_misses", 1)
        return result

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return rec.hot(name, call, args, kwargs)
    return wrapper


def _after_discretize(frame: _Frame, chain: Any, args: tuple, kwargs: dict) -> None:
    frame.attrs["n_states"] = int(chain.n_states)
    frame.attrs["n_nonzero"] = int(chain.n_nonzero)
    frame.attrs["backend"] = getattr(chain, "backend", "single")


def _after_transient(frame: _Frame, result: Any, args: tuple, kwargs: dict) -> None:
    frame.add("products", int(result.iterations))
    frame.add("products_saved", int(result.iterations_saved))


def _segment_bytes(matrix: Any, block: Any) -> int:
    """Computed bytes one ``block @ P`` moves: the operator plus one read and write of the block."""
    if hasattr(matrix, "indptr"):
        operator = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    else:
        operator = int(matrix.generator.storage_bytes())
    return int(operator + 2 * block.nbytes)


def _after_segment(frame: _Frame, result: Any, args: tuple, kwargs: dict) -> None:
    import numpy as np

    kernel, block = args[0], args[1]
    vector = np.abs(result.vector)
    frame.add("segments", 1)
    frame.add("performed", int(result.performed))
    frame.add("entries", int(vector.size))
    frame.add("subnormal", int(np.count_nonzero((vector > 0.0) & (vector < _TINY))))
    frame.add("bytes", _segment_bytes(kernel.matrix, block) * int(result.performed))


def _after_batch(frame: _Frame, result: Any, args: tuple, kwargs: dict) -> None:
    frame.add("groups", int(result.diagnostics.get("merged_groups", 0)))
    frame.add("stacked_scenarios", int(result.diagnostics.get("stacked_scenarios", 0)))


def _after_submit(frame: _Frame, response: Any, args: tuple, kwargs: dict) -> None:
    frame.attrs["served_from"] = response.served_from


def install(rec: Recorder) -> list:
    """Wrap every traced layer boundary; returns the undo list for :func:`uninstall`."""
    import repro.engine.solvers as solvers
    import repro.engine.sweep as sweep
    import repro.engine.workspace as workspace
    import repro.markov.uniformization as uniformization
    import repro.reward.occupation as occupation
    import repro.service.query as query
    from repro.engine.batch import ScenarioBatch
    from repro.engine.sweep import SweepCache
    from repro.markov.kernels import ScipyKernel
    from repro.markov.kronecker import UniformizedOperator
    from repro.markov.uniformization import TransientPropagator
    from repro.multibattery.system import MultiBatterySystem
    from repro.service.query import LifetimeQuery
    from repro.service.server import LifetimeService

    undo: list = []
    spans = [
        (workspace, "discretize", "core.discretize", _after_discretize),
        (MultiBatterySystem, "discretize", "multibattery.discretize", _after_discretize),
        (TransientPropagator, "__init__", "markov.uniformization.propagator_build", None),
        (TransientPropagator, "transient_batch", "markov.uniformization.transient", _after_transient),
        (ScipyKernel, "run_segment", "markov.kernels.segment", _after_segment),
        (solvers, "two_level_lifetime_cdf", "reward.occupation", None),
        (solvers, "simulate_lifetime_distribution", "simulation.run", None),
        (solvers, "simulate_system_lifetime_distribution", "simulation.run", None),
        (ScenarioBatch, "run", "engine.batch.run", _after_batch),
        (LifetimeService, "submit", "service.submit", _after_submit),
    ]
    for owner, attr, name, after in spans:
        _patch(owner, attr, lambda fn: _span_wrapper(rec, name, fn, after), undo)
    _patch(SweepCache, "write_entry", lambda fn: classmethod(
        _span_wrapper(rec, "engine.sweep.checkpoint", fn.__func__, None)), undo)

    hot = [
        (ScipyKernel, "spmm", "markov.kernels.product"),
        (UniformizedOperator, "apply", "markov.kronecker.apply"),
        (uniformization, "truncation_points", "markov.poisson.truncation"),
        (solvers, "choose_method", "engine.solvers.dispatch"),
        (sweep, "choose_method", "engine.solvers.dispatch"),
        (query, "choose_method", "engine.solvers.dispatch"),
        (sweep, "scenario_fingerprint", "engine.sweep.fingerprint"),
        (SweepCache, "get", "engine.sweep.store_get"),
        (SweepCache, "put", "engine.sweep.store_put"),
        (LifetimeQuery, "fingerprint", "service.fingerprint"),
    ]
    for owner, attr, name in hot:
        _patch(owner, attr, lambda fn: _hot_wrapper(rec, name, fn), undo)
    for owner, attr in ((uniformization, "cached_poisson_weights"),
                        (uniformization, "shared_poisson_windows"),
                        (occupation, "cached_poisson_weights")):
        _patch(owner, attr, lambda fn: _lru_wrapper(rec, "markov.poisson.window", fn), undo)
    return undo


def uninstall(undo: list) -> None:
    """Restore every wrapped attribute."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


# ----------------------------------------------------------------------
# Analysis: self time, per-layer totals and the named per-layer metrics.
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by *intervals* (overlaps counted once)."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        elif end > cover_end:
            cover_end = end
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(records: list[dict[str, Any]]) -> dict[str, float]:
    """Self time of every span: its length minus the union of its children.

    Hot calls folded into a span count as its children too.  Worker root
    spans are adopted by the driver span whose interval contains them, so
    the overlapping chunks of a sweep are subtracted from it once.
    """
    by_id = {record["span_id"]: record for record in records}
    roots = [r for r in records if r["parent_id"] is None and r["pid"] == os.getpid()]
    children: dict[str, list[tuple[float, float]]] = {}
    for record in records:
        parent = record["parent_id"]
        if parent is None and record["pid"] != os.getpid():
            parent = next((r["span_id"] for r in roots
                           if r["start"] <= record["start"] and record["end"] <= r["end"]), None)
        if parent in by_id:
            children.setdefault(parent, []).append((record["start"], record["end"]))
    return {
        span_id: max(0.0, record["end"] - record["start"]
                     - _union_length(children.get(span_id, [])) - record["hot_top"])
        for span_id, record in by_id.items()
    }


def _row(table: dict[str, dict[str, float]], layer: str) -> dict[str, float]:
    return table.setdefault(layer, {"calls": 0, "self_s": 0.0, "wait_s": 0.0,
                                    "failed": 0, "retries": 0})


def layer_table(records: list[dict[str, Any]], selfs: dict[str, float]) -> dict[str, dict[str, float]]:
    """Per-layer calls, self time and failures over *records*."""
    table: dict[str, dict[str, float]] = {}

    def row(layer: str) -> dict[str, float]:
        return _row(table, layer)

    for record in records:
        entry = row(layer_of(record["name"]))
        entry["calls"] += 1
        entry["self_s"] += selfs[record["span_id"]]
        entry["failed"] += record["attrs"].get("failed", 0)
        for name, (calls, _, self_s) in record["hot"].items():
            hot_row = row(layer_of(name))
            hot_row["calls"] += calls
            hot_row["self_s"] += self_s
    return table


#: The per-layer metrics of a traced run, in report order, with units.
#: Layer times that some workload never spends are reported as shares of
#: the traced operations' wall time, so an untouched layer reads 0 as a
#: ratio rather than as a constant zero time.
PER_LAYER_UNITS = {
    "api.import_s": "s",
    "core.discretize_calls": "count",
    "core.discretize_share": "ratio",
    "multibattery.operator_build_share": "ratio",
    "multibattery.lumped_build_share": "ratio",
    "engine.workspace.chain_builds": "count",
    "engine.workspace.chain_build_hits": "count",
    "markov.uniformization.propagator_build_s": "s",
    "markov.uniformization.transient_s": "s",
    "markov.uniformization.products": "count",
    "markov.uniformization.products_saved": "count",
    "markov.poisson.s": "s",
    "markov.poisson.hit_ratio": "ratio",
    "markov.kernels.segments": "count",
    "markov.kernels.segment_s": "s",
    "markov.kernels.product_s": "s",
    "markov.kernels.loop_overhead_share": "ratio",
    "markov.kernels.us_per_product": "us",
    "markov.kernels.subnormal_share": "ratio",
    "markov.kernels.bytes_per_product": "B",
    "markov.kronecker.applies": "count",
    "markov.kronecker.apply_share": "ratio",
    "markov.kronecker.implied_nnz": "count",
    "reward.occupation_calls": "count",
    "reward.occupation_share": "ratio",
    "simulation.calls": "count",
    "simulation.share": "ratio",
    "engine.solvers.dispatch_us": "us",
    "engine.solvers.solves.analytic": "count",
    "engine.solvers.solves.mrm-uniformization": "count",
    "engine.solvers.solves.monte-carlo": "count",
    "engine.batch.groups": "count",
    "engine.batch.stacked_scenarios": "count",
    "engine.sweep.cache_scan_share": "ratio",
    "engine.sweep.partition_share": "ratio",
    "engine.sweep.checkpoints": "count",
    "engine.sweep.checkpoint_share": "ratio",
    "engine.sweep.resume_share": "ratio",
    "engine.sweep.resume_hits": "count",
    "engine.executor.chunks": "count",
    "engine.executor.retries": "count",
    "engine.executor.failed": "count",
    "engine.executor.chunk_imbalance": "ratio",
    "engine.executor.driver_overhead_share": "ratio",
    "service.fingerprint_share": "ratio",
    "service.store_hit_ratio": "ratio",
    "service.solves": "count",
    "service.coalesced": "count",
    "service.solve_share": "ratio",
    "service.lock_wait_share": "ratio",
    "obs.tracing_overhead_share": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(records: list[dict[str, Any]], program: list[Any],
                      ctx: dict[str, Any]) -> tuple[dict[str, float], dict[str, float]]:
    """Compute the named per-layer metrics and the human-only extras.

    *records* are the benchmark spans of the traced operations (workers
    merged), *program* the repro.obs summary spans of the same operations,
    and *ctx* what the workload read off its results: ``import_s``,
    ``traced_s`` and ``untraced_s`` (summed operation wall times), the
    ``solves`` per method, the workspaces' ``chain_build_hits``, and the
    sweep and service counters.
    """
    selfs = self_times(records)
    table = layer_table(records, selfs)
    count: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    attrs: dict[str, float] = {}
    hot: dict[str, list[float]] = {}
    for record in records:
        name = record["name"]
        count[name] = count.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + record["end"] - record["start"]
        own[name] = own.get(name, 0.0) + selfs[record["span_id"]]
        for key, value in record["attrs"].items():
            if isinstance(value, (int, float)):
                attrs[key] = attrs.get(key, 0) + value
        for hot_name, values in record["hot"].items():
            total = hot.setdefault(hot_name, [0, 0.0, 0.0])
            for index in range(3):
                total[index] += values[index]

    def hot_get(name: str, index: int) -> float:
        return hot.get(name, [0, 0.0, 0.0])[index]

    def program_s(name: str) -> float:
        return sum(item.duration for item in program if item.name == name)

    wall = ctx["traced_s"]
    backends = {"matrix-free": 0.0, "lumped": 0.0}
    implied_nnz = 0
    for record in records:
        if record["name"] == "multibattery.discretize":
            backend = record["attrs"].get("backend")
            if backend in backends:
                backends[backend] += record["end"] - record["start"]
            if backend == "matrix-free":
                implied_nnz = max(implied_nnz, int(record["attrs"]["n_nonzero"]))

    products = attrs.get("performed", 0)
    product_s = hot_get("markov.kernels.product", 1)
    segment_s = incl.get("markov.kernels.segment", 0.0)
    dispatches = hot_get("engine.solvers.dispatch", 0)
    poisson_lookups = attrs.get("poisson_hits", 0) + attrs.get("poisson_misses", 0)

    imbalance = []
    for op in ctx.get("sweep_chunk_solves", []):
        if op:
            imbalance.append(max(op) / (sum(op) / len(op)))
    sweep_wall = incl.get("api.sweep", 0.0)

    submits = [r for r in records if r["name"] == "service.submit"]
    request_s = sum(r["end"] - r["start"] for r in submits)
    served = {"cache": 0, "solve": 0, "coalesced": 0}
    for record in submits:
        served[record["attrs"].get("served_from", "solve")] += 1
    # A solving request's time outside its coalesce, solve and respond
    # spans is the wait for the service's single solve lock.
    child_s: dict[tuple[str, str], float] = {}
    for item in program:
        if item.parent_id is not None:
            key = (item.parent_id, item.name)
            child_s[key] = child_s.get(key, 0.0) + item.duration
    lock_wait = sum(
        max(0.0, item.duration - sum(child_s.get((item.span_id, phase), 0.0) for phase in
                                     ("service_coalesce", "service_solve", "service_respond")))
        for item in program
        if item.name == "service_request" and (item.span_id, "service_solve") in child_s
    )

    metrics = {
        "api.import_s": ctx["import_s"],
        "core.discretize_calls": count.get("core.discretize", 0),
        "core.discretize_share": _ratio(incl.get("core.discretize", 0.0), wall),
        "multibattery.operator_build_share": _ratio(backends["matrix-free"], wall),
        "multibattery.lumped_build_share": _ratio(backends["lumped"], wall),
        # A workspace builds a chain through exactly one of the two discretize calls.
        "engine.workspace.chain_builds": count.get("core.discretize", 0)
        + count.get("multibattery.discretize", 0),
        "engine.workspace.chain_build_hits": ctx["chain_build_hits"],
        "markov.uniformization.propagator_build_s": incl.get("markov.uniformization.propagator_build", 0.0),
        "markov.uniformization.transient_s": incl.get("markov.uniformization.transient", 0.0),
        "markov.uniformization.products": attrs.get("products", 0),
        "markov.uniformization.products_saved": attrs.get("products_saved", 0),
        "markov.poisson.s": hot_get("markov.poisson.window", 2) + hot_get("markov.poisson.truncation", 2),
        "markov.poisson.hit_ratio": _ratio(attrs.get("poisson_hits", 0), poisson_lookups),
        "markov.kernels.segments": attrs.get("segments", 0),
        "markov.kernels.segment_s": segment_s,
        "markov.kernels.product_s": product_s,
        "markov.kernels.loop_overhead_share": _ratio(segment_s - product_s, segment_s),
        "markov.kernels.us_per_product": _ratio(product_s, products) * 1e6,
        "markov.kernels.subnormal_share": _ratio(attrs.get("subnormal", 0), attrs.get("entries", 0)),
        "markov.kernels.bytes_per_product": _ratio(attrs.get("bytes", 0), products),
        "markov.kronecker.applies": hot_get("markov.kronecker.apply", 0),
        "markov.kronecker.apply_share": _ratio(hot_get("markov.kronecker.apply", 1), wall),
        "markov.kronecker.implied_nnz": implied_nnz,
        "reward.occupation_calls": count.get("reward.occupation", 0),
        "reward.occupation_share": _ratio(own.get("reward.occupation", 0.0), wall),
        "simulation.calls": count.get("simulation.run", 0),
        "simulation.share": _ratio(own.get("simulation.run", 0.0), wall),
        "engine.solvers.dispatch_us": _ratio(hot_get("engine.solvers.dispatch", 1), dispatches) * 1e6,
        "engine.solvers.solves.analytic": ctx["solves"].get("analytic", 0),
        "engine.solvers.solves.mrm-uniformization": ctx["solves"].get("mrm-uniformization", 0),
        "engine.solvers.solves.monte-carlo": ctx["solves"].get("monte-carlo", 0),
        "engine.batch.groups": attrs.get("groups", 0),
        "engine.batch.stacked_scenarios": attrs.get("stacked_scenarios", 0),
        "engine.sweep.cache_scan_share": _ratio(program_s("cache_scan"), wall),
        "engine.sweep.partition_share": _ratio(program_s("partition"), wall),
        "engine.sweep.checkpoints": count.get("engine.sweep.checkpoint", 0),
        "engine.sweep.checkpoint_share": _ratio(incl.get("engine.sweep.checkpoint", 0.0), wall),
        "engine.sweep.resume_share": _ratio(incl.get("engine.sweep.resume", 0.0), sweep_wall),
        "engine.sweep.resume_hits": ctx.get("resume_hits", 0),
        "engine.executor.chunks": ctx.get("chunks", 0),
        "engine.executor.retries": ctx.get("retries", 0),
        "engine.executor.failed": ctx.get("failed", 0),
        "engine.executor.chunk_imbalance": sum(imbalance) / len(imbalance) if imbalance else 0.0,
        "engine.executor.driver_overhead_share": _ratio(own.get("api.sweep", 0.0), sweep_wall),
        "service.fingerprint_share": _ratio(hot_get("service.fingerprint", 1), request_s),
        "service.store_hit_ratio": _ratio(served["cache"], len(submits)),
        "service.solves": served["solve"],
        "service.coalesced": served["coalesced"],
        "service.solve_share": _ratio(program_s("service_solve"), request_s),
        "service.lock_wait_share": _ratio(lock_wait, request_s),
        "obs.tracing_overhead_share": _ratio(ctx["traced_s"] - ctx["untraced_s"], ctx["untraced_s"]),
    }
    hits = [r["end"] - r["start"] for r in submits if r["attrs"].get("served_from") == "cache"]
    extras = {
        "markov.kronecker.ms_per_apply": _ratio(hot_get("markov.kronecker.apply", 1),
                                                hot_get("markov.kronecker.apply", 0)) * 1e3,
        "service.fingerprint_us": _ratio(hot_get("service.fingerprint", 1),
                                         hot_get("service.fingerprint", 0)) * 1e6,
        "service.hit_us": _ratio(sum(hits), len(hits)) * 1e6,
        "service.lock_wait_s": lock_wait,
        "service.solve_s": program_s("service_solve"),
        "engine.sweep.resume_s": incl.get("engine.sweep.resume", 0.0),
        "engine.executor.driver_overhead_s": own.get("api.sweep", 0.0),
    }
    # Waiting is not self time: a solving request waits for the service's
    # solve lock, and a sweep chunk spends the part of its attempt outside
    # its solve in worker start-up, pickling and the result queue.
    if submits:
        table["service"]["self_s"] -= lock_wait
        table["service"]["wait_s"] = lock_wait
    attempts = [item for item in program if item.name == "chunk_attempt"]
    if attempts:
        executor = _row(table, "engine.executor")
        executor["calls"] = len(attempts)
        executor["wait_s"] = max(0.0, sum(a.duration for a in attempts) - program_s("chunk_solve"))
        executor["failed"] = ctx.get("failed", 0)
        executor["retries"] = ctx.get("retries", 0)
    return metrics, extras, table
