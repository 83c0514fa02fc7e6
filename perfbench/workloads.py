"""One benchmark run of one workload, in a fresh interpreter.

``perfbench/run.py`` starts this file as a child process and times its
set-up from the outside; see ``perfbench/DESIGN.md`` for why each
workload exists.  The child

1. imports ``repro.api``, builds the workload's inputs from ``--seed`` and
   runs one small throwaway operation, so lazy imports stay out of the
   first timed operation, then prints ``READY``;
2. runs the closed-loop timed phase for ``--seconds`` seconds (or, with
   ``--trace 1``, two untraced and two traced operations, alternating);
3. reads the peak resident memory, then checks every answer;
4. prints a human-readable report and, last, one ``RESULT {...}`` line.

With ``--setup-only`` it stops after step 1.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Any

# Standard library only at module level: numpy and repro load inside the
# measured ``import repro.api`` of main(), as they would for a user.
import layers

WORKLOAD_NAMES = ("solve-bank", "sweep", "serve")
#: Truncation error every workload asks for; answers are checked against it.
EPSILON = 1e-6
#: Operations of a traced run: untraced and traced, alternating.
TRACE_PATTERN = (False, True, False, True)
#: Units of the end-to-end metrics this child measures (the launcher adds
#: ``setup_s``).
END_TO_END_UNITS = {"latency_p50_ms": "ms", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


#: Rounding slack of the CDF shape checks: 8 ulp of 1.0.  The analytic
#: solver's CDFs step down by up to 1.5 ulp once they saturate near 1.
ROUNDING = 8 * 2.220446049250313e-16


def cdf_ok(values: Any) -> bool:
    """A lifetime CDF: finite, within [0, 1] and non-decreasing, up to rounding."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    return bool(
        np.all(np.isfinite(values))
        and np.all(values >= -ROUNDING)
        and np.all(values <= 1.0 + ROUNDING)
        and np.all(np.diff(values) >= -ROUNDING)
    )


def max_gap(a: Any, b: Any) -> float:
    import numpy as np

    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class Op:
    """One timed operation: its wall time, answers and per-item latencies.

    ``answer`` is ``None`` when the operation raised; ``errors`` counts the
    items it failed to answer.
    """

    def __init__(self, duration: float, answer: Any, items: int) -> None:
        self.duration = duration
        self.answer = answer
        self.items = items
        self.traced = False
        self.latencies: list[float] = []
        self.errors = 0 if answer is not None else items
        # Chain builds served from the workspace the operation used, read
        # off its diagnostics (solve and serve; sweep workspaces live in
        # the worker processes).
        self.chain_build_hits = 0
        # Sweep only: the checkpoint directory and the resume pass's answer.
        self.directory: str | None = None
        self.resumed: Any = None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def busy_idle(rate: float, busy: float, idle: float) -> Any:
    """Two-state workload switching between busy and idle at *rate* per second."""
    import numpy as np
    from repro.api import WorkloadModel

    generator = np.array([[-rate, rate], [rate, -rate]])
    return WorkloadModel(("busy", "idle"), generator, np.array([busy, idle]),
                         np.array([1.0, 0.0]), f"busy/idle {busy:g}/{idle:g} A")


def shared_busy_idle() -> list[Any]:
    """The three two-state workloads the sweep and the service stream share."""
    return [busy_idle(0.02, 1.0, 0.05), busy_idle(0.05, 0.8, 0.1), busy_idle(0.01, 0.6, 0.2)]


def off_idle_busy() -> Any:
    """Three-state workload with three current levels (no analytic solver)."""
    import numpy as np
    from repro.api import WorkloadModel

    generator = np.array([[-0.02, 0.01, 0.01], [0.02, -0.04, 0.02], [0.01, 0.03, -0.04]])
    return WorkloadModel(("off", "idle", "busy"), generator, np.array([0.0, 0.1, 0.8]),
                         np.array([0.0, 1.0, 0.0]), "off/idle/busy")


def stratified_capacities(rng: Any, count: int, low: float = 60.0, high: float = 200.0) -> list[float]:
    """One seeded capacity in each of *count* equal slices of [low, high] As.

    Stratifying keeps the total work of a seed close to that of any other
    seed, so the spread between seeds stays small.
    """
    width = (high - low) / count
    return [low + (index + float(rng.random())) * width for index in range(count)]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Inputs, one operation, the answer checks and the defining facts."""

    #: Answers one operation gives.
    ITEMS = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def warm_up(self) -> None:
        raise NotImplementedError

    def operate(self) -> Op:
        raise NotImplementedError

    def run_op(self) -> Op:
        """One operation; an operation that raises counts all its items failed."""
        started = time.perf_counter()
        try:
            return self.operate()
        except Exception:
            traceback.print_exc()
            return Op(time.perf_counter() - started, None, self.ITEMS)

    def latency_p50_ms(self, ops: list[Op]) -> float:
        return statistics.median(op.duration for op in ops) * 1e3

    def throughput_per_s(self, ops: list[Op]) -> float:
        return sum(op.items for op in ops) / sum(op.duration for op in ops)

    def check(self, ops: list[Op]) -> int:
        """Check the answers of operations that returned; return the failed items."""
        raise NotImplementedError

    def facts(self, ops: list[Op]) -> dict[str, Any]:
        raise NotImplementedError

    def trace_context(self, ops: list[Op]) -> dict[str, Any]:
        """What the traced run reads off the answers: at least ``solves`` per method."""
        raise NotImplementedError


class SolveWorkload(Workload):
    """Cold ``repro.api.solve`` of the paper-scale four-battery bank per operation."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        import numpy as np
        from repro.api import KiBaMParameters
        from repro.multibattery import MultiBatteryProblem

        # 2 x 17 x 18 x 19 x 20 = 232,560 states; auto goes matrix-free.
        batteries = tuple(KiBaMParameters(capacity=capacity, c=1.0, k=0.0)
                          for capacity in (150.0, 160.0, 170.0, 180.0))
        self.problem = MultiBatteryProblem(
            workload=busy_idle(0.02, 0.5, 0.3),
            batteries=batteries, policy="static-split",
            times=np.linspace(150.0, 2700.0, 18), delta=150.0 / 16, epsilon=EPSILON)
        self.small = self.problem.with_delta(150.0 / 4).with_backend("matrix-free")

    def _solve(self, problem: Any, method: str = "auto", workspace: Any = None) -> Any:
        import repro.api as api
        from repro.markov.poisson import clear_poisson_caches

        clear_poisson_caches()
        return api.solve(problem, method, workspace=workspace if workspace is not None else api.SolveWorkspace())

    def warm_up(self) -> None:
        self._solve(self.small)

    def operate(self) -> Op:
        import repro.api as api

        workspace = api.SolveWorkspace()
        started = time.perf_counter()
        result = self._solve(self.problem, workspace=workspace)
        op = Op(time.perf_counter() - started, result, 1)
        op.chain_build_hits = workspace.diagnostics()["chain_build_hits"]
        return op

    def check(self, ops: list[Op]) -> int:
        reference = self._solve(self.problem.with_backend("assembled"), "mrm-uniformization")
        expected = reference.distribution.probabilities
        self.reference_gap = 0.0
        failed = 0
        for op in ops:
            values = op.answer.distribution.probabilities
            gap = max_gap(values, expected)
            self.reference_gap = max(self.reference_gap, gap)
            failed += not (cdf_ok(values) and gap <= EPSILON)
        return failed if cdf_ok(expected) else len(ops)

    def facts(self, ops: list[Op]) -> dict[str, Any]:
        diagnostics = ops[0].answer.diagnostics
        return {
            "states": diagnostics["n_states"],
            "nonzeros": diagnostics["n_nonzero"],
            "method": ops[0].answer.method,
            "backend": diagnostics.get("backend", "csr"),
            "products_per_solve": sorted({op.answer.diagnostics["iterations"] for op in ops}),
            "reference_gap": self.reference_gap,
        }

    def trace_context(self, ops: list[Op]) -> dict[str, Any]:
        return {"solves": collections.Counter(op.answer.method for op in ops if op.traced)}


class SweepWorkload(Workload):
    """Cold ``repro.api.sweep`` of a 72-scenario spec on two worker processes."""

    CAPACITIES = 8
    # 4 workloads x (each capacity with and without transfer, plus 2 banks).
    ITEMS = 4 * (2 * CAPACITIES + 2)
    WORKERS = 2
    SAMPLE = 6

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        import numpy as np
        from repro.api import KiBaMParameters, SweepSpec

        rng = np.random.default_rng(seed)
        batteries: list[Any] = []
        for capacity in stratified_capacities(rng, self.CAPACITIES):
            batteries.append(KiBaMParameters(capacity=capacity, c=0.625, k=1e-3))
            batteries.append(KiBaMParameters(capacity=capacity, c=1.0, k=0.0))
        batteries.append([KiBaMParameters(capacity=100.0, c=1.0, k=0.0)] * 3)
        batteries.append([KiBaMParameters(capacity=190.0, c=0.625, k=1e-3)] * 3)
        workloads = [*shared_busy_idle(), off_idle_busy()]
        self.spec = SweepSpec(workloads=workloads, batteries=batteries,
                              times=np.linspace(900.0 / 24, 900.0, 24), deltas=(2.0,),
                              methods=("auto",), epsilon=EPSILON, seed=seed)
        self.problems, _ = self.spec.scenarios()
        self.sample = sorted(int(i) for i in rng.choice(len(self.problems), self.SAMPLE, replace=False))
        # Every method and backend the spec reaches, on chains small enough
        # to warm the lazy imports in a fraction of a second.
        self.small = SweepSpec(workloads=workloads[2:], batteries=[
            KiBaMParameters(capacity=20.0, c=0.625, k=1e-3),
            KiBaMParameters(capacity=20.0, c=1.0, k=0.0),
            [KiBaMParameters(capacity=10.0, c=1.0, k=0.0)] * 3,
        ], times=np.linspace(60.0, 300.0, 4), deltas=(2.0,), epsilon=EPSILON, n_runs=20)

    def _sweep(self, spec: Any, directory: str | None, workers: int) -> Any:
        import repro.api as api

        return api.sweep(spec, options=api.RunOptions(max_workers=workers, cache_dir=directory))

    def warm_up(self) -> None:
        import repro.api as api

        self._sweep(self.small, None, 1)
        api.solve(self.small.scenarios()[0][0], "monte-carlo")

    def operate(self) -> Op:
        from repro.markov.poisson import clear_poisson_caches

        directory = tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir)
        clear_poisson_caches()
        started = time.perf_counter()
        result = self._sweep(self.spec, directory, self.WORKERS)
        op = Op(time.perf_counter() - started, result, len(result.results))
        op.directory = directory
        return op

    def resume(self, op: Op) -> Any:
        """Answer the spec again from a fresh store on the op's checkpoint directory."""
        return self._sweep(self.spec, op.directory, self.WORKERS)

    def check(self, ops: list[Op]) -> int:
        import repro.api as api

        references = {index: api.solve(self.problems[index]) for index in self.sample}
        failed = 0
        for op in ops:
            if op.resumed is None:
                op.resumed = self.resume(op)
            for index, (cold, warm) in enumerate(zip(op.answer.results, op.resumed.results)):
                values = cold.distribution.probabilities
                ok = (cold.method != "failed" and cdf_ok(values)
                      and cold.method == warm.method
                      and bool((values == warm.distribution.probabilities).all()))
                if index in references:
                    reference = references[index]
                    ok = ok and reference.method == cold.method and max_gap(
                        values, reference.distribution.probabilities) <= EPSILON
                failed += not ok
        return failed

    def facts(self, ops: list[Op]) -> dict[str, Any]:
        methods = collections.Counter()
        for result in ops[0].answer.results:
            backend = result.diagnostics.get("backend")
            methods[result.method + (f"/{backend}" if backend else "")] += 1
        return {
            "scenarios": len(self.problems),
            "methods": dict(sorted(methods.items())),
            "chunks": ops[0].answer.diagnostics["n_chunks"],
            "resume_hits": sorted({op.resumed.diagnostics["resumed_hits"] for op in ops}),
            "sampled_scenarios": self.sample,
        }

    def trace_context(self, ops: list[Op]) -> dict[str, Any]:
        traced = [op for op in ops if op.traced]
        solves = collections.Counter(r.method for op in traced for r in op.answer.results)
        return {
            "solves": solves,
            "chunks": sum(op.answer.diagnostics["n_chunks"] for op in traced),
            "retries": sum(op.answer.diagnostics["n_retries"] for op in traced),
            "failed": sum(op.answer.diagnostics["n_failed"] for op in traced),
            "resume_hits": sum(op.resumed.diagnostics["resumed_hits"] for op in traced),
        }


class ServeWorkload(Workload):
    """Two closed-loop clients querying one ``repro.api.serve()`` instance.

    An operation is one session: a fresh service and a cleared Poisson
    memo, then the seeded 1,500-query stream, each client submitting every
    other query.
    """

    CLIENTS = 2
    CAPACITIES = 12
    ITEMS = QUERIES = 1500
    SAMPLE = 8

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        import numpy as np
        from repro.api import KiBaMParameters, LifetimeProblem, LifetimeQuery

        rng = np.random.default_rng(seed)
        workloads = [*shared_busy_idle(), busy_idle(0.03, 0.9, 0.0)]
        grids = [np.linspace(900.0 / 24, 900.0, 24), np.linspace(60.0, 720.0, 12)]
        capacities = stratified_capacities(rng, self.CAPACITIES)
        pool = [
            LifetimeQuery(problem=LifetimeProblem(
                workload=workload, battery=KiBaMParameters(capacity=capacity, c=0.625, k=1e-3),
                times=grid, delta=2.0, epsilon=EPSILON))
            for workload in workloads for capacity in capacities for grid in grids
        ]
        popularity = np.arange(1, len(pool) + 1, dtype=float) ** -1.1
        popularity /= popularity.sum()
        ranked = rng.permutation(len(pool))
        self.pool = pool
        # The stream holds pool indices, so answers are checked per query.
        self.stream = [int(ranked[i]) for i in rng.choice(len(pool), self.QUERIES, p=popularity)]
        self.small = LifetimeQuery(problem=pool[0].problem.with_battery(
            KiBaMParameters(capacity=20.0, c=0.625, k=1e-3)))

    def warm_up(self) -> None:
        import repro.api as api

        service = api.serve()
        service.submit(self.small)
        service.submit(self.small)

    def operate(self) -> Op:
        import repro.api as api
        from repro.markov.poisson import clear_poisson_caches

        clear_poisson_caches()
        service = api.serve()
        latencies: list[list[float]] = [[] for _ in range(self.CLIENTS)]
        answers: list[list[Any]] = [[] for _ in range(self.CLIENTS)]
        errors = [0] * self.CLIENTS

        def client(index: int) -> None:
            for asked in self.stream[index::self.CLIENTS]:
                query = self.pool[asked]
                started = time.perf_counter()
                try:
                    response = service.submit(query)
                except Exception:
                    errors[index] += 1
                    continue
                latencies[index].append(time.perf_counter() - started)
                answers[index].append((asked, response))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        op = Op(time.perf_counter() - started, [a for part in answers for a in part], self.QUERIES)
        op.latencies = [value for part in latencies for value in part]
        op.errors = sum(errors)
        op.chain_build_hits = service.stats()["workspace"]["chain_build_hits"]
        return op

    def latency_p50_ms(self, ops: list[Op]) -> float:
        return statistics.median(v for op in ops for v in op.latencies) * 1e3

    def check(self, ops: list[Op]) -> int:
        """Every response to a query, whoever served it, is that query's answer.

        Responses are grouped by the query asked, not by the fingerprint the
        service computed, so a fingerprint that mixed up two queries fails.
        """
        import numpy as np
        import repro.api as api

        answers = [(asked, response.result.distribution.probabilities)
                   for op in ops for asked, response in op.answer]
        first: dict[int, Any] = {}
        for asked, values in answers:
            first.setdefault(asked, values)
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(sorted(first), min(self.SAMPLE, len(first)), replace=False)
        direct = {int(asked): api.solve(self.pool[asked].problem, self.pool[asked].method)
                  .distribution.probabilities for asked in sample}
        failed = 0
        for asked, values in answers:
            ok = (len(values) == len(self.pool[asked].problem.times) and cdf_ok(values)
                  and np.array_equal(values, first[asked]))
            if asked in direct:
                ok = ok and max_gap(values, direct[asked]) <= EPSILON
            failed += not ok
        self.distinct = len(first)
        return failed

    def facts(self, ops: list[Op]) -> dict[str, Any]:
        served = collections.Counter(r.served_from for op in ops for _, r in op.answer)
        latencies = sorted(v for op in ops for v in op.latencies)
        total = sum(served.values())
        return {
            "clients": self.CLIENTS,
            "queries": total,
            "distinct_queries": self.distinct,
            "distinct_fingerprints": len({r.fingerprint for op in ops for _, r in op.answer}),
            "solved": served["solve"],
            "cached": served["cache"],
            "coalesced": served["coalesced"],
            "cold_share": served["solve"] / total if total else 0.0,
            "query_p99_ms": statistics.quantiles(latencies, n=100)[98] * 1e3
            if len(latencies) >= 1000 else None,
            "latency_samples": len(latencies),
        }

    def trace_context(self, ops: list[Op]) -> dict[str, Any]:
        solves = collections.Counter(r.result.method for op in ops if op.traced
                                     for _, r in op.answer if r.served_from == "solve")
        return {"solves": solves}


def make_workload(name: str, seed: int, work_dir: Path) -> Workload:
    if name == "solve-bank":
        return SolveWorkload(seed, work_dir)
    if name == "sweep":
        return SweepWorkload(seed, work_dir)
    return ServeWorkload(seed, work_dir)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_phase(workload: Workload, seconds: float) -> list[Op]:
    """Closed loop: start operations back to back until *seconds* have passed."""
    ops: list[Op] = []
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < seconds:
        ops.append(workload.run_op())
    return ops


def traced_phase(workload: Workload, args: argparse.Namespace) -> tuple[list[Op], dict[str, Any]]:
    """Untraced and traced operations, alternating; returns the per-layer report."""
    from repro import obs

    recorder = layers.Recorder(workload=args.workload, out_dir=args.out)
    program: list[Any] = []
    chunk_solves: list[list[float]] = []
    ops: list[Op] = []
    for traced in TRACE_PATTERN:
        if not traced:
            ops.append(workload.run_op())
            continue
        undo = layers.install(recorder)
        try:
            with obs.override_trace("summary") as tracer:
                if isinstance(workload, ServeWorkload):
                    op = workload.run_op()
                else:
                    op = recorder.span("api." + args.workload.split("-")[0],
                                       workload.run_op, (), {})
                if isinstance(workload, SweepWorkload) and op.answer is not None:
                    op.resumed = recorder.span(
                        "engine.sweep.resume", workload.resume, (op,), {})
                spans = tracer.spans()
        finally:
            layers.uninstall(undo)
        recorder.collect_workers()
        chunk_solves.append([s.duration for s in spans if s.name == "chunk_solve"])
        program.extend(spans)
        op.traced = True
        ops.append(op)
    ctx = {
        "import_s": args.import_s,
        "traced_s": sum(op.duration for op in ops if op.traced),
        "untraced_s": sum(op.duration for op in ops if not op.traced),
        "sweep_chunk_solves": chunk_solves,
        "chain_build_hits": sum(op.chain_build_hits for op in ops if op.traced),
        **workload.trace_context(ops),
    }
    metrics, extras, table = layers.per_layer_metrics(recorder.records, program, ctx)
    trace_path = args.out / f"trace-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(trace_path, [{"source": "repro.obs", **item.as_record()} for item in program])
    return ops, {"metrics": metrics, "extras": extras, "table": table, "trace_file": str(trace_path)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro.api  # noqa: F401  (the import is the measured part of set-up)

    args.import_s = time.perf_counter() - started
    args.out.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        if args.trace:
            ops, report = traced_phase(workload, args)
        else:
            ops, report = timed_phase(workload, args.seconds), None
        rss = peak_rss_mb()
        answered = [op for op in ops if op.answer is not None]
        if not answered:
            print("every operation raised; no metrics", file=sys.stderr)
            return 1
        failed = sum(op.errors for op in ops) + workload.check(answered)
        attempted = sum(op.items for op in ops)
        facts = workload.facts(answered)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"seed {args.seed}; operations {len(ops)}; answers {attempted}; "
          f"failed {failed}; error_rate {failed / attempted:.6f}")
    print("operation seconds: " + ", ".join(
        f"{op.duration:.3f}{' (traced)' if op.traced else ''}" for op in ops))
    for key, value in facts.items():
        print(f"  {key}: {value}")
    if report is None:
        values = {
            "latency_p50_ms": workload.latency_p50_ms(answered),
            "throughput_per_s": workload.throughput_per_s(answered),
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
    else:
        values, units = report["metrics"], layers.PER_LAYER_UNITS
        print(f"per-layer table (traced operations; spans in {report['trace_file']}):")
        print(f"  {'layer':<24} {'calls':>9} {'self_s':>10} {'wait_s':>10} {'failed':>7} {'retries':>7}")
        for layer, row in sorted(report["table"].items()):
            print(f"  {layer:<24} {int(row['calls']):>9} {row['self_s']:>10.4f} "
                  f"{row['wait_s']:>10.4f} {int(row['failed']):>7} {int(row['retries']):>7}")
        for key, value in report["extras"].items():
            print(f"  {key}: {value:.6g}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print("RESULT " + json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
