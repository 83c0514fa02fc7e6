"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-bank --seed 1 --seconds 15 --trace 0

Workloads: ``solve-bank``, ``sweep`` and ``serve`` (see
``perfbench/DESIGN.md``).  With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run.  This launcher imports nothing from the program: it starts the
workload in a fresh interpreter (``perfbench/workloads.py``) and times
that child's set-up from outside, then starts two more set-up-only
children, and reports the median of the three set-up times as
``setup_s``.  Every child runs its BLAS and OpenMP pools with one thread
and no ``REPRO_*`` setting, so checks and tracing stay at their defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "workloads.py"
OUT = ROOT / ".perfbench_out"
#: Fresh-interpreter set-ups per run (the workload's own plus probes).
SETUPS = 3
#: Wall-clock budget of the whole run; a child still running is killed.
DEADLINE_S = 170.0
#: Set before numpy loads in the child, so the forked sweep workers inherit it.
THREAD_SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(THREAD_SETTINGS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """One workload child; its stdout lines are timestamped as they arrive."""

    def __init__(self, argv: list[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), *argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.lines: queue.Queue[tuple[float, str | None]] = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def finish(self, deadline: float) -> tuple[int, float | None, list[str]]:
        """Wait for the child; return its exit code, set-up seconds and output."""
        ready: float | None = None
        output: list[str] = []
        while True:
            try:
                stamp, line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                self.kill()
                return -1, ready, output
            if line is None:
                break
            if line == "READY" and ready is None:
                ready = stamp - self.started
            else:
                output.append(line)
        return self.proc.wait(), ready, output

    def kill(self) -> None:
        """Stop the child and every process it started, and reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(OUT)]
    child = Child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    code, setup, output = child.finish(deadline)
    result = None
    for line in output:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if code != 0 or setup is None or result is None:
        print(f"workload child failed (exit code {code})", file=sys.stderr)
        return 1

    setups = [setup]
    for _ in range(0 if args.trace else SETUPS - 1):
        probe = Child([*common, "--setup-only"])
        code, setup, _ = probe.finish(deadline)
        if code != 0 or setup is None:
            print(f"set-up probe failed (exit code {code})", file=sys.stderr)
            return 1
        setups.append(setup)

    settings = " ".join(f"{key}={value}" for key, value in THREAD_SETTINGS.items())
    print(f"workload {args.workload}; seed {args.seed}; seconds {args.seconds:g}; "
          f"trace {args.trace}; cpus {os.cpu_count()}; {settings}")
    print("set-up seconds: " + ", ".join(f"{value:.4f}" for value in setups))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
