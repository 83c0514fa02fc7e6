"""Child process of the kill-resume benchmark (``bench_sweep_resilience``).

Runs the resilience sweep serially against a disk-backed cache so every
solved chain-sharing group is checkpointed the moment it finishes; the
parent benchmark SIGKILLs this process mid-sweep and then proves that a
resumed run recovers exactly the checkpointed scenarios without
re-solving any of them.

The sweep definition lives *here* (and the benchmark imports it from this
file) so the killed run and the resumed run are guaranteed to execute the
byte-identical spec.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.api import ExecutionPolicy, RunOptions, SweepSpec
from repro.battery.parameters import KiBaMParameters
from repro.engine.sweep import run_sweep
from repro.workload.onoff import onoff_workload

#: Scenarios in the resilience sweep.  Each two-well chain solves in
#: roughly a second, so the parent's kill always lands mid-run.
N_SCENARIOS = 8

#: Evaluation grid shared by all scenarios.
TIMES = np.linspace(6000.0, 20000.0, 15)


def resilience_spec(n_scenarios: int = N_SCENARIOS) -> SweepSpec:
    """The kill-resume sweep: *n_scenarios* distinct slow two-well chains.

    Distinct capacities of a battery **with** well-to-well transfer give
    genuinely independent chains (no cross-capacity merging), so each
    checkpoint on disk corresponds to exactly one solved scenario.
    """
    capacities = np.linspace(5400.0, 7200.0, n_scenarios)
    return SweepSpec(
        workloads=[onoff_workload(frequency=0.25, erlang_k=1)],
        batteries=[
            KiBaMParameters(capacity=float(capacity), c=0.625, k=4.5e-5)
            for capacity in capacities
        ],
        times=TIMES,
        deltas=[100.0],
        methods=["mrm-uniformization"],
    )


def main() -> None:
    cache_dir = sys.argv[1]
    run_sweep(resilience_spec(), options=RunOptions(max_workers=1, cache_dir=cache_dir, execution=ExecutionPolicy(backoff_base=0.0)))


if __name__ == "__main__":
    main()
