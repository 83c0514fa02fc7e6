#!/usr/bin/env python
"""Parallel, cache-backed scenario sweeps over a diverse workload zoo.

The sweep layer (:mod:`repro.engine.sweep`) answers the scaling question
of the ROADMAP: evaluate *many* scenarios -- here the cross-product of
four workload families (the paper's on/off and burst models, MMPP bursty
traffic, a periodic duty-cycle schedule) with several battery sizes --
using every CPU of the machine, and never solve the same scenario twice
thanks to a fingerprint-keyed result cache.  This example

1. declares the sweep as a :class:`~repro.api.SweepSpec` cross-product,
2. runs it in parallel worker processes with :func:`~repro.api.sweep`
   (the results are bit-identical to a serial run, in scenario order),
3. re-runs the same spec against the warm :class:`~repro.api.SweepCache`
   and shows that nothing is re-solved (``diagnostics["cache_hit"]``).

Run with::

    python examples/parallel_sweep.py
"""

from __future__ import annotations

import numpy as np

from repro.api import KiBaMParameters, RunOptions, SweepCache, SweepSpec, sweep
from repro.battery.units import coulombs_from_milliamp_hours
from repro.workload import (
    burst_workload,
    duty_cycle_workload,
    mmpp_workload,
    simple_workload,
)


def main() -> None:
    hours = np.linspace(1.0, 40.0, 40) * 3600.0
    spec = SweepSpec(
        workloads=[
            simple_workload(),
            burst_workload(),
            mmpp_workload(),
            duty_cycle_workload(
                [("sleep", 240.0, 0.5), ("sense", 40.0, 15.0), ("transmit", 40.0, 200.0)]
            ),
        ],
        batteries=[
            KiBaMParameters(
                capacity=coulombs_from_milliamp_hours(mah), c=0.625, k=4.5e-5
            )
            for mah in (600.0, 800.0, 1000.0)
        ],
        times=hours,
        deltas=[coulombs_from_milliamp_hours(20.0)],
        methods=["auto"],
    )
    print(f"sweep: {len(spec)} scenarios (4 workload families x 3 batteries)")

    cache = SweepCache()  # pass SweepCache("some/dir") to persist across runs
    outcome = sweep(spec, options=RunOptions(cache=cache))
    print(
        f"solved {outcome.diagnostics['n_solved']} scenarios on "
        f"{outcome.diagnostics['n_workers']} worker(s) in "
        f"{outcome.diagnostics['wall_seconds']:.2f} s "
        f"(methods: {', '.join(outcome.diagnostics['methods'])})"
    )
    print()
    for result in outcome:
        median_hours = result.quantile(0.5) / 3600.0
        print(f"  median {median_hours:5.1f} h | {result.label}")
    print()

    again = sweep(spec, options=RunOptions(cache=cache))
    hits = sum(result.diagnostics["cache_hit"] for result in again)
    print(
        f"cached re-run: {hits}/{len(again)} scenarios served from cache in "
        f"{again.diagnostics['wall_seconds']:.4f} s, "
        f"{again.diagnostics['n_solved']} re-solved"
    )
    identical = all(
        np.array_equal(a.probabilities, b.probabilities)
        for a, b in zip(outcome, again)
    )
    print(f"identical results: {identical}")


if __name__ == "__main__":
    main()
