"""repro -- Computing Battery Lifetime Distributions (DSN 2007), in Python.

This library reproduces the system described in

    L. Cloth, M. R. Jongerden, B. R. Haverkort,
    "Computing Battery Lifetime Distributions", DSN 2007.

It combines the Kinetic Battery Model (KiBaM) with stochastic CTMC workload
models into a reward-inhomogeneous Markov reward model (the *KiBaMRM*) and
computes the distribution of the battery lifetime.

The recommended entry point is the **unified solver engine**
(:mod:`repro.engine`): describe the lifetime question once as a
:class:`~repro.engine.LifetimeProblem` and hand it to any of the
registered, interchangeable backends --

* ``analytic`` -- the exact occupation-time algorithm (two-level-current
  workloads without well-to-well transfer),
* ``mrm-uniformization`` -- the paper's Markovian approximation on the
  discretised, sparse expanded CTMC,
* ``monte-carlo`` -- trajectory simulation with the analytic KiBaM,
* ``auto`` -- dispatches among them by problem structure and size.

Parameter sweeps go through :class:`~repro.engine.ScenarioBatch`, which
shares chain builds, uniformised matrices and Poisson windows across the
scenarios and propagates transfer-free capacity sweeps as one blocked pass.
Large sweeps go one level up through :func:`~repro.engine.run_sweep`
(declared as a :class:`~repro.engine.SweepSpec` cross-product), which fans
the scenarios out over worker processes and memoises solved scenarios in a
fingerprint-keyed :class:`~repro.engine.SweepCache`, in memory or on disk.

Systems powered by a *bank* of batteries go through
:class:`~repro.multibattery.MultiBatteryProblem`
(:mod:`repro.multibattery`): per-battery charge grids are composed into a
product-space CTMC by sparse Kronecker assembly, the load is routed by a
registered scheduling policy (``static-split`` | ``round-robin`` |
``best-of``) and system failure is a configurable k-of-N depletion
predicate -- all solved by the same engine stack.

Quick start
-----------
>>> import numpy as np
>>> from repro import KiBaMParameters, simple_workload
>>> from repro.engine import LifetimeProblem, solve_lifetime
>>> problem = LifetimeProblem(
...     workload=simple_workload(),
...     battery=KiBaMParameters.from_mah(800.0, c=0.625, k_per_second=4.5e-5),
...     times=np.linspace(1.0, 30.0, 30) * 3600.0,
...     delta=25.0 * 3.6,
... )
>>> curve = solve_lifetime(problem, "auto").distribution
>>> float(curve.probability_empty_at(20 * 3600)) > 0.5
True

Sub-packages
------------
``repro.api``
    The blessed public facade: :func:`repro.api.solve`,
    :func:`repro.api.sweep`, :func:`repro.api.serve` plus the stable
    request/result types.  New code should import from here.
``repro.engine``
    The unified lifetime-solver layer: problems, results, the solver
    registry, batched scenario execution and deterministic-profile helpers.
``repro.service``
    The long-lived lifetime-query service: fingerprint-keyed result store
    with LRU eviction, request coalescing, warm solve workspace.
``repro.multibattery``
    Multi-battery scheduling: product-space MRMs (sparse Kronecker
    assembly), the scheduler-policy registry, k-of-N system failure.
``repro.battery``
    KiBaM, modified KiBaM, Peukert's law, ideal battery, load profiles.
``repro.workload``
    CTMC workload models (on/off, simple, burst, MMPP, duty-cycle, seeded
    random generation) and a builder.
``repro.markov``
    CTMC substrate: sparse-first uniformisation (with the reusable
    :class:`~repro.markov.uniformization.TransientPropagator`), memoised
    Fox--Glynn windows, steady state, phase types.
``repro.reward``
    Markov reward models, Sericola's exact performability algorithm.
``repro.core``
    The KiBaMRM and its discretisation into the expanded CTMC.
``repro.simulation``
    Trajectory-driven Monte-Carlo lifetime simulation.
``repro.analysis``
    Result containers, comparison metrics, reporting helpers.
``repro.experiments``
    Reproduction drivers for every table and figure of the paper; all of
    them route through :mod:`repro.engine`.
"""

from repro.analysis import LifetimeDistribution
from repro.battery import (
    ConstantLoad,
    IdealBattery,
    KiBaMParameters,
    KineticBatteryModel,
    ModifiedKineticBatteryModel,
    PeukertBattery,
    PiecewiseConstantLoad,
    SquareWaveLoad,
    rao_battery_parameters,
)
from repro.core import KiBaMRM
from repro.engine import (
    LifetimeProblem,
    LifetimeResult,
    RunOptions,
    ScenarioBatch,
    SweepCache,
    SweepSpec,
    run_sweep,
    solve_lifetime,
)
from repro.service import LifetimeQuery, LifetimeService
from repro.simulation import simulate_lifetime_distribution
from repro.workload import (
    WorkloadBuilder,
    WorkloadModel,
    burst_workload,
    duty_cycle_workload,
    get_workload,
    mmpp_workload,
    onoff_workload,
    random_workload,
    simple_workload,
)

__version__ = "1.2.0"

__all__ = [
    "ConstantLoad",
    "IdealBattery",
    "KiBaMParameters",
    "KiBaMRM",
    "KineticBatteryModel",
    "LifetimeDistribution",
    "LifetimeProblem",
    "LifetimeQuery",
    "LifetimeResult",
    "LifetimeService",
    "ModifiedKineticBatteryModel",
    "PeukertBattery",
    "PiecewiseConstantLoad",
    "RunOptions",
    "ScenarioBatch",
    "SquareWaveLoad",
    "SweepCache",
    "SweepSpec",
    "WorkloadBuilder",
    "WorkloadModel",
    "burst_workload",
    "duty_cycle_workload",
    "get_workload",
    "mmpp_workload",
    "onoff_workload",
    "random_workload",
    "rao_battery_parameters",
    "run_sweep",
    "simple_workload",
    "simulate_lifetime_distribution",
    "solve_lifetime",
    "__version__",
]
