"""The built-in lifetime solvers and the ``auto`` dispatcher.

Three interchangeable machineries answer the same
:class:`~repro.engine.problem.LifetimeProblem`:

* ``analytic`` -- the exact occupation-time algorithm (De Souza e Silva &
  Gail / Sericola), applicable when the workload draws at most two distinct
  currents and no charge transfers between the wells (``c = 1`` or
  ``k = 0``); the lifetime CDF is then an analytic functional of the
  occupation time of the high-current states.
* ``mrm-uniformization`` -- the paper's Markovian approximation: the
  KiBaMRM is discretised into a large sparse CTMC whose transient solution
  (via uniformisation) yields the probability of the absorbing
  "battery empty" states.
* ``monte-carlo`` -- trajectory simulation of the workload CTMC with the
  analytic KiBaM integrated along every sampled path.

``auto`` picks among them by problem structure and size: exact when the
analytic algorithm applies, the Markovian approximation while the expanded
chain stays tractable, Monte-Carlo beyond that.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.analysis.distribution import LifetimeDistribution
from repro.battery.kibam import KineticBatteryModel
from repro.engine.base import UnsupportedProblemError
from repro.engine.problem import LifetimeProblem
from repro.engine.result import LifetimeResult
from repro.engine.workspace import SolveWorkspace
from repro.reward.occupation import two_level_lifetime_cdf
from repro.simulation.battery_sim import default_horizon
from repro.simulation.lifetime_sim import (
    default_system_horizon,
    simulate_lifetime_distribution,
    simulate_system_lifetime_distribution,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checking.protocols import DiscretizedChain
    from repro.markov.uniformization import BatchTransientResult

__all__ = [
    "AnalyticSolver",
    "AutoSolver",
    "MonteCarloSolver",
    "MRMUniformizationSolver",
    "build_mrm_result",
    "cdf_mass_diagnostics",
    "choose_method",
    "transient_diagnostics",
]

#: Largest expanded-chain size the ``auto`` dispatcher hands to the
#: Markovian approximation before falling back to Monte-Carlo.
MAX_AUTO_MRM_STATES = 200_000

#: Larger budget for multi-battery chains solved through the matrix-free
#: backend: the operator never materialises the product CSR, so memory stops
#: being the binding constraint and only the per-iteration vector work
#: limits the viable size.
MAX_AUTO_MATRIXFREE_STATES = 2_000_000


def _backend_and_key(
    problem: LifetimeProblem, delta: float
) -> tuple[str | None, tuple[Any, ...]]:
    """Resolve the multi-battery backend and the workspace build key.

    Single-battery problems have one chain realisation; bank problems key
    the workspace's chain/propagator caches on ``(chain_key, backend)``,
    because the three backends build different objects (CSR, operator,
    quotient chain) for the same physical chain.  Steady-state notes keep
    using the bare ``chain_key``: the detected flattening time is a
    property of the lifetime law, not of the realisation.
    """
    key = problem.chain_key()
    if not problem.is_multibattery:
        return None, key
    backend = problem.resolved_backend(delta)
    return backend, key + (("backend", backend),)


def cdf_mass_diagnostics(distribution: LifetimeDistribution) -> dict[str, Any]:
    """Diagnostics entries describing how much of the CDF the grid captured.

    Every solver records these so that callers (and
    :meth:`LifetimeResult.summary`) can tell a complete curve from one
    whose tail was cut off by a too-short time grid.
    """
    return {
        "cdf_mass_achieved": distribution.final_mass,
        "cdf_complete": distribution.is_complete(),
    }


def transient_diagnostics(transient: BatchTransientResult) -> dict[str, Any]:
    """Diagnostics entries describing one uniformisation transient solve.

    Shared by the individual MRM solver and the batched scenario runner so
    both report the fast-path telemetry (segment count, steady-state
    detection point and the products it saved) under the same keys,
    together with the process-global Poisson weight-cache counters.
    """
    from repro.markov.poisson import poisson_cache_diagnostics

    return {
        "n_segments": transient.n_segments,
        "iterations_saved": transient.iterations_saved,
        "steady_state_time": transient.steady_state_time,
        "steady_state_iteration": transient.steady_state_iteration,
        **poisson_cache_diagnostics(),
    }


def build_mrm_result(
    problem: LifetimeProblem,
    chain: DiscretizedChain,
    probabilities: FloatArray,
    *,
    rate: float,
    iterations: int,
    extra_diagnostics: dict[str, Any] | None = None,
) -> LifetimeResult:
    """Package one MRM solution as a :class:`LifetimeResult`.

    Shared by the individual solver and the batched scenario runner so the
    two paths report identical metadata and diagnostics.
    """
    delta = problem.effective_delta
    shared = {
        "delta": delta,
        "n_states": chain.n_states,
        "n_nonzero": chain.n_nonzero,
        "uniformization_rate": rate,
        "iterations": iterations,
        "epsilon": float(problem.epsilon),
    }
    distribution = LifetimeDistribution(
        times=problem.times,
        probabilities=np.clip(np.asarray(probabilities, dtype=float), 0.0, 1.0),
        label=problem.label or f"approximation (delta={delta:g})",
        metadata={"method": MRMUniformizationSolver.name, **shared},
    )
    return LifetimeResult(
        distribution=distribution,
        method=MRMUniformizationSolver.name,
        diagnostics={
            **shared,
            **cdf_mass_diagnostics(distribution),
            **(extra_diagnostics or {}),
        },
    )


class AnalyticSolver:
    """Exact lifetime CDF via the occupation-time algorithm.

    Applicable when the workload has at most two distinct current levels
    and the battery has no bound-to-available transfer (``c = 1`` or
    ``k = 0``): the consumable charge is then exactly the available well
    ``c C`` and the consumption process is a two-level reward.
    """

    name = "analytic"

    def supports(self, problem: LifetimeProblem) -> bool:
        return (
            not problem.is_multibattery
            and problem.n_current_levels <= 2
            and not problem.has_transfer
        )

    def solve(
        self, problem: LifetimeProblem, *, workspace: SolveWorkspace | None = None
    ) -> LifetimeResult:
        if not self.supports(problem):
            raise UnsupportedProblemError(
                "the analytic occupation-time solver requires at most two distinct "
                "currents and no well-to-well transfer (c = 1 or k = 0)"
            )
        started = obs.now()
        workload = problem.workload
        with obs.span("solve", method=self.name, label=problem.label or ""):
            probabilities = two_level_lifetime_cdf(
                workload.generator,
                workload.initial_distribution,
                workload.currents,
                problem.battery.available_capacity,
                problem.times,
                epsilon=problem.epsilon,
            )
        elapsed = obs.now() - started
        obs.count("solves." + self.name)
        obs.observe("solve_seconds." + self.name, elapsed)
        label = problem.label or "exact (occupation-time algorithm)"
        distribution = LifetimeDistribution(
            times=problem.times,
            probabilities=np.asarray(probabilities, dtype=float),
            label=label,
            metadata={
                "method": self.name,
                "effective_capacity": problem.battery.available_capacity,
                "epsilon": problem.epsilon,
            },
        )
        return LifetimeResult(
            distribution=distribution,
            method=self.name,
            diagnostics={
                "effective_capacity_as": problem.battery.available_capacity,
                "epsilon": problem.epsilon,
                "wall_seconds": elapsed,
                **cdf_mass_diagnostics(distribution),
            },
        )


class MRMUniformizationSolver:
    """The paper's Markovian approximation on the expanded sparse CTMC."""

    name = "mrm-uniformization"

    def supports(self, problem: LifetimeProblem) -> bool:
        return True

    def solve(
        self, problem: LifetimeProblem, *, workspace: SolveWorkspace | None = None
    ) -> LifetimeResult:
        started = obs.now()
        ws = workspace if workspace is not None else SolveWorkspace()
        delta = problem.effective_delta
        backend, build_key = _backend_and_key(problem, delta)
        with obs.span("solve", method=self.name, label=problem.label or ""):
            chain = ws.discretized(problem.model(), delta, build_key, backend=backend)
            propagator = ws.propagator(chain, build_key)

            with obs.span("transient"):
                transient = propagator.transient_batch(
                    chain.initial_distribution[None, :],
                    problem.times,
                    epsilon=problem.epsilon,
                    projection=ws.empty_projection(chain, build_key),
                )
        ws.note_steady_state(problem.chain_key(), transient.steady_state_time)
        elapsed = obs.now() - started
        obs.count("solves." + self.name)
        if transient.steady_state_time is not None:
            obs.count("steady_state_detections")
        obs.observe("solve_seconds." + self.name, elapsed)
        extra = {} if backend is None else {"backend": backend}
        return build_mrm_result(
            problem,
            chain,
            transient.values[0],
            rate=transient.rate,
            iterations=transient.iterations,
            extra_diagnostics={
                **transient_diagnostics(transient),
                **extra,
                "wall_seconds": elapsed,
            },
        )


#: Safety factor applied on top of a detected steady-state time before it
#: is used as a Monte-Carlo horizon cap: the detection point carries the
#: discretisation error of the Markovian approximation, so the simulator
#: keeps a margin past it.  The margin is fixed, not delta-scaled, so on
#: very coarse grids a capped run can still censor true tail mass -- the
#: ``censored_runs`` diagnostic is the tell-tale (a materially nonzero
#: count under a capped horizon means the cap was too tight).
STEADY_STATE_HORIZON_SAFETY = 1.25


class MonteCarloSolver:
    """Monte-Carlo estimation along sampled workload trajectories.

    Multi-battery problems are dispatched to the vectorised *system*
    simulator, which samples per-battery trajectories under the problem's
    scheduling policy.

    When no explicit horizon is given and a previous MRM solve in the same
    workspace detected the chain's steady state (the lifetime CDF is flat
    beyond ``steady_state_time``), the default simulation horizon is capped
    there (plus a safety margin) instead of simulating the flat tail; the
    cap is recorded in the diagnostics.
    """

    name = "monte-carlo"

    def supports(self, problem: LifetimeProblem) -> bool:
        return True

    def _effective_horizon(
        self, problem: LifetimeProblem, workspace: SolveWorkspace | None
    ) -> tuple[float | None, dict[str, Any]]:
        """The horizon to simulate with, and the cap diagnostics."""
        diagnostics: dict[str, Any] = {"horizon_capped_by_steady_state": False}
        if problem.horizon is not None:
            return problem.horizon, diagnostics
        if workspace is None:
            return None, diagnostics
        hint = workspace.steady_state_hint(problem.chain_key())
        if hint is None:
            return None, diagnostics
        diagnostics["steady_state_horizon_hint"] = hint
        cap = STEADY_STATE_HORIZON_SAFETY * hint
        if problem.is_multibattery:
            default = default_system_horizon(problem.workload, problem.batteries)
        else:
            default = default_horizon(problem.workload, KineticBatteryModel(problem.battery))
        if cap >= default:
            return None, diagnostics
        diagnostics["horizon_capped_by_steady_state"] = True
        return cap, diagnostics

    def solve(
        self, problem: LifetimeProblem, *, workspace: SolveWorkspace | None = None
    ) -> LifetimeResult:
        started = obs.now()
        horizon, horizon_diagnostics = self._effective_horizon(problem, workspace)
        with obs.span("solve", method=self.name, label=problem.label or ""):
            if problem.is_multibattery:
                simulation = simulate_system_lifetime_distribution(
                    problem.workload,
                    problem.batteries,
                    problem.policy,
                    failures_to_die=problem.failures_to_die,
                    n_runs=problem.n_runs,
                    seed=problem.seed,
                    horizon=horizon,
                )
            else:
                simulation = simulate_lifetime_distribution(
                    problem.workload,
                    KineticBatteryModel(problem.battery),
                    n_runs=problem.n_runs,
                    seed=problem.seed,
                    horizon=horizon,
                )
            probabilities = np.asarray(simulation.cdf(problem.times), dtype=float)
        elapsed = obs.now() - started
        obs.count("solves." + self.name)
        obs.observe("solve_seconds." + self.name, elapsed)

        label = problem.label or f"simulation ({problem.n_runs} runs)"
        distribution = LifetimeDistribution(
            times=problem.times,
            probabilities=probabilities,
            label=label,
            metadata={
                "method": self.name,
                "n_runs": problem.n_runs,
                "horizon": simulation.horizon,
            },
        )
        return LifetimeResult(
            distribution=distribution,
            method=self.name,
            diagnostics={
                "n_runs": problem.n_runs,
                "seed": problem.seed,
                "horizon": simulation.horizon,
                "mean_lifetime_seconds": simulation.mean_lifetime,
                "censored_runs": int(np.isinf(simulation.samples).sum()),
                "wall_seconds": elapsed,
                **horizon_diagnostics,
                **cdf_mass_diagnostics(distribution),
            },
        )


def choose_method(problem: LifetimeProblem) -> str:
    """Return the solver name ``auto`` dispatches *problem* to.

    Exact analytic solution when it applies; otherwise the Markovian
    approximation while the chain the solver would actually iterate on
    stays below its size budget; Monte-Carlo simulation beyond that.  For
    multi-battery problems the budget follows the resolved product-chain
    backend: the symmetry-lumped quotient of an identical bank counts its
    (much smaller) quotient states against :data:`MAX_AUTO_MRM_STATES`,
    and matrix-free banks -- no assembled matrix to hold -- get the larger
    :data:`MAX_AUTO_MATRIXFREE_STATES` budget.
    """
    if AnalyticSolver().supports(problem):
        return AnalyticSolver.name
    if problem.is_multibattery:
        matrix_free = problem.resolved_backend() == "matrix-free"
        limit = MAX_AUTO_MATRIXFREE_STATES if matrix_free else MAX_AUTO_MRM_STATES
        if problem.estimated_backend_states() <= limit:
            return MRMUniformizationSolver.name
        return MonteCarloSolver.name
    if problem.estimated_mrm_states() <= MAX_AUTO_MRM_STATES:
        return MRMUniformizationSolver.name
    return MonteCarloSolver.name


class AutoSolver:
    """Structure- and size-based dispatcher over the built-in solvers."""

    name = "auto"

    def supports(self, problem: LifetimeProblem) -> bool:
        return True

    def solve(
        self, problem: LifetimeProblem, *, workspace: SolveWorkspace | None = None
    ) -> LifetimeResult:
        from repro.engine.registry import get_solver

        method = choose_method(problem)
        obs.count("auto_dispatch." + method)
        result = get_solver(method).solve(problem, workspace=workspace)
        diagnostics = dict(result.diagnostics)
        diagnostics["auto_dispatched_to"] = method
        return replace(result, diagnostics=diagnostics)
