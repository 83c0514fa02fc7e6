"""The built-in lifetime solvers and the ``auto`` dispatcher.

Three interchangeable machineries answer the same
:class:`~repro.engine.problem.LifetimeProblem`:

* ``analytic`` -- the exact occupation-time algorithm (De Souza e Silva &
  Gail / Sericola), applicable when the workload draws at most two distinct
  currents and no charge transfers between the wells (``c = 1`` or
  ``k = 0``); the lifetime CDF is then an analytic functional of the
  occupation time of the high-current states.
* ``mrm-uniformization`` -- the paper's Markovian approximation: the
  KiBaMRM (a single battery as a bank of one, or a bank) is discretised
  into a large sparse CTMC whose transient solution (via uniformisation)
  yields the probability of the absorbing "battery empty" states.  One
  blocked pass answers every problem of a chain-sharing group
  (:meth:`MRMUniformizationSolver.solve_group`); a single solve is a
  group of one.
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
from repro.core.discretization import place_initial_distribution
from repro.engine.base import UnsupportedProblemError
from repro.engine.problem import LifetimeProblem
from repro.engine.result import LifetimeResult
from repro.engine.workspace import SolveWorkspace
from repro.markov.poisson import poisson_cache_diagnostics
from repro.reward.occupation import two_level_lifetime_cdf
from repro.simulation.lifetime_sim import (
    default_system_horizon,
    simulate_lifetime_distribution,
    simulate_system_lifetime_distribution,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence

    from repro.checking.protocols import DiscretizedChain, FloatArray

__all__ = [
    "AnalyticSolver",
    "AutoSolver",
    "MonteCarloSolver",
    "MRMUniformizationSolver",
    "cdf_mass_diagnostics",
    "choose_method",
]

#: Largest expanded-chain size the ``auto`` dispatcher hands to the
#: Markovian approximation before falling back to Monte-Carlo, for
#: single-battery chains and for the quotient states of lumped banks.
MAX_AUTO_MRM_STATES = 200_000

#: Larger budget, in product states, for every non-lumped bank, whichever
#: backend applies ``P``.  Under ``"auto"`` a bank is assembled only while
#: its ``P`` fits
#: :data:`~repro.multibattery.system.ASSEMBLED_CSR_BUDGET_BYTES` and is
#: applied matrix-free beyond it, so only the per-iteration vector work
#: limits the viable size.  A bank pinned to ``"assembled"`` is assembled
#: at any size (no byte budget applies to a pin), so such a pin above the
#: budget costs the memory of its ``P``, not a change of method.
MAX_AUTO_MATRIXFREE_STATES = 2_000_000


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


def _initial_vector(chain: DiscretizedChain, problem: LifetimeProblem) -> FloatArray:
    """Place the problem's initial law at its own charge levels on *chain*."""
    if problem.is_multibattery:
        # Bank problems only share a chain with identical keys, so every
        # one starts from the chain's own initial vector (the full-charge
        # product cell).
        return np.asarray(chain.initial_distribution, dtype=float)
    # A stacked transfer-free group starts the anchor's bank of one at each
    # battery's own full-charge cell.
    battery = problem.battery
    return place_initial_distribution(
        chain.grids[0], problem.workload, battery.available_capacity, battery.bound_capacity
    )


class MRMUniformizationSolver:
    """The paper's Markovian approximation on the expanded sparse CTMC.

    :meth:`solve_group` answers problems that share one expanded chain
    (equal :func:`~repro.engine.batch.chain_merge_key`) in one blocked
    uniformisation pass; :meth:`solve` is that pass on a group of one.
    """

    name = "mrm-uniformization"

    def supports(self, problem: LifetimeProblem) -> bool:
        return True

    def solve(
        self, problem: LifetimeProblem, *, workspace: SolveWorkspace | None = None
    ) -> LifetimeResult:
        ws = workspace if workspace is not None else SolveWorkspace()
        return self.solve_group([problem], ws)[0]

    def solve_group(
        self, group: Sequence[LifetimeProblem], workspace: SolveWorkspace
    ) -> list[LifetimeResult]:
        """Solve a chain-sharing group of problems in one blocked pass.

        The chain is built for the problem with the largest capacity; every
        other problem is the same chain started at a lower charge level
        (see :mod:`repro.engine.batch`).  Bank problems key the workspace's
        chain and propagator caches on ``(chain_key, backend)``, because
        the backends build different objects (a CSR ``P`` or the
        factor-wise operator, or the quotient chain) for the same physical
        chain; steady-state notes key on the
        bare ``chain_key``, because the detected flattening time is a
        property of the lifetime law, not of the realisation.
        """
        started = obs.now()
        anchor = max(group, key=lambda problem: problem.battery.capacity)
        delta = anchor.effective_delta
        key = anchor.chain_key()
        backend = None
        if anchor.is_multibattery:
            backend = anchor.resolved_backend(delta)
            key += (("backend", backend),)
        with obs.span("solve", method=self.name, label=anchor.label or "", size=len(group)):
            chain = workspace.discretized(anchor.model(), delta, key, backend=backend)
            propagator = workspace.propagator(chain, key)
            # Problems with the same battery start from the same vector (they
            # differ only in time grid or label): propagate each distinct
            # start once.
            rows: dict[bytes, int] = {}
            stack: list[FloatArray] = []
            row_of: list[int] = []
            for problem in group:
                vector = _initial_vector(chain, problem)
                row = rows.setdefault(vector.tobytes(), len(stack))
                if row == len(stack):
                    stack.append(vector)
                row_of.append(row)
            times = np.unique(np.concatenate([problem.times for problem in group]))
            with obs.span("transient"):
                transient = propagator.transient_batch(
                    np.stack(stack),
                    times,
                    epsilon=float(anchor.epsilon),
                    projection=workspace.empty_projection(chain, key),
                )
        workspace.note_steady_state(anchor.chain_key(), transient.steady_state_time)
        elapsed = obs.now() - started
        obs.count("solves." + self.name, len(group))
        if transient.steady_state_time is not None:
            obs.count("steady_state_detections")
        obs.observe("solve_seconds." + self.name, elapsed)

        shared = {
            "delta": delta,
            "n_states": chain.n_states,
            "n_nonzero": chain.n_nonzero,
            "uniformization_rate": transient.rate,
            "iterations": transient.iterations,
            "epsilon": float(anchor.epsilon),
        }
        telemetry = {
            "n_segments": transient.n_segments,
            "iterations_saved": transient.iterations_saved,
            "steady_state_time": transient.steady_state_time,
            "steady_state_iteration": transient.steady_state_iteration,
            **poisson_cache_diagnostics(),
            **({} if backend is None else {"backend": backend}),
            **(
                {}
                if len(group) == 1
                else {"batched": True, "batch_size": len(group), "batch_rows": len(stack)}
            ),
            "wall_seconds": elapsed,
        }
        results = []
        for problem, row in zip(group, row_of):
            distribution = LifetimeDistribution(
                times=problem.times,
                probabilities=np.clip(
                    transient.values[row, np.searchsorted(times, problem.times)], 0.0, 1.0
                ),
                label=problem.label or f"approximation (delta={delta:g})",
                metadata={"method": self.name, **shared},
            )
            results.append(
                LifetimeResult(
                    distribution=distribution,
                    method=self.name,
                    diagnostics={**shared, **cdf_mass_diagnostics(distribution), **telemetry},
                )
            )
        return results


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

    Every problem runs on the one vectorised engine
    (:func:`~repro.simulation.vectorized.simulate_system_lifetimes_vectorized`):
    a bank under the problem's scheduling policy, a single battery as a
    bank of one.

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
        batteries = problem.batteries if problem.is_multibattery else (problem.battery,)
        if cap >= default_system_horizon(problem.workload, batteries):
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
                    problem.battery,
                    n_runs=problem.n_runs,
                    seed=problem.seed,
                    horizon=horizon,
                )
            probabilities = np.asarray(simulation.cdf(problem.times), dtype=float)
        elapsed = obs.now() - started
        censored = int(np.isinf(simulation.samples).sum())
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
                # No run died before the horizon: there is no sample mean.
                "mean_lifetime_seconds": (
                    None if censored == simulation.n_runs else simulation.mean_lifetime
                ),
                "censored_runs": censored,
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
    and every other bank counts its product states against
    :data:`MAX_AUTO_MATRIXFREE_STATES`, whether its ``P`` is assembled or
    applied matrix-free -- the backend changes the cost per product, not
    which method answers.
    """
    if AnalyticSolver().supports(problem):
        return AnalyticSolver.name
    if problem.is_multibattery:
        lumped = problem.resolved_backend() == "lumped"
        limit = MAX_AUTO_MRM_STATES if lumped else MAX_AUTO_MATRIXFREE_STATES
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
