"""Batched scenario execution with shared-work reuse.

A :class:`ScenarioBatch` solves many (workload x battery-parameter)
scenarios in one call.  Compared to a loop of independent solves it reuses
work on three levels:

1. **Poisson windows** are memoised globally, so scenarios that share a
   uniformisation rate and time points never recompute a Fox--Glynn window.
2. **Chain builds** are cached in a :class:`~repro.engine.workspace.SolveWorkspace`:
   scenarios that discretise to the same expanded CTMC (same workload,
   battery and step size -- e.g. the same model evaluated on several time
   grids) share one sparse generator build, one validation and one
   uniformised matrix, and are solved in a single multi-time-point pass
   over the union of their grids.
3. **Transfer-free chains are merged across capacities**: when no charge
   moves between the wells (``c = 1`` or ``k = 0``) the expanded chain's
   transition rates do not depend on the capacity -- a smaller battery is
   the *same* chain started at a lower charge level.  Such scenarios are
   mapped onto one chain built at the largest capacity and propagated as a
   **stack of initial vectors** in one blocked uniformisation pass, which
   replaces ``K`` sparse matrix--vector sweeps by one matrix--block sweep.

The merge in (3) is exact: the consumption and workload rates of the
expanded chain are level-independent, the empty states (``j1 = 0``) are
shared, and the maximal exit rate (hence the uniformisation rate and the
Poisson windows) is identical, so batched results match independent solves
to floating-point accuracy.  Chains *with* transfer are never merged across
capacities, because the transfer cutoff at the top of the smaller grid
would differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.analysis.distribution import LifetimeDistribution
from repro.core.discretization import DiscretizedKiBaMRM, place_initial_distribution
from repro.engine.problem import LifetimeProblem
from repro.engine.result import LifetimeResult
from repro.engine.solvers import (
    MRMUniformizationSolver,
    _backend_and_key,
    build_mrm_result,
    choose_method,
    transient_diagnostics,
)
from repro.engine.workspace import SolveWorkspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable, Iterator, Sequence

    from repro.battery.parameters import KiBaMParameters
    from repro.checking import FloatArray

__all__ = ["BatchResult", "ScenarioBatch", "chain_merge_key"]


def chain_merge_key(problem: LifetimeProblem) -> tuple[Any, ...]:
    """Grouping key: MRM scenarios with equal keys can share an expanded chain.

    Chains with transfer only merge when truly identical; transfer-free
    chains merge across capacities (see the module docstring for why that
    merge is exact).  Multi-battery product chains always use the
    identical-key merge: their chain key covers the whole bank, the policy
    and the depletion predicate, and the capacity-stacking argument does
    not carry over (the failed-state set depends on the joint levels).
    Used both by :meth:`ScenarioBatch.run` (to form the
    blocked-uniformisation groups) and by the sweep partitioner (so
    chain-mates are never split across worker processes) -- keep it the
    single source of truth for what may share one transient solve.
    """
    if problem.is_multibattery:
        # The resolved product-chain backend joins the key: scenarios pinned
        # to different backends build different chain objects and must not
        # share one blocked solve (their results agree, their workspaces
        # do not).
        return (
            "identical",
            problem.chain_key(),
            problem.resolved_backend(),
            float(problem.epsilon),
            problem.transient_mode,
        )
    if problem.has_transfer:
        return (
            "identical",
            problem.chain_key(),
            float(problem.epsilon),
            problem.transient_mode,
        )
    return (
        "stacked",
        problem.workload_fingerprint(),
        float(problem.battery.c),
        float(problem.battery.k),
        float(problem.effective_delta),
        float(problem.epsilon),
        problem.transient_mode,
    )


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Results of a :class:`ScenarioBatch` run, in scenario order."""

    results: tuple[LifetimeResult, ...]
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[LifetimeResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> LifetimeResult:
        return self.results[index]

    @property
    def distributions(self) -> list[LifetimeDistribution]:
        """The lifetime distributions, in scenario order."""
        return [result.distribution for result in self.results]


class ScenarioBatch:
    """A collection of lifetime problems solved together.

    Parameters
    ----------
    problems:
        The scenarios, one :class:`LifetimeProblem` each (give each a
        ``label`` to tell the curves apart).
    """

    def __init__(self, problems: Iterable[LifetimeProblem]) -> None:
        self._problems: list[LifetimeProblem] = list(problems)
        if not self._problems:
            raise ValueError("a scenario batch needs at least one problem")

    # ------------------------------------------------------------------
    @classmethod
    def over_batteries(
        cls,
        base: LifetimeProblem,
        batteries: Iterable[KiBaMParameters],
        labels: Sequence[str] | None = None,
    ) -> "ScenarioBatch":
        """Sweep the base problem over several battery parameter sets."""
        batteries = list(batteries)
        if labels is None:
            labels = [
                f"C={battery.capacity:g}, c={battery.c:g}, k={battery.k:g}"
                for battery in batteries
            ]
        return cls(
            base.with_battery(battery).with_label(label)
            for battery, label in zip(batteries, labels)
        )

    @classmethod
    def over_deltas(
        cls,
        base: LifetimeProblem,
        deltas: Iterable[float],
        label_format: str = "Delta={delta:g}",
    ) -> "ScenarioBatch":
        """Sweep the base problem over several discretisation steps."""
        return cls(
            base.with_delta(float(delta)).with_label(label_format.format(delta=delta))
            for delta in deltas
        )

    @classmethod
    def over_policies(
        cls,
        base: Any,
        policies: Sequence[Any],
        labels: Sequence[str] | None = None,
    ) -> "ScenarioBatch":
        """Sweep a multi-battery base problem over scheduling policies.

        *base* must be a
        :class:`~repro.multibattery.problem.MultiBatteryProblem`; the
        *policies* are registry names or policy instances.
        """
        policies = list(policies)
        if labels is None:
            labels = [getattr(policy, "name", str(policy)) for policy in policies]
        return cls(
            base.with_policy(policy).with_label(label)
            for policy, label in zip(policies, labels)
        )

    @property
    def problems(self) -> list[LifetimeProblem]:
        """The scenarios of this batch."""
        return list(self._problems)

    def __len__(self) -> int:
        return len(self._problems)

    # ------------------------------------------------------------------
    def run(
        self,
        method: str = "auto",
        *,
        workspace: SolveWorkspace | None = None,
    ) -> BatchResult:
        """Solve every scenario, sharing work wherever possible.

        Parameters
        ----------
        method:
            Registry key applied to every scenario; ``"auto"`` dispatches
            each scenario independently.
        workspace:
            Optional shared workspace; one is created (and its reuse
            statistics reported) when omitted.
        """
        from repro.engine.registry import get_solver

        started = time.perf_counter()
        ws = workspace if workspace is not None else SolveWorkspace()
        results: list[LifetimeResult | None] = [None] * len(self._problems)

        # Resolve the concrete method per scenario.
        methods = [
            choose_method(problem) if method == "auto" else method
            for problem in self._problems
        ]

        # Group the MRM scenarios that can share a chain; everything else is
        # solved individually (still sharing the workspace caches).
        mrm_name = MRMUniformizationSolver.name
        groups: dict[tuple[Any, ...], list[int]] = {}
        for index, (problem, concrete) in enumerate(zip(self._problems, methods)):
            if concrete != mrm_name:
                continue
            groups.setdefault(chain_merge_key(problem), []).append(index)

        merged_groups = 0
        stacked_scenarios = 0
        for key, indices in groups.items():
            if len(indices) < 2:
                continue
            merged_groups += 1
            stacked_scenarios += len(indices)
            group = [self._problems[i] for i in indices]
            for i, result in zip(indices, self._solve_mrm_group(group, ws)):
                results[i] = result

        for index, (problem, concrete) in enumerate(zip(self._problems, methods)):
            if results[index] is not None:
                continue
            results[index] = get_solver(concrete).solve(problem, workspace=ws)

        diagnostics = {
            "n_scenarios": len(self._problems),
            "merged_groups": merged_groups,
            "stacked_scenarios": stacked_scenarios,
            "wall_seconds": time.perf_counter() - started,
            **ws.diagnostics(),
        }
        return BatchResult(results=tuple(results), diagnostics=diagnostics)

    # ------------------------------------------------------------------
    def _solve_mrm_group(
        self, group: list[LifetimeProblem], ws: SolveWorkspace
    ) -> list[LifetimeResult]:
        """Solve a chain-sharing group of MRM scenarios in one blocked pass."""
        started = time.perf_counter()
        # The chain is built for the scenario with the largest capacity;
        # every other scenario is the same chain started at a lower level.
        anchor = max(group, key=lambda problem: problem.battery.capacity)
        delta = anchor.effective_delta
        backend, key = _backend_and_key(anchor, delta)
        chain = ws.discretized(anchor.model(), delta, key, backend=backend)
        propagator = ws.propagator(chain, key)

        # Scenarios with the same battery reduce to the same initial vector
        # (they differ only in time grid / label); deduplicate the rows so
        # the blocked pass propagates each distinct start exactly once.
        vectors = [self._initial_vector(chain, problem) for problem in group]
        unique_rows: dict[bytes, int] = {}
        row_of: list[int] = []
        stack: list[FloatArray] = []
        for vector in vectors:
            fingerprint = vector.tobytes()
            row = unique_rows.get(fingerprint)
            if row is None:
                row = len(stack)
                unique_rows[fingerprint] = row
                stack.append(vector)
            row_of.append(row)

        merged_times = np.unique(np.concatenate([problem.times for problem in group]))
        with obs.span("batch_solve", size=len(group), rows=len(stack)):
            transient = propagator.transient_batch(
                np.stack(stack),
                merged_times,
                epsilon=float(group[0].epsilon),
                projection=ws.empty_projection(chain, key),
                mode=group[0].transient_mode,
            )
        # Steady-state notes key on the physical chain (the flattening time
        # is backend-independent), not on the workspace build key.
        ws.note_steady_state(anchor.chain_key(), transient.steady_state_time)
        elapsed = time.perf_counter() - started
        if transient.steady_state_time is not None:
            obs.count("steady_state_detections")
        obs.observe("solve_seconds.mrm_batch", elapsed)

        results = []
        for index, problem in enumerate(group):
            columns = np.searchsorted(merged_times, problem.times)
            results.append(
                build_mrm_result(
                    problem,
                    chain,
                    transient.values[row_of[index], columns],
                    rate=transient.rate,
                    iterations=transient.iterations,
                    extra_diagnostics={
                        **transient_diagnostics(transient),
                        **({} if backend is None else {"backend": backend}),
                        "batched": True,
                        "batch_size": len(group),
                        "batch_rows": len(stack),
                        "wall_seconds": elapsed,
                    },
                )
            )
        return results

    @staticmethod
    def _initial_vector(
        chain: DiscretizedKiBaMRM, problem: LifetimeProblem
    ) -> FloatArray:
        """Place the workload's initial law at the scenario's charge levels."""
        if problem.is_multibattery:
            # Bank scenarios only merge on identical chain keys, so every
            # group member starts from the chain's own initial vector (the
            # full-charge product cell).
            return np.asarray(chain.initial_distribution, dtype=float)
        available0, bound0 = problem.model().initial_rewards
        return place_initial_distribution(chain.grid, problem.workload, available0, bound0)
