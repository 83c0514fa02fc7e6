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

The blocked pass is
:meth:`~repro.engine.solvers.MRMUniformizationSolver.solve_group`; a
single MRM solve is the same pass on a group of one.  This module only
forms the groups (:func:`chain_merge_key`) and reports the merge counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.distribution import LifetimeDistribution
from repro.engine.problem import LifetimeProblem
from repro.engine.result import LifetimeResult
from repro.engine.solvers import MRMUniformizationSolver, choose_method
from repro.engine.workspace import SolveWorkspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable, Iterator, Sequence

    from repro.battery.parameters import KiBaMParameters

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
        )
    if problem.has_transfer:
        return ("identical", problem.chain_key(), float(problem.epsilon))
    return (
        "stacked",
        problem.workload_fingerprint(),
        float(problem.battery.c),
        float(problem.battery.k),
        float(problem.effective_delta),
        float(problem.epsilon),
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
            Solver name applied to every scenario; ``"auto"`` dispatches
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

        # Group the MRM scenarios that can share a chain.  Groups of two or
        # more are solved first, one blocked pass each; everything else --
        # a lone MRM scenario is a group of one -- follows in scenario
        # order, still sharing the workspace caches.
        mrm_name = MRMUniformizationSolver.name
        groups: dict[tuple[Any, ...], list[int]] = {}
        for index, (problem, concrete) in enumerate(zip(self._problems, methods)):
            if concrete != mrm_name:
                continue
            groups.setdefault(chain_merge_key(problem), []).append(index)

        merged_groups = 0
        stacked_scenarios = 0
        solver = MRMUniformizationSolver()
        for indices in groups.values():
            if len(indices) < 2:
                continue
            merged_groups += 1
            stacked_scenarios += len(indices)
            group = [self._problems[i] for i in indices]
            for i, result in zip(indices, solver.solve_group(group, ws)):
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
