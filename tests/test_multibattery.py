"""Tests of the multi-battery scheduling subsystem.

Covers the product-space construction (including a hypothesis property
test against an explicitly enumerated reference chain), the scheduler
policies, the engine threading (solvers, ``auto`` dispatch, batches,
sweeps, cache fingerprints), the MRM-vs-Monte-Carlo agreement per policy
and the steady-state horizon cap of the Monte-Carlo solver.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.api import LifetimeProblem, RunOptions, ScenarioBatch, SweepCache, SweepSpec
from repro.battery.parameters import KiBaMParameters
from repro.checking import dense_fallback
from repro.core.grid import RewardGrid
from repro.engine.registry import solve_lifetime
from repro.engine.solvers import choose_method
from repro.engine.sweep import run_sweep, scenario_fingerprint
from repro.engine.workspace import SolveWorkspace
from repro.multibattery import (
    MultiBatteryProblem,
    MultiBatterySystem,
    available_policies,
    get_policy,
)
from repro.simulation.lifetime_sim import (
    default_system_horizon,
    simulate_system_lifetime_distribution,
)
from repro.workload.base import WorkloadModel
from repro.workload.onoff import onoff_workload


def busy_idle_workload(busy_current: float = 0.5, idle_current: float = 0.05) -> WorkloadModel:
    return WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([busy_current, idle_current]),
        initial_distribution=np.array([1.0, 0.0]),
    )


# ----------------------------------------------------------------------
# Reference construction: an explicitly enumerated product chain.
# ----------------------------------------------------------------------
def enumerate_product_chain(system: MultiBatterySystem, delta: float):
    """Loop-based reference for the Kronecker assembly (tiny systems only).

    Returns ``(generator, initial, failed_states)`` built state by state
    from the definition: workload and phase transitions, per-battery
    transfer and policy-weighted consumption transitions, absorbing
    k-of-N-failed states.
    """
    workload = system.workload
    policy = system.policy
    n_batteries = system.n_batteries
    grids = [
        RewardGrid(delta, battery.available_capacity, battery.bound_capacity)
        for battery in system.batteries
    ]
    cells = [grid.n_cells for grid in grids]
    n_cells = int(np.prod(cells))
    n_phases = policy.n_phases(n_batteries)
    phase_generator = np.asarray(policy.phase_generator(n_batteries), dtype=float)
    n_states = workload.n_states * n_phases * n_cells

    def cell_split(cell_flat):
        """Decompose a flat cell index into per-battery (j1, j2) pairs."""
        parts = []
        rest = cell_flat
        for size in reversed(cells):
            parts.append(rest % size)
            rest //= size
        parts = parts[::-1]
        return [
            (part // grids[b].n_levels2, part % grids[b].n_levels2)
            for b, part in enumerate(parts)
        ]

    def flat(i, p, per_battery):
        cell = 0
        for b, grid in enumerate(grids):
            j1, j2 = per_battery[b]
            cell = cell * cells[b] + (j1 * grid.n_levels2 + j2)
        return (i * n_phases + p) * n_cells + cell

    generator = np.zeros((n_states, n_states))
    failed = []
    for index in range(n_states):
        cell_flat = index % n_cells
        aux = index // n_cells
        p = aux % n_phases
        i = aux // n_phases
        per_battery = cell_split(cell_flat)
        levels = np.array([[j1 for j1, _ in per_battery]], dtype=float)
        alive = levels >= 1
        if int((~alive).sum()) >= system.failures_to_die:
            if i == 0 and p == 0:
                failed.append(cell_flat)
            continue
        # Workload transitions.
        for target in range(workload.n_states):
            if target != i and workload.generator[i, target] > 0.0:
                generator[index, flat(target, p, per_battery)] += workload.generator[i, target]
        # Phase transitions.
        for target in range(n_phases):
            if target != p and phase_generator[p, target] > 0.0:
                generator[index, flat(i, target, per_battery)] += phase_generator[p, target]
        weights = policy.routing_weights(levels, alive)[p, 0]
        for b, (grid, battery) in enumerate(zip(grids, system.batteries)):
            j1, j2 = per_battery[b]
            # Transfer: one quantum moves bound -> available.
            if (
                battery.k > 0.0
                and battery.c < 1.0
                and 1 <= j1 <= grid.n_levels1 - 2
                and j2 >= 1
            ):
                rate = battery.k * (j2 / (1.0 - battery.c) - j1 / battery.c)
                if rate > 0.0:
                    moved = list(per_battery)
                    moved[b] = (j1 + 1, j2 - 1)
                    generator[index, flat(i, p, moved)] += rate
            # Consumption: the policy's share of the workload current.
            current = weights[b] * workload.currents[i]
            if j1 >= 1 and current > 0.0:
                drained = list(per_battery)
                drained[b] = (j1 - 1, j2)
                generator[index, flat(i, p, drained)] += current / delta
    np.fill_diagonal(generator, generator.diagonal() - generator.sum(axis=1))

    initial = np.zeros(n_states)
    per_battery0 = [
        (
            grid.level_of(battery.available_capacity, dimension=1),
            grid.level_of(battery.bound_capacity, dimension=2) if grid.two_dimensional else 0,
        )
        for grid, battery in zip(grids, system.batteries)
    ]
    for i, mass in enumerate(workload.initial_distribution):
        if mass > 0.0:
            initial[flat(i, 0, per_battery0)] = mass

    failed_states = np.array(
        sorted(
            (i * n_phases + p) * n_cells + cell
            for cell in failed
            for i in range(workload.n_states)
            for p in range(n_phases)
        ),
        dtype=np.int64,
    )
    return generator, initial, failed_states


class TestProductAssembly:
    @settings(max_examples=25, deadline=None)
    @given(
        n_batteries=st.integers(min_value=2, max_value=3),
        capacity_levels=st.lists(
            st.floats(min_value=1.2, max_value=3.8), min_size=3, max_size=3
        ),
        c=st.sampled_from([1.0, 0.5, 0.625]),
        k=st.sampled_from([0.0, 0.3]),
        policy_name=st.sampled_from(["static-split", "round-robin", "best-of"]),
        failures=st.integers(min_value=1, max_value=3),
    )
    def test_kron_assembly_matches_enumeration(
        self, n_batteries, capacity_levels, c, k, policy_name, failures
    ):
        """The Kronecker-assembled generator equals the enumerated product chain."""
        delta = 1.0
        batteries = tuple(
            KiBaMParameters(capacity=capacity_levels[b] / max(c, 1e-9), c=c, k=k)
            for b in range(n_batteries)
        )
        system = MultiBatterySystem(
            workload=busy_idle_workload(),
            batteries=batteries,
            policy=get_policy(policy_name),
            failures_to_die=min(failures, n_batteries),
        )
        chain = system.discretize(delta)
        if chain.n_states > 2500:  # keep the dense reference cheap
            return
        generator, initial, failed_states = enumerate_product_chain(system, delta)

        np.testing.assert_allclose(
            dense_fallback(chain.generator), generator, atol=1e-12, rtol=1e-12
        )
        np.testing.assert_array_equal(chain.initial_distribution, initial)
        np.testing.assert_array_equal(np.sort(chain.empty_states), failed_states)
        # The production P of the assembled backend: I + Q_enum / q.
        propagator = SolveWorkspace().propagator(chain, ("bank", chain.backend))
        assert chain.backend == "assembled" and not propagator.is_matrix_free
        probability = propagator.probability_matrix
        np.testing.assert_allclose(
            dense_fallback(probability),
            np.eye(chain.n_states) + generator / propagator.rate,
            atol=1e-12,
            rtol=1e-12,
        )
        assert probability.nnz <= system.estimated_nonzeros(delta)

    def test_single_battery_is_its_bank_of_one(self):
        """A battery and its one-battery static-split bank solve on one chain.

        Both build the same Kronecker construction, so the answers are
        bit-identical, not merely close.  A stacked transfer-free group
        shares the anchor's bank of one: each member starts at its own cell
        and answers within epsilon of its own chain (the group's block pass
        detects steady state on the whole block, so its product count can
        differ from a single solve's).
        """
        times = np.linspace(0.0, 900.0, 24)
        transfer = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
        single_well = KiBaMParameters(capacity=60.0, c=1.0, k=0.0)
        three_state = WorkloadModel(
            state_names=("off", "idle", "busy"),
            generator=np.array([[-0.1, 0.1, 0.0], [0.05, -0.1, 0.05], [0.0, 0.2, -0.2]]),
            currents=np.array([0.0, 0.05, 0.5]),
            initial_distribution=np.array([0.0, 1.0, 0.0]),
        )

        def bank_of_one(problem):
            return MultiBatteryProblem(
                workload=problem.workload,
                batteries=(problem.battery,),
                policy="static-split",
                failures_to_die=1,
                times=problem.times,
                delta=problem.delta,
            )

        for workload, battery in (
            (busy_idle_workload(), transfer),
            (busy_idle_workload(), single_well),
            (three_state, transfer),
        ):
            problem = LifetimeProblem(workload=workload, battery=battery, times=times, delta=2.0)
            single = api.solve(problem, "mrm-uniformization")
            bank = api.solve(bank_of_one(problem), "mrm-uniformization")
            assert np.array_equal(single.probabilities, bank.probabilities)
            for key in ("iterations", "n_states", "n_nonzero"):
                assert single.diagnostics[key] == bank.diagnostics[key], key

        group = [
            LifetimeProblem(
                workload=busy_idle_workload(),
                battery=KiBaMParameters(capacity=capacity, c=1.0, k=0.0),
                times=times,
                delta=2.0,
            )
            for capacity in (40.0, 60.0)
        ]
        stacked = ScenarioBatch(group).run("mrm-uniformization")
        assert stacked.diagnostics["stacked_scenarios"] == 2
        anchor = api.solve(bank_of_one(group[1]), "mrm-uniformization")
        for problem, result in zip(group, stacked):
            own = api.solve(bank_of_one(problem), "mrm-uniformization")
            assert np.max(np.abs(result.probabilities - own.probabilities)) <= problem.epsilon
            for key in ("n_states", "n_nonzero"):
                assert result.diagnostics[key] == anchor.diagnostics[key], key

    def test_failure_predicate_orders_cdfs(self):
        """A series pack (k=1) fails no later than a parallel bank (k=N)."""
        battery = KiBaMParameters(capacity=80.0, c=0.625, k=1e-3)
        times = np.linspace(0.0, 6000.0, 40)
        shared = dict(
            workload=busy_idle_workload(),
            batteries=(battery, battery),
            times=times,
            delta=battery.available_capacity / 8,
            policy="round-robin",
        )
        series = solve_lifetime(
            MultiBatteryProblem(failures_to_die=1, **shared), "mrm-uniformization"
        )
        parallel = solve_lifetime(
            MultiBatteryProblem(failures_to_die=2, **shared), "mrm-uniformization"
        )
        series_cdf = np.asarray(series.distribution.probabilities)
        parallel_cdf = np.asarray(parallel.distribution.probabilities)
        assert np.all(series_cdf >= parallel_cdf - 1e-12)
        assert np.max(series_cdf - parallel_cdf) > 0.05


class TestPolicies:
    def test_registry_round_trip(self):
        assert set(available_policies()) >= {"static-split", "round-robin", "best-of"}
        with pytest.raises(KeyError):
            get_policy("no-such-policy")
        with pytest.raises(ValueError):
            get_policy(get_policy("best-of"), tie_tolerance=1.0)

    def test_static_split_renormalises_over_survivors(self):
        policy = get_policy("static-split", weights=(0.5, 0.3, 0.2))
        levels = np.array([[3.0, 2.0, 1.0], [3.0, 2.0, 0.0]])
        alive = levels >= 1.0
        weights = policy.routing_weights(levels, alive)[0]
        np.testing.assert_allclose(weights[0], [0.5, 0.3, 0.2])
        np.testing.assert_allclose(weights[1], [0.5 / 0.8, 0.3 / 0.8, 0.0])

    def test_round_robin_skips_depleted_batteries(self):
        policy = get_policy("round-robin")
        levels = np.array([[0.0, 2.0, 1.0]])
        alive = levels >= 1.0
        weights = policy.routing_weights(levels, alive)
        np.testing.assert_allclose(weights[0, 0], [0.0, 1.0, 0.0])  # phase 0 -> next alive
        np.testing.assert_allclose(weights[1, 0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(weights[2, 0], [0.0, 0.0, 1.0])

    def test_best_of_splits_ties(self):
        policy = get_policy("best-of")
        levels = np.array([[2.0, 2.0, 1.0], [0.0, 3.0, 1.0]])
        alive = levels >= 1.0
        weights = policy.routing_weights(levels, alive)[0]
        np.testing.assert_allclose(weights[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(weights[1], [0.0, 1.0, 0.0])

    def test_all_dead_rows_get_zero_weights(self):
        for name in available_policies():
            policy = get_policy(name)
            levels = np.zeros((1, 2))
            weights = policy.routing_weights(levels, levels >= 1.0)
            assert np.all(weights == 0.0)

    def test_levels_do_not_move_weights_without_control_interval(self):
        # The simulator re-evaluates such a policy's weights only after a
        # depletion or a phase switch, so the charge levels must not matter.
        batteries = (KiBaMParameters(capacity=100.0, c=0.625, k=1e-3),) * 3
        rng = np.random.default_rng(4)
        alive = rng.random((64, 3)) < 0.7
        first, second = 100.0 * rng.random((2, 64, 3))
        checked = []
        for name in available_policies():
            policy = get_policy(name)
            if policy.control_interval(batteries, 1.0) is not None:
                continue
            checked.append(name)
            assert np.array_equal(
                policy.routing_weights(first, alive), policy.routing_weights(second, alive)
            ), name
        assert {"static-split", "round-robin"} <= set(checked)


class TestEngineThreading:
    def test_auto_accounts_for_product_space_size(self):
        battery = KiBaMParameters(capacity=150.0, c=0.625, k=1e-3)
        times = np.linspace(0.0, 4000.0, 20)
        coarse = MultiBatteryProblem(
            workload=busy_idle_workload(),
            batteries=(battery, battery),
            times=times,
            delta=battery.available_capacity / 8,
            failures_to_die=1,
        )
        fine = coarse.with_delta(battery.available_capacity / 40)
        assert choose_method(coarse) == "mrm-uniformization"
        assert fine.estimated_mrm_states() > 200_000
        assert choose_method(fine) == "monte-carlo"

    def test_analytic_never_claims_multibattery(self):
        # Two currents and no transfer would qualify a single battery for
        # the exact occupation-time algorithm; a bank must not be claimed.
        battery = KiBaMParameters(capacity=50.0, c=1.0, k=0.0)
        problem = MultiBatteryProblem(
            workload=onoff_workload(frequency=0.02, erlang_k=1),
            batteries=(battery, battery),
            times=np.linspace(0.0, 2000.0, 10),
            failures_to_die=1,
        )
        assert choose_method(problem) != "analytic"

    def test_scenario_batch_merges_identical_product_chains(self):
        battery = KiBaMParameters(capacity=80.0, c=0.625, k=1e-3)
        base = MultiBatteryProblem(
            workload=busy_idle_workload(),
            batteries=(battery, battery),
            times=np.linspace(0.0, 4000.0, 30),
            delta=battery.available_capacity / 8,
            policy="best-of",
            failures_to_die=1,
        )
        early = base.with_times(np.linspace(0.0, 4000.0, 17)).with_label("early")
        batch = ScenarioBatch([base, early])
        outcome = batch.run("mrm-uniformization")
        assert outcome.diagnostics["merged_groups"] == 1
        assert outcome.diagnostics["stacked_scenarios"] == 2
        solo = solve_lifetime(early, "mrm-uniformization")
        np.testing.assert_allclose(
            np.asarray(outcome[1].distribution.probabilities),
            np.asarray(solo.distribution.probabilities),
            atol=1e-10,
        )

    def test_sweep_fingerprints_separate_policies_and_predicates(self):
        battery = KiBaMParameters(capacity=80.0, c=0.625, k=1e-3)
        times = np.linspace(0.0, 4000.0, 15)
        shared = dict(
            workload=busy_idle_workload(),
            batteries=(battery, battery),
            times=times,
            delta=battery.available_capacity / 8,
        )
        problems = [
            MultiBatteryProblem(policy="static-split", failures_to_die=1, **shared),
            MultiBatteryProblem(policy="best-of", failures_to_die=1, **shared),
            MultiBatteryProblem(policy="best-of", failures_to_die=2, **shared),
            MultiBatteryProblem(
                policy="static-split",
                policy_params={"weights": (0.7, 0.3)},
                failures_to_die=1,
                **shared,
            ),
        ]
        fingerprints = {
            scenario_fingerprint(problem, "mrm-uniformization") for problem in problems
        }
        assert len(fingerprints) == len(problems)

    def test_sweep_spec_policy_axis_and_cache(self):
        battery = KiBaMParameters(capacity=80.0, c=0.625, k=1e-3)
        spec = SweepSpec(
            workloads=[busy_idle_workload()],
            batteries=[(battery, battery)],
            times=np.linspace(0.0, 4000.0, 20),
            deltas=[battery.available_capacity / 8],
            methods=["mrm-uniformization"],
            policies=["static-split", "best-of"],
            failures_to_die=1,
        )
        assert len(spec) == 2
        cache = SweepCache()
        first = run_sweep(spec, options=RunOptions(max_workers=1, cache=cache))
        assert first.diagnostics["n_solved"] == 2
        again = run_sweep(spec, options=RunOptions(max_workers=1, cache=cache))
        assert again.diagnostics["cache_hits"] == 2
        assert again.diagnostics["n_solved"] == 0
        for before, after in zip(first, again):
            np.testing.assert_array_equal(
                np.asarray(before.distribution.probabilities),
                np.asarray(after.distribution.probabilities),
            )

    def test_single_battery_banks_never_stack_merge(self):
        """A 1-battery bank is still a bank: no capacity-stacked merging.

        Transfer-free single-battery problems merge across capacities via
        the stacked initial-vector path; bank problems must stay on the
        identical-chain-key path even with ``N = 1`` (their product chains
        carry the policy and predicate), and must not share a group with a
        plain :class:`LifetimeProblem` of equal ``c``/``k``/``delta``.
        """
        from repro.engine.batch import chain_merge_key

        workload = busy_idle_workload()
        times = np.linspace(0.0, 2000.0, 25)
        big = KiBaMParameters(capacity=60.0, c=1.0, k=0.0)
        small = KiBaMParameters(capacity=40.0, c=1.0, k=0.0)
        delta = 5.0
        banks = [
            MultiBatteryProblem(
                workload=workload, batteries=(battery,), times=times, delta=delta
            )
            for battery in (big, small)
        ]
        plain = LifetimeProblem(
            workload=workload, battery=big, times=times, delta=delta
        )
        keys = {chain_merge_key(problem) for problem in banks + [plain]}
        assert len(keys) == 3

        outcome = ScenarioBatch(banks).run("mrm-uniformization")
        assert outcome.diagnostics["merged_groups"] == 0
        for problem, result in zip(banks, outcome):
            solo = solve_lifetime(problem, "mrm-uniformization")
            np.testing.assert_allclose(
                np.asarray(result.distribution.probabilities),
                np.asarray(solo.distribution.probabilities),
                atol=1e-12,
            )
        # And the bank (N=1, k=1) agrees with the plain single-battery chain.
        np.testing.assert_allclose(
            np.asarray(outcome[0].distribution.probabilities),
            np.asarray(solve_lifetime(plain, "mrm-uniformization").distribution.probabilities),
            atol=1e-10,
        )
        # The Monte-Carlo dispatch routes 1-battery banks to the system
        # simulator (policy and predicate intact) without error.
        mc = solve_lifetime(
            MultiBatteryProblem(
                workload=workload,
                batteries=(small,),
                times=times,
                n_runs=100,
                seed=3,
            ),
            "monte-carlo",
        )
        assert mc.diagnostics["cdf_complete"]

    def test_sweep_monte_carlo_results_ignore_mrm_coscheduling(self):
        """Cached sweep MC results must not depend on co-scheduled MRM solves.

        The steady-state horizon cap is disabled inside ``run_sweep``:
        whether an MRM solve of the same chain lands in the same worker
        chunk is an accident of chunking, and one fingerprint must always
        map to one result.
        """
        battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
        workload = WorkloadModel(
            state_names=("busy", "idle"),
            generator=np.array([[-1.0, 1.0], [1.0, -1.0]]),
            currents=np.array([0.5, 0.05]),
            initial_distribution=np.array([1.0, 0.0]),
        )
        spec = SweepSpec(
            workloads=[workload],
            batteries=[battery],
            times=np.linspace(0.0, 1000.0, 101),
            deltas=[battery.available_capacity / 25],
            n_runs=150,
            methods=["mrm-uniformization", "monte-carlo"],
        )
        swept = run_sweep(spec, options=RunOptions(max_workers=1))
        mc_with_mrm = swept[1]
        # The canonical result for this fingerprint: the same generated
        # scenario solved standalone (no workspace, hence no cap).
        problems, methods = spec.scenarios()
        assert methods[1] == "monte-carlo"
        standalone = solve_lifetime(problems[1], "monte-carlo")
        assert not mc_with_mrm.diagnostics["horizon_capped_by_steady_state"]
        assert mc_with_mrm.diagnostics["horizon"] == standalone.diagnostics["horizon"]
        np.testing.assert_array_equal(
            np.asarray(mc_with_mrm.distribution.probabilities),
            np.asarray(standalone.distribution.probabilities),
        )

    def test_sweep_spec_rejects_policies_on_single_batteries(self):
        battery = KiBaMParameters(capacity=80.0, c=0.625, k=1e-3)
        spec = SweepSpec(
            workloads=[busy_idle_workload()],
            batteries=[battery],
            times=np.linspace(0.0, 4000.0, 10),
            policies=["best-of"],
        )
        with pytest.raises(ValueError, match="policy axis"):
            spec.scenarios()

    def test_with_battery_is_rejected_on_banks(self):
        battery = KiBaMParameters(capacity=80.0, c=0.625, k=1e-3)
        problem = MultiBatteryProblem(
            workload=busy_idle_workload(),
            batteries=(battery, battery),
            times=np.linspace(0.0, 4000.0, 10),
        )
        with pytest.raises(TypeError):
            problem.with_battery(battery)
        grown = problem.with_batteries((battery, battery, battery))
        assert grown.n_batteries == 3
        # The defaulted k = N was resolved at construction and carries over.
        assert grown.failures_to_die == 2


class TestAgreementAndSimulation:
    @pytest.mark.parametrize(
        "policy, params",
        [
            ("static-split", {"weights": (0.7, 0.3)}),
            ("round-robin", {"switch_rate": 0.05}),
            ("best-of", {}),
        ],
    )
    def test_mrm_and_monte_carlo_agree(self, policy, params):
        """Product-space MRM and the policy simulator tell the same story.

        Single-well banks (c = 1) keep the discretisation error small, so
        the two independently implemented machineries must agree tightly.
        """
        battery = KiBaMParameters(capacity=60.0, c=1.0, k=0.0)
        times = np.linspace(0.0, 1500.0, 61)
        problem = MultiBatteryProblem(
            workload=busy_idle_workload(),
            batteries=(battery, battery),
            times=times,
            delta=battery.available_capacity / 80,
            policy=policy,
            policy_params=params,
            failures_to_die=1,
            n_runs=2500,
            seed=20070625,
        )
        approx = solve_lifetime(problem, "mrm-uniformization")
        simulated = solve_lifetime(problem, "monte-carlo")
        deviation = float(
            np.max(
                np.abs(
                    np.asarray(approx.distribution.probabilities)
                    - np.asarray(simulated.distribution.probabilities)
                )
            )
        )
        assert approx.diagnostics["cdf_complete"]
        assert deviation < 0.06, f"{policy}: max CDF deviation {deviation:.3f}"

    def test_policy_ordering_on_series_pack(self):
        """best-of >= round-robin >= skewed static split (mean lifetime)."""
        battery = KiBaMParameters(capacity=150.0, c=0.625, k=1e-3)
        base = MultiBatteryProblem(
            workload=busy_idle_workload(),
            batteries=(battery, battery),
            times=np.linspace(0.0, 6000.0, 61),
            delta=battery.available_capacity / 10,
            failures_to_die=1,
        )
        means = {}
        for policy, params in [
            ("static-split", {"weights": (0.75, 0.25)}),
            ("round-robin", {"switch_rate": 0.05}),
            ("best-of", {}),
        ]:
            result = solve_lifetime(
                base.with_policy(policy, **params), "mrm-uniformization"
            )
            means[policy] = result.distribution.mean_lifetime()
        assert means["best-of"] > means["round-robin"] > means["static-split"]

    def test_simulator_reproducibility_and_censoring(self):
        battery = KiBaMParameters(capacity=40.0, c=1.0, k=0.0)
        workload = busy_idle_workload()
        kwargs = dict(failures_to_die=1, n_runs=200, seed=99)
        first = simulate_system_lifetime_distribution(
            workload, (battery, battery), "best-of", **kwargs
        )
        second = simulate_system_lifetime_distribution(
            workload, (battery, battery), "best-of", **kwargs
        )
        np.testing.assert_array_equal(first.samples, second.samples)
        assert np.isfinite(first.samples).all()
        # A hopeless horizon censors every run.
        censored = simulate_system_lifetime_distribution(
            workload, (battery, battery), "best-of",
            failures_to_die=1, n_runs=50, seed=99, horizon=1.0,
        )
        assert np.isinf(censored.samples).all()

    def test_monte_carlo_horizon_capped_by_steady_state(self):
        """The MC solver caps its horizon at the MRM's detected steady state.

        A fast-mixing workload makes the lifetime CDF sharp (many sojourns
        per lifetime), so the incremental path detects the flat tail well
        before the mean-current-based default horizon runs out.
        """
        battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
        workload = WorkloadModel(
            state_names=("busy", "idle"),
            generator=np.array([[-1.0, 1.0], [1.0, -1.0]]),
            currents=np.array([0.5, 0.05]),
            initial_distribution=np.array([1.0, 0.0]),
        )
        problem = LifetimeProblem(
            workload=workload,
            battery=battery,
            times=np.linspace(0.0, 1000.0, 101),
            delta=battery.available_capacity / 25,
            n_runs=300,
            seed=11,
        )
        workspace = SolveWorkspace()
        approx = solve_lifetime(problem, "mrm-uniformization", workspace=workspace)
        steady_state = approx.diagnostics["steady_state_time"]
        assert steady_state is not None

        capped = solve_lifetime(problem, "monte-carlo", workspace=workspace)
        assert capped.diagnostics["horizon_capped_by_steady_state"]
        assert capped.diagnostics["steady_state_horizon_hint"] == steady_state
        assert capped.diagnostics["horizon"] == pytest.approx(1.25 * steady_state)

        # Without the workspace (no hint) the default horizon is used.
        plain = solve_lifetime(problem, "monte-carlo")
        assert not plain.diagnostics["horizon_capped_by_steady_state"]
        assert plain.diagnostics["horizon"] > capped.diagnostics["horizon"]
        # The flat tail carries no lifetime mass: the capped estimate agrees.
        assert capped.diagnostics["mean_lifetime_seconds"] == pytest.approx(
            plain.diagnostics["mean_lifetime_seconds"], rel=0.1
        )

    def test_system_horizon_cap_for_banks(self):
        battery = KiBaMParameters(capacity=120.0, c=0.5, k=0.0)
        workload = WorkloadModel(
            state_names=("busy", "idle"),
            generator=np.array([[-20.0, 20.0], [20.0, -20.0]]),
            currents=np.array([0.5, 0.05]),
            initial_distribution=np.array([1.0, 0.0]),
        )
        problem = MultiBatteryProblem(
            workload=workload,
            batteries=(battery, battery),
            times=np.linspace(0.0, 1400.0, 141),
            delta=battery.available_capacity / 12,
            policy="best-of",
            failures_to_die=1,
            n_runs=200,
            seed=5,
        )
        workspace = SolveWorkspace()
        solve_lifetime(problem, "mrm-uniformization", workspace=workspace)
        capped = solve_lifetime(problem, "monte-carlo", workspace=workspace)
        assert capped.diagnostics["horizon_capped_by_steady_state"]
        assert capped.diagnostics["horizon"] < default_system_horizon(
            problem.workload, problem.batteries
        )
