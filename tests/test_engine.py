"""Tests for the unified lifetime-solver engine (:mod:`repro.engine`)."""

import numpy as np
import pytest

from repro.api import LifetimeProblem, ScenarioBatch, SolveWorkspace, available_solvers, default_delta
from repro.battery.kibam import KineticBatteryModel
from repro.battery.parameters import KiBaMParameters, rao_battery_parameters
from repro.battery.profiles import ConstantLoad
from repro.engine.base import UnknownSolverError, UnsupportedProblemError
from repro.engine.registry import get_solver, solve_lifetime
from repro.engine.solvers import MAX_AUTO_MRM_STATES, choose_method
from repro.workload.base import WorkloadModel
from repro.workload.onoff import onoff_workload
from repro.workload.simple import simple_workload


@pytest.fixture(scope="module")
def onoff():
    return onoff_workload(frequency=1.0, erlang_k=1)


@pytest.fixture(scope="module")
def single_well_problem(onoff):
    return LifetimeProblem(
        workload=onoff,
        battery=KiBaMParameters(capacity=7200.0, c=1.0, k=0.0),
        times=np.linspace(6000.0, 20000.0, 15),
        delta=50.0,
        n_runs=1500,
        seed=42,
    )


class TestRegistry:
    def test_builtin_solvers_registered(self):
        names = available_solvers()
        assert {"analytic", "auto", "monte-carlo", "mrm-uniformization"}.issubset(names)

    def test_unknown_solver_raises(self):
        with pytest.raises(UnknownSolverError) as excinfo:
            get_solver("sericola-exact")
        # The error names the missing solver and lists the alternatives.
        assert "sericola-exact" in str(excinfo.value)
        assert "mrm-uniformization" in str(excinfo.value)

    def test_unknown_solver_is_a_key_error(self):
        with pytest.raises(KeyError):
            get_solver("nope")


class TestProblemValidation:
    def test_decreasing_times_rejected(self, onoff):
        with pytest.raises(ValueError):
            LifetimeProblem(
                workload=onoff,
                battery=rao_battery_parameters(),
                times=[2.0, 1.0],
            )

    @pytest.mark.parametrize(
        ("overrides", "field"),
        [
            ({"times": [-1.0, 1.0]}, "times"),
            ({"times": [np.nan, 1.0]}, "times"),
            ({"times": [1.0, np.inf]}, "times"),
            ({"horizon": np.nan}, "horizon"),
            ({"horizon": np.inf}, "horizon"),
            ({"epsilon": np.nan}, "epsilon"),
            ({"epsilon": 1.0}, "epsilon"),
        ],
        ids=["negative", "nan-time", "inf-time", "nan-horizon", "inf-horizon", "nan-epsilon", "epsilon-one"],
    )
    def test_negative_times_rejected(self, onoff, overrides, field):
        arguments = {"times": [1.0, 2.0], **overrides}
        with pytest.raises(ValueError, match=field):
            LifetimeProblem(workload=onoff, battery=rao_battery_parameters(), **arguments)

    def test_delta_larger_than_available_capacity_rejected(self, onoff):
        with pytest.raises(ValueError):
            LifetimeProblem(
                workload=onoff,
                battery=KiBaMParameters(capacity=100.0, c=0.5, k=0.0),
                times=[1.0],
                delta=60.0,
            )

    def test_default_delta_used_when_omitted(self, onoff):
        battery = rao_battery_parameters()
        problem = LifetimeProblem(workload=onoff, battery=battery, times=[1.0])
        assert problem.effective_delta == pytest.approx(default_delta(battery))

    def test_estimated_mrm_states_matches_grid(self, single_well_problem):
        # 7200/50 + 1 = 145 levels, one well, two workload states.
        assert single_well_problem.estimated_mrm_states() == 2 * 145


class TestAutoDispatch:
    def test_two_level_single_well_goes_analytic(self, single_well_problem):
        assert choose_method(single_well_problem) == "analytic"

    def test_disconnected_wells_go_analytic(self, onoff):
        problem = LifetimeProblem(
            workload=onoff,
            battery=KiBaMParameters(capacity=7200.0, c=0.625, k=0.0),
            times=[10000.0],
        )
        assert choose_method(problem) == "analytic"

    def test_transfer_disables_analytic(self, onoff):
        problem = LifetimeProblem(
            workload=onoff, battery=rao_battery_parameters(), times=[10000.0], delta=100.0
        )
        assert choose_method(problem) == "mrm-uniformization"

    def test_multi_level_currents_disable_analytic(self):
        problem = LifetimeProblem(
            workload=simple_workload(),  # three distinct currents
            battery=KiBaMParameters(capacity=2880.0, c=1.0, k=0.0),
            times=[3600.0],
            delta=36.0,
        )
        assert choose_method(problem) == "mrm-uniformization"

    def test_oversized_chain_falls_back_to_monte_carlo(self):
        # Three workload states times the charge levels of the single well:
        # 3 * 66,667 = 200,001 states at delta = 0.03 As, 3 * 66,666 =
        # 199,998 at a slightly coarser step.  The estimate is arithmetic,
        # so neither chain is built.
        def problem(delta):
            return LifetimeProblem(
                workload=simple_workload(),
                battery=KiBaMParameters(capacity=2000.0, c=1.0, k=0.0),
                times=[3600.0],
                delta=delta,
            )

        below, above = problem(2000.0 / 66_665), problem(0.03)
        assert below.estimated_mrm_states() <= MAX_AUTO_MRM_STATES < above.estimated_mrm_states()
        assert choose_method(below) == "mrm-uniformization"
        assert choose_method(above) == "monte-carlo"

    def test_auto_result_records_dispatch(self, single_well_problem):
        result = solve_lifetime(single_well_problem, "auto")
        assert result.method == "analytic"
        assert result.diagnostics["auto_dispatched_to"] == "analytic"


class TestSolverAgreement:
    """The paper's 2-state on/off workload, solved by all three machineries."""

    @pytest.fixture(scope="class")
    def curves(self, single_well_problem):
        problem = single_well_problem
        return {
            "analytic": solve_lifetime(problem, "analytic"),
            "mrm": solve_lifetime(problem.with_delta(10.0), "mrm-uniformization"),
            "monte-carlo": solve_lifetime(problem, "monte-carlo"),
        }

    def test_all_methods_recorded(self, curves):
        assert curves["analytic"].method == "analytic"
        assert curves["mrm"].method == "mrm-uniformization"
        assert curves["monte-carlo"].method == "monte-carlo"

    def test_monte_carlo_matches_analytic(self, curves):
        # DKW bound for 1500 runs at 99% confidence is ~0.042.
        distance = np.max(
            np.abs(curves["monte-carlo"].probabilities - curves["analytic"].probabilities)
        )
        assert distance < 0.08

    def test_mrm_median_matches_analytic(self, curves):
        # The approximation converges slowly in sup-norm for this nearly
        # deterministic lifetime (as the paper reports), but the median
        # lifetime agrees to a few percent already at Delta=10.
        median_exact = curves["analytic"].quantile(0.5)
        median_mrm = curves["mrm"].quantile(0.5)
        assert median_mrm == pytest.approx(median_exact, rel=0.05)

    def test_mrm_converges_towards_analytic(self, single_well_problem, curves):
        exact = curves["analytic"].probabilities
        distances = []
        for delta in (400.0, 100.0, 25.0):
            result = solve_lifetime(
                single_well_problem.with_delta(delta), "mrm-uniformization"
            )
            distances.append(float(np.max(np.abs(result.probabilities - exact))))
        assert distances[2] < distances[1] < distances[0]

    def test_analytic_rejects_transfer_problems(self, onoff):
        problem = LifetimeProblem(
            workload=onoff, battery=rao_battery_parameters(), times=[10000.0]
        )
        with pytest.raises(UnsupportedProblemError):
            get_solver("analytic").solve(problem)

    @pytest.mark.parametrize(
        ("currents", "horizon"),
        [((0.5, 0.05), 5.0), ((0.0, 0.0), None)],
        ids=["short-horizon", "zero-current"],
    )
    def test_monte_carlo_with_every_run_censored_answers_zero(self, currents, horizon):
        """No run dies before the horizon: the CDF is 0 and there is no sample mean."""
        workload = WorkloadModel(
            state_names=("busy", "idle"),
            generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
            currents=np.array(currents),
            initial_distribution=np.array([1.0, 0.0]),
        )
        problem = LifetimeProblem(
            workload=workload,
            battery=KiBaMParameters(capacity=60.0, c=0.625, k=1e-3),
            times=[1.0, 4.0],
            horizon=horizon,
            n_runs=50,
            seed=1,
        )
        result = solve_lifetime(problem, "monte-carlo")
        np.testing.assert_array_equal(result.probabilities, [0.0, 0.0])
        assert result.diagnostics["censored_runs"] == problem.n_runs
        assert result.diagnostics["mean_lifetime_seconds"] is None


class TestWorkspaceReuse:
    def test_chain_built_once_across_time_grids(self, onoff):
        workspace = SolveWorkspace()
        base = LifetimeProblem(
            workload=onoff,
            battery=rao_battery_parameters(),
            times=np.linspace(6000.0, 20000.0, 8),
            delta=200.0,
        )
        solve_lifetime(base, "mrm-uniformization", workspace=workspace)
        refined = base.with_times(np.linspace(6000.0, 20000.0, 16))
        solve_lifetime(refined, "mrm-uniformization", workspace=workspace)
        assert workspace.builds == 1
        assert workspace.build_hits == 1

    def test_core_solver_reuses_propagator(self, onoff):
        workspace = SolveWorkspace()
        problem = LifetimeProblem(
            workload=onoff,
            battery=KiBaMParameters(capacity=720.0, c=1.0, k=0.0),
            times=[1000.0, 2000.0],
            delta=10.0,
        )
        solve_lifetime(problem, "mrm-uniformization", workspace=workspace)
        (first,) = workspace.propagators.values()
        solve_lifetime(problem.with_times([1500.0]), "mrm-uniformization", workspace=workspace)
        (again,) = workspace.propagators.values()
        assert again is first


class TestScenarioBatch:
    def test_stacked_capacity_sweep_matches_independent_solves(self, onoff):
        times = np.linspace(6000.0, 20000.0, 15)
        batteries = [
            KiBaMParameters(capacity=float(C), c=1.0, k=0.0)
            for C in np.linspace(5000.0, 7200.0, 5)
        ]
        base = LifetimeProblem(
            workload=onoff, battery=batteries[-1], times=times, delta=100.0
        )
        batch = ScenarioBatch.over_batteries(base, batteries)
        outcome = batch.run("mrm-uniformization")
        assert outcome.diagnostics["merged_groups"] == 1
        assert outcome.diagnostics["chain_builds"] == 1
        for problem, batched in zip(batch.problems, outcome):
            single = solve_lifetime(problem, "mrm-uniformization")
            assert np.allclose(single.probabilities, batched.probabilities, atol=1e-12)

    def test_transfer_chains_are_not_merged_across_capacities(self, onoff):
        times = np.linspace(6000.0, 20000.0, 5)
        batteries = [
            KiBaMParameters(capacity=C, c=0.625, k=4.5e-5) for C in (6000.0, 7200.0)
        ]
        base = LifetimeProblem(workload=onoff, battery=batteries[-1], times=times, delta=200.0)
        outcome = ScenarioBatch.over_batteries(base, batteries).run("mrm-uniformization")
        assert outcome.diagnostics["merged_groups"] == 0
        assert outcome.diagnostics["chain_builds"] == 2
        for problem, batched in zip(
            ScenarioBatch.over_batteries(base, batteries).problems, outcome
        ):
            single = solve_lifetime(problem, "mrm-uniformization")
            assert np.allclose(single.probabilities, batched.probabilities, atol=1e-12)

    def test_identical_chain_different_grids_single_build(self, onoff):
        battery = rao_battery_parameters()
        problems = [
            LifetimeProblem(
                workload=onoff,
                battery=battery,
                times=np.linspace(6000.0, 20000.0, n),
                delta=200.0,
                label=f"grid-{n}",
            )
            for n in (5, 9)
        ]
        outcome = ScenarioBatch(problems).run("mrm-uniformization")
        assert outcome.diagnostics["chain_builds"] == 1
        assert outcome[0].diagnostics["batch_rows"] == 1
        for problem, batched in zip(problems, outcome):
            single = solve_lifetime(problem, "mrm-uniformization")
            assert np.allclose(single.probabilities, batched.probabilities, atol=1e-12)

    def test_over_deltas_labels(self, onoff):
        base = LifetimeProblem(
            workload=onoff,
            battery=KiBaMParameters(capacity=720.0, c=1.0, k=0.0),
            times=[1000.0, 1500.0],
            delta=10.0,
        )
        batch = ScenarioBatch.over_deltas(base, [20.0, 10.0])
        outcome = batch.run("mrm-uniformization")
        assert [r.label for r in outcome] == ["Delta=20", "Delta=10"]

    def test_auto_batch_mixes_methods(self, onoff):
        times = np.linspace(6000.0, 20000.0, 9)
        analytic_problem = LifetimeProblem(
            workload=onoff,
            battery=KiBaMParameters(capacity=7200.0, c=1.0, k=0.0),
            times=times,
        )
        mrm_problem = LifetimeProblem(
            workload=onoff, battery=rao_battery_parameters(), times=times, delta=200.0
        )
        outcome = ScenarioBatch([analytic_problem, mrm_problem]).run("auto")
        assert outcome[0].method == "analytic"
        assert outcome[1].method == "mrm-uniformization"

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ScenarioBatch([])

    def test_merged_results_stay_in_scenario_order(self, onoff):
        # Shuffled capacities: the blocked pass anchors the chain at the
        # largest capacity, but the results must come back in the order the
        # scenarios were given, not in merge or capacity order.
        times = np.linspace(6000.0, 20000.0, 15)
        capacities = [6400.0, 7200.0, 5000.0, 6800.0, 5600.0]
        batteries = [KiBaMParameters(capacity=C, c=1.0, k=0.0) for C in capacities]
        base = LifetimeProblem(workload=onoff, battery=batteries[0], times=times, delta=100.0)
        labels = [f"scenario-{C:g}" for C in capacities]
        batch = ScenarioBatch.over_batteries(base, batteries, labels=labels)
        outcome = batch.run("mrm-uniformization")

        assert outcome.diagnostics["merged_groups"] == 1
        assert outcome.diagnostics["stacked_scenarios"] == len(capacities)
        assert [result.label for result in outcome] == labels
        # A larger battery lives stochastically longer: Pr{empty at t} is
        # ordered opposite to capacity at every grid point, which pins each
        # curve to its scenario.
        order = np.argsort(capacities)
        mid = times.size // 2
        values = [outcome[int(i)].probabilities[mid] for i in order]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_batch_labels_map_to_scenarios(self, onoff):
        batteries = [KiBaMParameters(capacity=C, c=1.0, k=0.0) for C in (6000.0, 7200.0)]
        base = LifetimeProblem(
            workload=onoff,
            battery=batteries[0],
            times=np.linspace(6000.0, 20000.0, 9),
            delta=200.0,
        )
        batch = ScenarioBatch.over_batteries(base, batteries)
        outcome = batch.run("mrm-uniformization")
        for problem, result in zip(batch.problems, outcome):
            assert result.label == problem.label
            assert f"C={problem.battery.capacity:g}" in result.label

    def test_three_solvers_agree_on_shared_sweep(self, onoff):
        # One small single-well sweep, solved by all three machineries in
        # one batch each; the curves must agree within solver tolerances
        # (DKW ~0.05 for 2000 Monte-Carlo runs, coarse-delta bias for MRM).
        times = np.linspace(8000.0, 18000.0, 11)
        batteries = [KiBaMParameters(capacity=C, c=1.0, k=0.0) for C in (6000.0, 7200.0)]
        base = LifetimeProblem(
            workload=onoff,
            battery=batteries[0],
            times=times,
            delta=10.0,
            n_runs=2000,
            seed=1234,
        )
        batch = ScenarioBatch.over_batteries(base, batteries)
        by_method = {
            method: ScenarioBatch(batch.problems).run(method)
            for method in ("analytic", "mrm-uniformization", "monte-carlo")
        }
        for scenario in range(len(batteries)):
            exact = by_method["analytic"][scenario].probabilities
            mrm = by_method["mrm-uniformization"][scenario].probabilities
            monte_carlo = by_method["monte-carlo"][scenario].probabilities
            assert float(np.max(np.abs(mrm - exact))) < 0.25
            assert float(np.max(np.abs(monte_carlo - exact))) < 0.08
            # The nearly deterministic median agrees much tighter than the
            # sup-norm for the MRM approximation.
            mid_exact = by_method["analytic"][scenario].quantile(0.5)
            mid_mrm = by_method["mrm-uniformization"][scenario].quantile(0.5)
            assert mid_mrm == pytest.approx(mid_exact, rel=0.05)

    def test_batch_diagnostics_record_cdf_mass(self, onoff):
        problem = LifetimeProblem(
            workload=onoff,
            battery=KiBaMParameters(capacity=720.0, c=1.0, k=0.0),
            times=[500.0, 1000.0],
            delta=10.0,
        )
        outcome = ScenarioBatch([problem]).run("mrm-uniformization")
        diagnostics = outcome[0].diagnostics
        assert diagnostics["cdf_mass_achieved"] == pytest.approx(
            outcome[0].probabilities[-1]
        )
        assert diagnostics["cdf_complete"] is False

    def test_result_summary_shape(self, single_well_problem):
        result = solve_lifetime(single_well_problem, "analytic")
        summary = result.summary()
        assert summary["method"] == "analytic"
        assert 0.5 in summary["percentiles_seconds"]
        assert summary["mean_lifetime_seconds"] > 0


class TestDeterministicHelpers:
    """Deterministic load profiles run on the battery model itself."""

    def test_lifetime_from_parameters(self):
        battery = KineticBatteryModel(KiBaMParameters(capacity=720.0, c=1.0, k=0.0))
        lifetime = battery.lifetime(ConstantLoad(1.0))
        assert lifetime == pytest.approx(720.0, rel=1e-6)

    def test_trajectory_from_parameters(self):
        battery = KineticBatteryModel(KiBaMParameters(capacity=720.0, c=1.0, k=0.0))
        trajectory = battery.discharge(ConstantLoad(1.0), [0.0, 360.0])
        assert trajectory.available_charge[0] == pytest.approx(720.0)
        assert trajectory.available_charge[1] == pytest.approx(360.0)
