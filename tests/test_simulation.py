"""Tests for the simulation substrate (rng, statistics, trajectories, lifetimes).

The one Monte-Carlo engine is checked against the per-trajectory oracle of
``tests/oracles/trajectory.py``.
"""

import numpy as np
import pytest
from oracles.trajectory import (
    Trajectory,
    sample_trajectory,
    simulate_battery_on_trajectory,
    simulate_lifetime_once,
)

from repro.battery.kibam import KineticBatteryModel
from repro.battery.parameters import KiBaMParameters
from repro.simulation.lifetime_sim import default_system_horizon, simulate_lifetime_distribution
from repro.simulation.rng import make_rng, spawn_rngs, spawn_seeds
from repro.simulation.statistics import (
    EmpiricalDistribution,
    dkw_confidence_band,
    summarize_samples,
)
from repro.simulation.vectorized import (
    cumulative_jump_probabilities,
    simulate_system_lifetimes_vectorized,
)
from repro.workload.base import WorkloadModel
from repro.workload.onoff import onoff_workload


def engine_lifetimes(workload, battery, n_runs, seed, horizon):
    """One battery on the one engine: the bank ``(battery,)`` under static-split."""
    return simulate_system_lifetimes_vectorized(
        workload, (battery,), "static-split", n_runs, make_rng(seed), horizon
    )


def absorbing_workload(*, on_current: float = 1.0, shutdown_rate: float = 0.01) -> WorkloadModel:
    """A device that draws *on_current* until it shuts down for good."""
    return WorkloadModel(
        state_names=("on", "off"),
        generator=np.array([[-shutdown_rate, shutdown_rate], [0.0, 0.0]]),
        currents=np.array([on_current, 0.0]),
        initial_distribution=np.array([1.0, 0.0]),
    )


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_existing_generator_passed_through(self):
        generator = np.random.default_rng(1)
        assert make_rng(generator) is generator

    def test_spawned_streams_differ(self):
        streams = spawn_rngs(3, 4)
        values = [stream.random() for stream in streams]
        assert len(set(values)) == 4

    def test_spawn_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_spawn_seeds_deterministic_and_distinct(self):
        seeds = spawn_seeds(3, 8)
        assert seeds == spawn_seeds(3, 8)
        assert len(set(seeds)) == 8
        assert all(isinstance(seed, int) for seed in seeds)

    def test_spawn_seeds_prefix_stable(self):
        # Child i does not depend on how many siblings are spawned, so a
        # grown sweep keeps the seeds of its existing scenarios.
        assert spawn_seeds(3, 4) == spawn_seeds(3, 8)[:4]

    def test_spawn_seeds_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)


class TestStatistics:
    def test_empirical_cdf_values(self):
        distribution = EmpiricalDistribution(np.array([1.0, 2.0, 3.0, 4.0]))
        assert distribution.cdf(0.5) == 0.0
        assert distribution.cdf(2.0) == pytest.approx(0.5)
        assert distribution.cdf(10.0) == 1.0
        assert distribution.survival(2.0) == pytest.approx(0.5)

    def test_censored_samples(self):
        distribution = EmpiricalDistribution(np.array([1.0, 2.0, np.inf, np.inf]))
        assert distribution.n_censored == 2
        assert distribution.cdf(100.0) == pytest.approx(0.5)
        assert distribution.mean == pytest.approx(1.5)
        with pytest.raises(ValueError):
            distribution.quantile(0.9)

    def test_quantiles(self):
        distribution = EmpiricalDistribution(np.arange(1.0, 101.0))
        assert distribution.quantile(0.5) == pytest.approx(50.0)
        assert distribution.quantile(1.0) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            distribution.quantile(0.0)

    def test_dkw_band_shrinks_with_samples(self):
        assert dkw_confidence_band(100) > dkw_confidence_band(10000)
        with pytest.raises(ValueError):
            dkw_confidence_band(0)

    def test_confidence_band_brackets_cdf(self):
        distribution = EmpiricalDistribution(np.arange(50.0))
        lower, upper = distribution.confidence_band([10.0, 25.0])
        values = distribution.cdf([10.0, 25.0])
        assert np.all(lower <= values)
        assert np.all(values <= upper)

    def test_summary_contains_expected_keys(self):
        summary = summarize_samples([1.0, 2.0, 3.0, np.inf])
        assert summary["n"] == 4
        assert summary["n_censored"] == 1
        assert summary["median"] == pytest.approx(2.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.array([1.0, np.nan]))


class TestTrajectory:
    def test_durations_cover_horizon(self, simple_model, rng):
        trajectory = sample_trajectory(simple_model, horizon=36000.0, rng=rng)
        assert trajectory.total_duration == pytest.approx(36000.0)
        assert trajectory.n_sojourns >= 1
        assert np.all(trajectory.durations > 0)

    def test_states_alternate_for_onoff(self, rng):
        workload = onoff_workload(frequency=0.1, erlang_k=1)
        trajectory = sample_trajectory(workload, horizon=200.0, rng=rng)
        assert np.all(np.abs(np.diff(trajectory.states)) == 1)

    def test_currents_match_states(self, simple_model, rng):
        trajectory = sample_trajectory(simple_model, horizon=7200.0, rng=rng)
        assert np.allclose(trajectory.currents, simple_model.currents[trajectory.states])

    def test_occupancy_long_run(self, simple_model, rng):
        trajectory = sample_trajectory(simple_model, horizon=3.6e6, rng=rng)
        occupancy = trajectory.state_occupancy(simple_model.n_states) / trajectory.total_duration
        assert np.allclose(occupancy, [0.5, 0.25, 0.25], atol=0.06)

    def test_fixed_initial_state(self, simple_model, rng):
        trajectory = sample_trajectory(simple_model, horizon=100.0, rng=rng, initial_state=2)
        assert trajectory.states[0] == 2

    def test_invalid_horizon(self, simple_model, rng):
        with pytest.raises(ValueError):
            sample_trajectory(simple_model, horizon=0.0, rng=rng)


class TestBatterySimulation:
    def test_deterministic_trajectory_lifetime(self):
        battery = KineticBatteryModel(KiBaMParameters(capacity=100.0, c=1.0, k=0.0))
        trajectory = Trajectory(
            states=np.array([0, 1, 0]),
            durations=np.array([50.0, 50.0, 200.0]),
            currents=np.array([1.0, 0.0, 1.0]),
            horizon=300.0,
        )
        lifetime = simulate_battery_on_trajectory(battery, trajectory)
        # 50 As consumed in the first segment, nothing in the second, the
        # remaining 50 As drain in the first 50 s of the third segment.
        assert lifetime == pytest.approx(150.0)

    def test_surviving_trajectory_returns_none(self):
        battery = KineticBatteryModel(KiBaMParameters(capacity=1000.0, c=1.0, k=0.0))
        trajectory = Trajectory(
            states=np.array([0]),
            durations=np.array([10.0]),
            currents=np.array([1.0]),
            horizon=10.0,
        )
        assert simulate_battery_on_trajectory(battery, trajectory) is None

    def test_default_horizon_scales_with_capacity(self, simple_model):
        small = default_system_horizon(simple_model, (KiBaMParameters(capacity=100.0, c=1.0, k=0.0),))
        large = default_system_horizon(simple_model, (KiBaMParameters(capacity=1000.0, c=1.0, k=0.0),))
        assert large == pytest.approx(10.0 * small)

    def test_simulate_once_returns_finite_or_inf(self, rng):
        workload = onoff_workload(frequency=0.05)
        battery = KineticBatteryModel(KiBaMParameters(capacity=60.0, c=1.0, k=0.0))
        value = simulate_lifetime_once(workload, battery, rng)
        assert value > 0


class TestLifetimeDistributionSimulation:
    def test_vectorized_and_scalar_engines_agree(self):
        workload = onoff_workload(frequency=0.05, erlang_k=1)
        parameters = KiBaMParameters(capacity=120.0, c=0.625, k=1e-3)
        horizon = 2000.0

        vector_samples = engine_lifetimes(workload, parameters, 400, 11, horizon)
        battery = KineticBatteryModel(parameters)
        rng = make_rng(12)
        scalar_samples = np.array(
            [simulate_lifetime_once(workload, battery, rng, horizon=horizon) for _ in range(400)]
        )
        # The two engines use different random streams; compare distributions.
        vector_finite = vector_samples[np.isfinite(vector_samples)]
        scalar_finite = scalar_samples[np.isfinite(scalar_samples)]
        assert vector_finite.size > 350
        assert scalar_finite.size > 350
        assert vector_finite.mean() == pytest.approx(scalar_finite.mean(), rel=0.05)
        assert np.quantile(vector_finite, 0.9) == pytest.approx(np.quantile(scalar_finite, 0.9), rel=0.08)

    def test_simulation_mean_matches_energy_balance(self):
        # Single-well battery under the on/off load: the lifetime is the time
        # needed to spend capacity/I_on seconds in the on state, i.e. about
        # capacity / (0.48 A) in expectation.
        workload = onoff_workload(frequency=0.05)
        parameters = KiBaMParameters(capacity=240.0, c=1.0, k=0.0)
        result = simulate_lifetime_distribution(workload, parameters, n_runs=600, seed=5)
        assert result.mean_lifetime == pytest.approx(500.0, rel=0.08)
        assert result.probability_empty_by(2000.0) > 0.98

    def test_reproducible_with_seed(self):
        workload = onoff_workload(frequency=0.05)
        battery = KiBaMParameters(capacity=120.0, c=1.0, k=0.0)
        first = simulate_lifetime_distribution(workload, battery, n_runs=50, seed=42)
        second = simulate_lifetime_distribution(workload, battery, n_runs=50, seed=42)
        assert np.allclose(first.samples, second.samples)

    def test_summary_and_cdf(self):
        workload = onoff_workload(frequency=0.05)
        battery = KiBaMParameters(capacity=120.0, c=1.0, k=0.0)
        result = simulate_lifetime_distribution(workload, battery, n_runs=100, seed=3)
        summary = result.summary()
        assert summary["n"] == 100
        cdf = result.cdf([100.0, 400.0, 2000.0])
        assert np.all(np.diff(cdf) >= 0)

    def test_invalid_run_count(self):
        workload = onoff_workload(frequency=0.05)
        battery = KiBaMParameters(capacity=120.0, c=1.0, k=0.0)
        with pytest.raises(ValueError):
            simulate_lifetime_distribution(workload, battery, n_runs=0)

    def test_vectorized_input_validation(self):
        workload = onoff_workload(frequency=0.05)
        parameters = KiBaMParameters(capacity=120.0, c=1.0, k=0.0)
        with pytest.raises(ValueError):
            simulate_system_lifetimes_vectorized(workload, (parameters,), "static-split", 0, make_rng(1), 100.0)
        with pytest.raises(ValueError):
            simulate_system_lifetimes_vectorized(workload, (parameters,), "static-split", 10, make_rng(1), 0.0)
        with pytest.raises(ValueError):
            simulate_system_lifetimes_vectorized(workload, (), "static-split", 10, make_rng(1), 100.0)
        with pytest.raises(ValueError):
            simulate_system_lifetimes_vectorized(
                workload, (parameters,), "static-split", 10, make_rng(1), 100.0, failures_to_die=2
            )


class TestAbsorbingWorkloads:
    """Regression tests: absorbing workload states must self-loop.

    The cumulative jump rows used to be all-ones for states with no exit
    rate, which the ``(u > row).sum()`` sampling rule decodes as "jump to
    state 0" -- silently restarting the workload instead of staying put.
    """

    def test_cumulative_rows_keep_absorbing_state_in_place(self):
        workload = absorbing_workload()
        cumulative = cumulative_jump_probabilities(workload.generator)
        uniforms = np.array([0.0, 0.25, 0.5, 0.999])
        successors = (uniforms[:, None] >= cumulative[1]).sum(axis=1)
        assert np.all(successors == 1), "absorbing state must jump to itself"
        # The non-absorbing state still jumps to its only successor.
        successors = (uniforms[:, None] >= cumulative[0]).sum(axis=1)
        assert np.all(successors == 1)

    def test_cumulative_rows_interior_absorbing_state(self):
        workload = WorkloadModel(
            state_names=("a", "dead", "b"),
            generator=np.array(
                [[-1.0, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, -2.0]]
            ),
            currents=np.array([0.1, 0.0, 0.2]),
            initial_distribution=np.array([1.0, 0.0, 0.0]),
        )
        cumulative = cumulative_jump_probabilities(workload.generator)
        uniforms = np.linspace(0.0, 0.999, 7)
        successors = (uniforms[:, None] >= cumulative[1]).sum(axis=1)
        assert np.all(successors == 1)

    def test_vectorized_lifetimes_with_absorbing_workload(self):
        # Single-well battery, 20 As at 1 A: runs still in the on-state at
        # t = 20 s die then; runs absorbed into the zero-current off-state
        # before that survive forever.  Pr{die} = exp(-0.01 * 20).
        workload = absorbing_workload(on_current=1.0, shutdown_rate=0.01)
        parameters = KiBaMParameters(capacity=20.0, c=1.0, k=0.0)
        samples = engine_lifetimes(workload, parameters, 4000, 17, horizon=500.0)
        finite = np.isfinite(samples)
        assert np.all(samples[finite] == pytest.approx(20.0))
        assert finite.mean() == pytest.approx(np.exp(-0.2), abs=0.02)

    def test_vectorized_matches_trajectory_engine_with_absorption(self):
        workload = absorbing_workload(on_current=0.5, shutdown_rate=0.02)
        parameters = KiBaMParameters(capacity=30.0, c=0.625, k=1e-3)
        horizon = 800.0
        vector_samples = engine_lifetimes(workload, parameters, 3000, 21, horizon)
        battery = KineticBatteryModel(parameters)
        rng = make_rng(22)
        scalar_samples = np.array(
            [
                simulate_lifetime_once(workload, battery, rng, horizon=horizon)
                for _ in range(3000)
            ]
        )
        vector_deaths = np.isfinite(vector_samples)
        scalar_deaths = np.isfinite(scalar_samples)
        assert vector_deaths.mean() == pytest.approx(scalar_deaths.mean(), abs=0.03)
        assert vector_samples[vector_deaths].mean() == pytest.approx(
            scalar_samples[scalar_deaths].mean(), rel=0.05
        )
