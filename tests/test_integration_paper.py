"""Integration tests: the three solution methods agree with each other.

These tests are small-scale versions of the paper's evaluation setups: the
Markovian approximation, the exact occupation-time algorithm and the
Monte-Carlo simulation are run on the same model and must tell the same
story.  Where the full-scale experiment would be too slow for a unit-test
suite, capacities are scaled down (the algorithms are identical, only the
uniformisation runs get shorter).
"""

import numpy as np
import pytest

import repro.api as api
from repro.analysis.distribution import LifetimeDistribution
from repro.battery.parameters import KiBaMParameters
from repro.reward.occupation import two_level_lifetime_cdf
from repro.simulation.lifetime_sim import simulate_lifetime_distribution
from repro.workload.burst import burst_workload
from repro.workload.onoff import onoff_workload
from repro.workload.simple import simple_workload


def approximation(workload, battery, times, delta) -> api.LifetimeResult:
    """The Markovian approximation of the lifetime CDF on *times*."""
    problem = api.LifetimeProblem(workload=workload, battery=battery, times=times, delta=delta)
    return api.solve(problem, "mrm-uniformization")


class TestOnOffSingleWell:
    """Scaled-down Figure 7: approximation vs. exact vs. simulation."""

    CAPACITY = 720.0  # 1/10 of the paper's battery keeps runtimes small
    TIMES = np.linspace(800.0, 2600.0, 19)

    @pytest.fixture(scope="class")
    def workload(self):
        return onoff_workload(frequency=1.0, erlang_k=1)

    @pytest.fixture(scope="class")
    def exact_curve(self, workload):
        return LifetimeDistribution(
            times=self.TIMES,
            probabilities=two_level_lifetime_cdf(
                workload.generator,
                workload.initial_distribution,
                workload.currents,
                self.CAPACITY,
                self.TIMES,
            ),
            label="exact",
        )

    def test_simulation_matches_exact(self, workload, exact_curve):
        battery = KiBaMParameters(capacity=self.CAPACITY, c=1.0, k=0.0)
        result = simulate_lifetime_distribution(
            workload, battery, n_runs=1500, seed=7, horizon=6000.0
        )
        simulated = result.cdf(self.TIMES)
        assert np.max(np.abs(simulated - exact_curve.probabilities)) < 0.05

    def test_approximation_converges_to_exact(self, workload, exact_curve):
        battery = KiBaMParameters(capacity=self.CAPACITY, c=1.0, k=0.0)
        distances = []
        for delta in (20.0, 10.0, 5.0):
            curve = approximation(workload, battery, self.TIMES, delta)
            distances.append(float(np.max(np.abs(curve.probabilities - exact_curve.probabilities))))
        assert distances[0] >= distances[-1]
        assert distances[-1] < 0.25  # the paper reports slow convergence here

    def test_median_lifetime_matches_energy_balance(self, exact_curve):
        # Half the time is spent drawing 0.96 A, so the median lifetime is
        # about 2 * C / 0.96.
        median = exact_curve.quantile(0.5)
        assert median == pytest.approx(2.0 * self.CAPACITY / 0.96, rel=0.05)


class TestOnOffTwoWells:
    """Scaled-down Figure 8: approximation vs. simulation with recovery."""

    TIMES = np.linspace(800.0, 2600.0, 10)

    def test_approximation_tracks_simulation(self):
        workload = onoff_workload(frequency=1.0, erlang_k=1)
        # k is scaled up by 10 compared to the paper because the capacity is
        # scaled down by 10 (same relative recovery per lifetime).
        battery = KiBaMParameters(capacity=720.0, c=0.625, k=4.5e-4)
        curve = approximation(workload, battery, self.TIMES, delta=10.0)
        simulation = simulate_lifetime_distribution(
            workload, battery, n_runs=800, seed=9, horizon=6000.0
        )
        distance = float(np.max(np.abs(curve.probabilities - simulation.cdf(self.TIMES))))
        # The 2-D discretisation is coarse (as in the paper); just require the
        # curves to be in the same ballpark and correctly ordered in time.
        assert distance < 0.35
        assert np.all(np.diff(curve.probabilities) >= -1e-9)

    def test_recovery_extends_lifetime_compared_to_available_only(self):
        workload = onoff_workload(frequency=1.0, erlang_k=1)
        with_recovery = KiBaMParameters(capacity=720.0, c=0.625, k=4.5e-4)
        available_only = KiBaMParameters(capacity=450.0, c=1.0, k=0.0)
        sim_recovery = simulate_lifetime_distribution(
            workload, with_recovery, n_runs=400, seed=11, horizon=6000.0
        )
        sim_available = simulate_lifetime_distribution(
            workload, available_only, n_runs=400, seed=12, horizon=6000.0
        )
        assert sim_recovery.mean_lifetime > sim_available.mean_lifetime


class TestSimpleAndBurstModels:
    """Scaled-down Figures 10/11: the burst model outlives the simple model."""

    def test_burst_model_lasts_longer(self):
        # 80 mAh battery (1/10 of the paper's) so lifetimes are a few hours.
        battery = KiBaMParameters.from_mah(80.0, c=0.625, k_per_second=4.5e-5)
        times = np.linspace(0.5, 6.0, 12) * 3600.0
        delta = 2.0 * 3.6  # 2 mAh
        simple_curve = approximation(simple_workload(), battery, times, delta)
        burst_curve = approximation(burst_workload(), battery, times, delta)
        # The burst model is less likely to have emptied the battery at every
        # time point (Figure 11).
        assert np.all(burst_curve.probabilities <= simple_curve.probabilities + 0.02)
        assert simple_curve.probabilities[-1] > 0.9

    def test_approximation_matches_simulation_for_simple_model(self):
        battery = KiBaMParameters.from_mah(80.0, c=0.625, k_per_second=4.5e-5)
        workload = simple_workload()
        times = np.linspace(0.5, 6.0, 12) * 3600.0
        curve = approximation(workload, battery, times, 2.0 * 3.6)
        simulation = simulate_lifetime_distribution(
            workload, battery, n_runs=800, seed=21
        )
        distance = float(np.max(np.abs(curve.probabilities - simulation.cdf(times))))
        assert distance < 0.12
