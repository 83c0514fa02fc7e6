"""Tests for the explicit reward-discretisation scheme."""

import numpy as np
import pytest
from oracles.discretisation import discretised_reward_distribution

from repro.reward.occupation import two_level_lifetime_cdf
from repro.workload.onoff import onoff_workload
from repro.workload.simple import simple_workload


class TestExplicitDiscretisation:
    def test_matches_exact_occupation_result(self):
        workload = onoff_workload(frequency=1.0, erlang_k=1)
        capacity = 720.0  # a small battery for a fast test
        times = np.array([1200.0, 1500.0, 1800.0])
        exact = two_level_lifetime_cdf(
            workload.generator,
            workload.initial_distribution,
            workload.currents,
            capacity,
            times,
        )
        approximate = discretised_reward_distribution(
            workload.generator,
            workload.initial_distribution,
            workload.currents,
            capacity,
            times,
            delta=2.4,
        )
        assert np.allclose(approximate, exact, atol=0.08)

    def test_probabilities_are_monotone_in_time(self):
        workload = onoff_workload(frequency=1.0)
        result = discretised_reward_distribution(
            workload.generator,
            workload.initial_distribution,
            workload.currents,
            720.0,
            np.linspace(600.0, 2400.0, 7),
            delta=4.8,
        )
        assert np.all(np.diff(result) >= -1e-9)

    def test_requires_commensurate_rates(self):
        workload = simple_workload()
        with pytest.raises(ValueError):
            discretised_reward_distribution(
                workload.generator,
                workload.initial_distribution,
                workload.currents,
                100.0,
                [10.0],
                delta=1.0,
                dt=1.7,
            )

    def test_zero_rewards_never_exceed(self):
        generator = np.array([[-1.0, 1.0], [1.0, -1.0]])
        result = discretised_reward_distribution(
            generator, [1.0, 0.0], [0.0, 0.0], 10.0, [100.0], delta=1.0
        )
        assert result[0] == 0.0

    def test_input_validation(self):
        generator = np.array([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):
            discretised_reward_distribution(generator, [1.0, 0.0], [1.0, 0.0], -1.0, [1.0], delta=0.1)
        with pytest.raises(ValueError):
            discretised_reward_distribution(generator, [1.0, 0.0], [1.0, 0.0], 1.0, [1.0], delta=0.0)
        with pytest.raises(ValueError):
            discretised_reward_distribution(generator, [1.0, 0.0], [-1.0, 0.0], 1.0, [1.0], delta=0.1)
