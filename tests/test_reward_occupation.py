"""Tests for the exact occupation-time (two-level reward) algorithm."""

import numpy as np
import pytest

from repro.reward.occupation import (
    occupation_time_distribution,
    occupation_time_exceeds,
    two_level_lifetime_cdf,
    two_level_reward_distribution,
)
from repro.workload.onoff import onoff_workload


class TestSingleStateChains:
    def test_always_high_state(self):
        generator = np.zeros((1, 1))
        result = occupation_time_distribution(generator, [1.0], [0], time=5.0, fractions=[0.0, 0.5, 0.99])
        assert np.allclose(result, 1.0)

    def test_never_high_state(self):
        generator = np.zeros((1, 1))
        result = occupation_time_distribution(generator, [1.0], [], time=5.0, fractions=[0.0, 0.5])
        assert np.allclose(result, 0.0)

    def test_fraction_one_is_impossible_to_exceed(self):
        generator = np.zeros((1, 1))
        result = occupation_time_distribution(generator, [1.0], [0], time=5.0, fractions=[1.0])
        assert result[0] == 0.0


class TestTwoStateAnalytic:
    def test_exponential_up_time(self):
        # State 0 (high) jumps to absorbing state 1 with rate 1: the occupation
        # time of state 0 within [0, t] is min(Exp(1), t), so
        # Pr{O > x t} = exp(-x t) for x < 1.
        generator = np.array([[-1.0, 1.0], [0.0, 0.0]])
        time = 4.0
        fractions = np.array([0.1, 0.3, 0.6, 0.9])
        result = occupation_time_distribution(generator, [1.0, 0.0], [0], time, fractions)
        assert np.allclose(result, np.exp(-fractions * time), atol=1e-8)

    def test_complementary_subsets_sum_to_one(self, rng):
        # Pr{O_high > x t} + Pr{O_low > (1-x) t} = 1 for continuous O.
        generator = np.array([[-2.0, 2.0], [3.0, -3.0]])
        alpha = [0.5, 0.5]
        time = 3.0
        x = 0.37
        high = occupation_time_distribution(generator, alpha, [0], time, [x])[0]
        low = occupation_time_distribution(generator, alpha, [1], time, [1.0 - x])[0]
        assert high + low == pytest.approx(1.0, abs=1e-8)

    def test_matches_monte_carlo(self, rng):
        generator = np.array([[-1.5, 1.5], [0.7, -0.7]])
        alpha = np.array([1.0, 0.0])
        time = 5.0
        fractions = [0.3, 0.5, 0.8]
        exact = occupation_time_distribution(generator, alpha, [0], time, fractions)

        # Direct Monte-Carlo estimate of the occupation time of state 0.
        n_runs = 4000
        exceed_counts = np.zeros(len(fractions))
        for _ in range(n_runs):
            state, elapsed, occupation = 0, 0.0, 0.0
            while elapsed < time:
                rate = -generator[state, state]
                sojourn = rng.exponential(1.0 / rate)
                sojourn = min(sojourn, time - elapsed)
                if state == 0:
                    occupation += sojourn
                elapsed += sojourn
                state = 1 - state
            exceed_counts += occupation > np.asarray(fractions) * time
        estimate = exceed_counts / n_runs
        assert np.allclose(exact, estimate, atol=0.03)


class TestExpectedValueConsistency:
    def test_mean_occupation_matches_integrated_probability(self, simple_model):
        # E[O(t)] obtained by integrating Pr{O > x t} over x in [0, 1] must
        # match the integral of the transient probability of the high states.
        from oracles.transient import cumulative_state_probabilities

        generator = simple_model.generator * 3600.0  # work in hours
        alpha = simple_model.initial_distribution
        high = [simple_model.state_index("send")]
        time = 10.0
        xs = np.linspace(0.0, 1.0, 201)
        tail = occupation_time_distribution(generator, alpha, high, time, xs)
        mean_from_tail = np.trapezoid(tail, xs) * time
        occupancy = cumulative_state_probabilities(generator, alpha, time, n_points=401)
        assert mean_from_tail == pytest.approx(occupancy[high[0]], rel=2e-3)


class TestTwoLevelRewardDistribution:
    def test_constant_reward_is_deterministic(self):
        generator = np.array([[-1.0, 1.0], [1.0, -1.0]])
        result = two_level_reward_distribution(
            generator, [1.0, 0.0], [2.0, 2.0], time=3.0, thresholds=[5.0, 7.0]
        )
        assert np.allclose(result, [1.0, 0.0])

    def test_rejects_three_levels(self):
        generator = np.zeros((3, 3))
        with pytest.raises(ValueError):
            two_level_reward_distribution(
                generator, [1.0, 0.0, 0.0], [0.0, 1.0, 2.0], time=1.0, thresholds=[0.5]
            )

    def test_offset_reward_levels(self):
        # Rewards {1, 3}: Y(t) = t + 2 O_high(t).
        generator = np.array([[-1.0, 1.0], [1.0, -1.0]])
        alpha = [1.0, 0.0]
        time = 2.0
        threshold = 4.0
        direct = two_level_reward_distribution(generator, alpha, [3.0, 1.0], time, [threshold])[0]
        fraction = (threshold - 1.0 * time) / ((3.0 - 1.0) * time)
        via_occupation = occupation_time_distribution(generator, alpha, [0], time, [fraction])[0]
        assert direct == pytest.approx(via_occupation, abs=1e-12)


class TestLifetimeCdf:
    def test_onoff_lifetime_is_near_deterministic(self):
        workload = onoff_workload(frequency=1.0, erlang_k=1)
        capacity = 7200.0
        times = np.array([13000.0, 14500.0, 15000.0, 15500.0, 17000.0])
        cdf = two_level_lifetime_cdf(
            workload.generator,
            workload.initial_distribution,
            workload.currents,
            capacity,
            times,
        )
        assert np.all(np.diff(cdf) >= -1e-9)
        assert cdf[0] < 1e-6
        assert cdf[2] == pytest.approx(0.5, abs=0.05)
        assert cdf[-1] > 1.0 - 1e-6

    def test_before_minimum_drain_time_probability_is_zero(self):
        workload = onoff_workload(frequency=1.0, erlang_k=1)
        # Even if the device were always on, draining 7200 As at 0.96 A takes
        # 7500 s, so the battery cannot be empty at 7000 s.
        cdf = two_level_lifetime_cdf(
            workload.generator,
            workload.initial_distribution,
            workload.currents,
            7200.0,
            [7000.0],
        )
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)

    def test_erlang_k_sharpens_the_distribution(self):
        capacity = 7200.0
        times = np.array([14600.0, 15400.0])
        spreads = []
        for k in (1, 4):
            workload = onoff_workload(frequency=1.0, erlang_k=k)
            cdf = two_level_lifetime_cdf(
                workload.generator,
                workload.initial_distribution,
                workload.currents,
                capacity,
                times,
            )
            spreads.append(float(cdf[1] - cdf[0]))
        # More deterministic phases concentrate more mass between the two
        # time points around the mean lifetime.
        assert spreads[1] > spreads[0]

    def test_zero_capacity_rejected(self):
        workload = onoff_workload(frequency=1.0)
        with pytest.raises(ValueError):
            two_level_lifetime_cdf(
                workload.generator,
                workload.initial_distribution,
                workload.currents,
                0.0,
                [1.0],
            )

    def test_negative_time_rejected(self):
        workload = onoff_workload(frequency=1.0)
        with pytest.raises(ValueError):
            occupation_time_exceeds(
                workload.generator, workload.initial_distribution, [0], [(-1.0, 0.5)]
            )
