"""Tests for the reward grid and the KiBaMRM reward-rate oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.kibamrm import KiBaMRM

from repro.battery.parameters import KiBaMParameters
from repro.core.grid import RewardGrid
from repro.workload.onoff import onoff_workload
from repro.workload.simple import simple_workload


class TestRewardGrid:
    def test_level_counts_match_paper_example(self):
        # Figure 7 / Section 6.1: C = 7200 As, c = 1, Delta = 5 gives
        # 1441 levels and, with the 2-state workload, 2882 expanded states.
        grid = RewardGrid(delta=5.0, upper1=7200.0)
        assert grid.n_levels1 == 1441
        assert grid.n_levels2 == 1
        assert grid.n_expanded_states(2) == 2882

    def test_two_dimensional_level_counts(self):
        grid = RewardGrid(delta=25.0, upper1=4500.0, upper2=2700.0)
        assert grid.two_dimensional
        assert grid.n_levels1 == 181
        assert grid.n_levels2 == 109
        assert grid.n_cells == 181 * 109

    def test_level_of_interval_convention(self):
        grid = RewardGrid(delta=10.0, upper1=100.0)
        # Level j covers (j*Delta, (j+1)*Delta]: 10.0 belongs to level 0.
        assert grid.level_of(10.0) == 0
        assert grid.level_of(10.1) == 1
        assert grid.level_of(0.0) == 0
        assert grid.level_of(-5.0) == 0
        assert grid.level_of(100.0) == 9

    def test_level_of_rejects_values_above_bound(self):
        grid = RewardGrid(delta=10.0, upper1=100.0)
        with pytest.raises(ValueError):
            grid.level_of(101.0)

    def test_level_value_is_lower_edge(self):
        grid = RewardGrid(delta=10.0, upper1=100.0)
        assert grid.level_value(3) == pytest.approx(30.0)
        with pytest.raises(ValueError):
            grid.level_value(11)

    def test_flat_index_roundtrip(self):
        grid = RewardGrid(delta=10.0, upper1=50.0, upper2=30.0)
        for state in range(3):
            for level1 in range(grid.n_levels1):
                for level2 in range(grid.n_levels2):
                    flat = int(grid.flat_index(state, level1, level2))
                    back = grid.unflatten(flat)
                    assert (int(back[0]), int(back[1]), int(back[2])) == (state, level1, level2)

    def test_flat_index_is_a_bijection(self):
        grid = RewardGrid(delta=5.0, upper1=40.0, upper2=20.0)
        states, levels1, levels2 = np.meshgrid(
            np.arange(2), np.arange(grid.n_levels1), np.arange(grid.n_levels2), indexing="ij"
        )
        flat = grid.flat_index(states.ravel(), levels1.ravel(), levels2.ravel())
        assert np.unique(flat).size == flat.size
        assert flat.min() == 0
        assert flat.max() == grid.n_expanded_states(2) - 1

    @given(
        delta=st.floats(min_value=0.5, max_value=50.0),
        value=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_level_of_contains_value(self, delta, value):
        grid = RewardGrid(delta=delta, upper1=1000.0)
        level = grid.level_of(value)
        lower = level * delta
        upper = (level + 1) * delta
        if value <= 0:
            assert level == 0
        else:
            assert lower - 1e-6 <= value <= upper + 1e-6 or level == grid.n_levels1 - 1

    @pytest.mark.parametrize("kwargs", [
        {"delta": 0.0, "upper1": 10.0},
        {"delta": 1.0, "upper1": 0.0},
        {"delta": 20.0, "upper1": 10.0},
        {"delta": 1.0, "upper1": 10.0, "upper2": -1.0},
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RewardGrid(**kwargs)


class TestKiBaMRM:
    def test_reward_bounds_and_initial_rewards(self, paper_battery):
        model = KiBaMRM(workload=onoff_workload(frequency=1.0), battery=paper_battery)
        assert model.reward_bounds == pytest.approx((4500.0, 2700.0))
        assert model.initial_rewards == pytest.approx((4500.0, 2700.0))
        assert not model.is_single_well

    def test_single_well_detection(self):
        battery = KiBaMParameters(capacity=100.0, c=1.0, k=0.0)
        model = KiBaMRM(workload=onoff_workload(frequency=1.0), battery=battery)
        assert model.is_single_well
        assert model.reward_bounds[1] == 0.0

    def test_reward_rates_at_full_charge(self, paper_battery):
        model = KiBaMRM(workload=simple_workload(), battery=paper_battery)
        send = model.workload.state_index("send")
        r1, r2 = model.reward_rates(send, 4500.0, 2700.0)
        assert r1 == pytest.approx(-0.2)
        assert r2 == pytest.approx(0.0)

    def test_reward_rates_with_recovery(self, paper_battery):
        model = KiBaMRM(workload=simple_workload(), battery=paper_battery)
        sleep = model.workload.state_index("sleep")
        r1, r2 = model.reward_rates(sleep, 2000.0, 2700.0)
        expected_flow = paper_battery.k * (2700.0 / 0.375 - 2000.0 / 0.625)
        assert r1 == pytest.approx(expected_flow)
        assert r2 == pytest.approx(-expected_flow)

    def test_reward_rates_zero_when_empty(self, paper_battery):
        model = KiBaMRM(workload=simple_workload(), battery=paper_battery)
        assert model.reward_rates(0, 0.0, 2000.0) == (0.0, 0.0)

    def test_no_transfer_when_heights_equalised(self, paper_battery):
        model = KiBaMRM(workload=simple_workload(), battery=paper_battery)
        # h1 > h2: no (negative) transfer according to Section 4.2.
        assert model.transfer_rate(4500.0, 1000.0) == 0.0

    def test_reward_rate_matrix_shape(self, paper_battery):
        model = KiBaMRM(workload=simple_workload(), battery=paper_battery)
        matrix = model.reward_rate_matrix(3000.0, 2000.0)
        assert matrix.shape == (3, 2)
        # Row sums equal the negated currents: the transfer terms cancel.
        assert np.allclose(matrix.sum(axis=1), -model.workload.currents)

    def test_invalid_state_rejected(self, paper_battery):
        model = KiBaMRM(workload=simple_workload(), battery=paper_battery)
        with pytest.raises(ValueError):
            model.reward_rates(7, 100.0, 100.0)
