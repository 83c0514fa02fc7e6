"""Tests for the expanded-CTMC construction (Q* of Section 5)."""

import numpy as np
import pytest

from repro.battery.parameters import KiBaMParameters
from repro.checking import dense_fallback
from repro.core.discretization import discretize
from repro.core.kibamrm import KiBaMRM
from repro.markov.generator import exit_rates
from repro.markov.validate import validate_generator
from repro.workload.onoff import onoff_workload
from repro.workload.simple import simple_workload


@pytest.fixture
def small_single_well_model():
    battery = KiBaMParameters(capacity=100.0, c=1.0, k=0.0)
    return KiBaMRM(workload=onoff_workload(frequency=0.01), battery=battery)


@pytest.fixture
def small_two_well_model():
    battery = KiBaMParameters(capacity=100.0, c=0.625, k=1e-3)
    return KiBaMRM(workload=simple_workload(), battery=battery)


class TestStructure:
    def test_expanded_state_count_single_well(self, small_single_well_model):
        discretized = discretize(small_single_well_model, delta=10.0)
        assert discretized.n_states == 2 * 11
        validate_generator(discretized.generator)

    def test_expanded_state_count_two_wells(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        # u1 = 62.5 -> 6 levels; u2 = 37.5 -> 4 levels; 3 workload states.
        assert discretized.grid.n_levels1 == 6
        assert discretized.grid.n_levels2 == 4
        assert discretized.n_states == 3 * 6 * 4
        validate_generator(discretized.generator)

    def test_paper_state_count_for_figure7(self):
        battery = KiBaMParameters(capacity=7200.0, c=1.0, k=0.0)
        model = KiBaMRM(workload=onoff_workload(frequency=1.0), battery=battery)
        discretized = discretize(model, delta=5.0)
        assert discretized.n_states == 2882  # quoted in Section 6.1

    def test_initial_distribution_is_valid(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        initial = discretized.initial_distribution
        assert initial.sum() == pytest.approx(1.0)
        assert np.count_nonzero(initial) == 1
        state, level1, level2 = discretized.grid.unflatten(int(np.argmax(initial)))
        assert int(state) == small_two_well_model.workload.state_index("idle")
        assert int(level1) == discretized.grid.n_levels1 - 2  # 62.5 As -> level 4 of 0..5
        assert int(level2) == discretized.grid.n_levels2 - 2

    def test_empty_states_are_absorbing(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        generator = dense_fallback(discretized.generator)
        for index in discretized.empty_states:
            assert np.allclose(generator[index], 0.0)

    def test_empty_states_cover_all_j2_levels(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        expected = small_two_well_model.workload.n_states * discretized.grid.n_levels2
        assert discretized.empty_states.size == expected


class TestTransitionRates:
    def test_consumption_rate_is_current_over_delta(self, small_single_well_model):
        delta = 10.0
        discretized = discretize(small_single_well_model, delta=delta)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grid
        on_state = 0  # the on state draws 0.96 A
        source = int(grid.flat_index(on_state, 5, 0))
        target = int(grid.flat_index(on_state, 4, 0))
        assert generator[source, target] == pytest.approx(0.96 / delta)

    def test_workload_rates_are_copied(self, small_single_well_model):
        discretized = discretize(small_single_well_model, delta=10.0)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grid
        source = int(grid.flat_index(0, 5, 0))
        target = int(grid.flat_index(1, 5, 0))
        assert generator[source, target] == pytest.approx(
            small_single_well_model.workload.generator[0, 1]
        )

    def test_transfer_rate_formula(self, small_two_well_model):
        delta = 12.5
        battery = small_two_well_model.battery
        discretized = discretize(small_two_well_model, delta=delta)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grid
        state, j1, j2 = 0, 2, 3
        source = int(grid.flat_index(state, j1, j2))
        target = int(grid.flat_index(state, j1 + 1, j2 - 1))
        expected = battery.k * (j2 / (1.0 - battery.c) - j1 / battery.c)
        assert expected > 0
        assert generator[source, target] == pytest.approx(expected)

    def test_no_transfer_when_available_higher(self, small_two_well_model):
        delta = 12.5
        discretized = discretize(small_two_well_model, delta=delta)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grid
        # j1 = 4, j2 = 1: h1 = 4/0.625 = 6.4 > h2 = 1/0.375 = 2.67 -> no transfer.
        source = int(grid.flat_index(0, 4, 1))
        target = int(grid.flat_index(0, 5, 0))
        assert generator[source, target] == 0.0

    def test_single_well_has_no_transfer_transitions(self, small_single_well_model):
        discretized = discretize(small_single_well_model, delta=10.0)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grid
        # Any j1 -> j1+1 transition within the same workload state would be a transfer.
        for j1 in range(grid.n_levels1 - 1):
            source = int(grid.flat_index(0, j1, 0))
            target = int(grid.flat_index(0, j1 + 1, 0))
            assert generator[source, target] == 0.0


class TestHelpers:
    def test_empty_probability_of_initial_distribution_is_zero(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        assert discretized.initial_distribution[discretized.empty_states].sum() == 0.0

    def test_workload_marginal_sums_to_one(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        marginal = discretized.initial_distribution.reshape(
            1, small_two_well_model.n_states, discretized.grid.n_cells
        ).sum(axis=2)
        assert marginal.shape == (1, 3)
        assert marginal.sum() == pytest.approx(1.0)

    def test_uniformization_rate_reported(self, small_single_well_model):
        discretized = discretize(small_single_well_model, delta=10.0)
        assert exit_rates(discretized.generator).max() > 0.0
        assert discretized.n_nonzero > 0
