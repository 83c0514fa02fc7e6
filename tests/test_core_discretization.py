"""Tests for the expanded-CTMC construction (Q* of Section 5).

A single battery is discretised as the bank of one that
:meth:`LifetimeProblem.model` returns; its chain's ``grids[0]`` is the
battery's reward grid.
"""

import numpy as np
import pytest
from oracles.kibamrm import KiBaMRM

from repro.api import LifetimeProblem
from repro.battery.parameters import KiBaMParameters
from repro.checking import dense_fallback
from repro.core.discretization import discretize
from repro.markov.generator import exit_rates
from repro.markov.validate import validate_generator
from repro.workload.onoff import onoff_workload
from repro.workload.simple import simple_workload


def bank_of_one(workload, battery):
    """The system the engine discretises for one battery."""
    return LifetimeProblem(workload=workload, battery=battery, times=[0.0]).model()


@pytest.fixture
def small_single_well_model():
    battery = KiBaMParameters(capacity=100.0, c=1.0, k=0.0)
    return bank_of_one(onoff_workload(frequency=0.01), battery)


@pytest.fixture
def small_two_well_model():
    battery = KiBaMParameters(capacity=100.0, c=0.625, k=1e-3)
    return bank_of_one(simple_workload(), battery)


class TestStructure:
    def test_expanded_state_count_single_well(self, small_single_well_model):
        discretized = discretize(small_single_well_model, delta=10.0)
        assert discretized.n_states == 2 * 11
        validate_generator(discretized.generator)

    def test_expanded_state_count_two_wells(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        # u1 = 62.5 -> 6 levels; u2 = 37.5 -> 4 levels; 3 workload states.
        assert discretized.grids[0].n_levels1 == 6
        assert discretized.grids[0].n_levels2 == 4
        assert discretized.n_states == 3 * 6 * 4
        validate_generator(discretized.generator)

    def test_paper_state_count_for_figure7(self):
        battery = KiBaMParameters(capacity=7200.0, c=1.0, k=0.0)
        discretized = discretize(bank_of_one(onoff_workload(frequency=1.0), battery), delta=5.0)
        assert discretized.n_states == 2882  # quoted in Section 6.1

    def test_initial_distribution_is_valid(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        initial = discretized.initial_distribution
        assert initial.sum() == pytest.approx(1.0)
        assert np.count_nonzero(initial) == 1
        state, level1, level2 = discretized.grids[0].unflatten(int(np.argmax(initial)))
        assert int(state) == small_two_well_model.workload.state_index("idle")
        assert int(level1) == discretized.grids[0].n_levels1 - 2  # 62.5 As -> level 4 of 0..5
        assert int(level2) == discretized.grids[0].n_levels2 - 2

    def test_empty_states_are_absorbing(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        generator = dense_fallback(discretized.generator)
        for index in discretized.empty_states:
            assert np.allclose(generator[index], 0.0)

    def test_empty_states_cover_all_j2_levels(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        expected = small_two_well_model.workload.n_states * discretized.grids[0].n_levels2
        assert discretized.empty_states.size == expected


class TestTransitionRates:
    def test_consumption_rate_is_current_over_delta(self, small_single_well_model):
        delta = 10.0
        discretized = discretize(small_single_well_model, delta=delta)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grids[0]
        on_state = 0  # the on state draws 0.96 A
        source = int(grid.flat_index(on_state, 5, 0))
        target = int(grid.flat_index(on_state, 4, 0))
        assert generator[source, target] == pytest.approx(0.96 / delta)

    def test_workload_rates_are_copied(self, small_single_well_model):
        discretized = discretize(small_single_well_model, delta=10.0)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grids[0]
        source = int(grid.flat_index(0, 5, 0))
        target = int(grid.flat_index(1, 5, 0))
        assert generator[source, target] == pytest.approx(
            small_single_well_model.workload.generator[0, 1]
        )

    def test_transfer_rate_formula(self, small_two_well_model):
        delta = 12.5
        battery = small_two_well_model.batteries[0]
        discretized = discretize(small_two_well_model, delta=delta)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grids[0]
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
        grid = discretized.grids[0]
        # j1 = 4, j2 = 1: h1 = 4/0.625 = 6.4 > h2 = 1/0.375 = 2.67 -> no transfer.
        source = int(grid.flat_index(0, 4, 1))
        target = int(grid.flat_index(0, 5, 0))
        assert generator[source, target] == 0.0

    def test_single_well_has_no_transfer_transitions(self, small_single_well_model):
        discretized = discretize(small_single_well_model, delta=10.0)
        generator = dense_fallback(discretized.generator)
        grid = discretized.grids[0]
        # Any j1 -> j1+1 transition within the same workload state would be a transfer.
        for j1 in range(grid.n_levels1 - 1):
            source = int(grid.flat_index(0, j1, 0))
            target = int(grid.flat_index(0, j1 + 1, 0))
            assert generator[source, target] == 0.0

    @pytest.mark.parametrize(
        "workload, battery, delta",
        [
            (simple_workload(), KiBaMParameters(capacity=100.0, c=0.625, k=1e-3), 12.5),
            (onoff_workload(frequency=0.01), KiBaMParameters(capacity=100.0, c=1.0, k=0.0), 10.0),
            (onoff_workload(frequency=1.0), KiBaMParameters(capacity=60.0, c=0.625, k=1e-3), 2.0),
        ],
    )
    def test_rates_are_the_kibamrm_reward_rates_over_delta(self, workload, battery, delta):
        """Every transition is a Section 4.2 reward rate at its cell, divided by Delta.

        At cell ``(j1, j2)`` the rewards are ``(j1 Delta, j2 Delta)``: the
        available well drains at ``-(r1 + r2) = I_i`` and the bound well
        loses ``-r2`` (the transfer), each one quantum ``Delta`` at a time.
        Cells with ``j1 = 0`` are empty and absorbing, and the transfer
        stops at the top ``j1`` level, where its target cell does not exist.
        """
        model = KiBaMRM(workload=workload, battery=battery)
        chain = discretize(bank_of_one(workload, battery), delta)
        grid = chain.grids[0]
        expected = np.zeros((chain.n_states, chain.n_states))
        for i in range(workload.n_states):
            for j1 in range(1, grid.n_levels1):
                for j2 in range(grid.n_levels2):
                    source = int(grid.flat_index(i, j1, j2))
                    for other in range(workload.n_states):
                        if other != i:
                            target = int(grid.flat_index(other, j1, j2))
                            expected[source, target] = workload.generator[i, other]
                    r1, r2 = model.reward_rates(i, j1 * delta, j2 * delta)
                    if r1 + r2 < 0.0:
                        expected[source, int(grid.flat_index(i, j1 - 1, j2))] = -(r1 + r2) / delta
                    if r2 < 0.0 and j1 + 1 < grid.n_levels1:
                        target = int(grid.flat_index(i, j1 + 1, j2 - 1))
                        expected[source, target] = -r2 / delta
        np.fill_diagonal(expected, -expected.sum(axis=1))
        np.testing.assert_allclose(
            dense_fallback(chain.generator), expected, rtol=1e-12, atol=1e-15
        )


class TestHelpers:
    def test_empty_probability_of_initial_distribution_is_zero(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        assert discretized.initial_distribution[discretized.empty_states].sum() == 0.0

    def test_workload_marginal_sums_to_one(self, small_two_well_model):
        discretized = discretize(small_two_well_model, delta=12.5)
        marginal = discretized.initial_distribution.reshape(
            1, small_two_well_model.workload.n_states, discretized.grids[0].n_cells
        ).sum(axis=2)
        assert marginal.shape == (1, 3)
        assert marginal.sum() == pytest.approx(1.0)

    def test_uniformization_rate_reported(self, small_single_well_model):
        discretized = discretize(small_single_well_model, delta=10.0)
        assert exit_rates(discretized.generator).max() > 0.0
        assert discretized.n_nonzero > 0
