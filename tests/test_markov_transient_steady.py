"""Tests for the transient helpers and the steady-state solver."""

import numpy as np
import pytest

from repro.markov.steady_state import steady_state_distribution
from repro.markov.transient import cumulative_state_probabilities, expm_transient
from repro.markov.uniformization import TransientPropagator


class TestTransientDistribution:
    def test_scalar_time_returns_vector(self, three_state_generator):
        propagator = TransientPropagator(three_state_generator)
        result = propagator.transient_batch([1.0, 0.0, 0.0], 0.5)
        assert result.values.shape == (1, 1, 3)

    def test_sequence_of_times_returns_matrix(self, three_state_generator):
        propagator = TransientPropagator(three_state_generator)
        result = propagator.transient_batch([1.0, 0.0, 0.0], [0.5, 1.0])
        assert result.values.shape == (1, 2, 3)

    def test_matches_expm(self, three_state_generator):
        alpha = np.array([0.0, 0.0, 1.0])
        uniform = TransientPropagator(three_state_generator).transient_batch(alpha, 1.3)
        reference = expm_transient(three_state_generator, alpha, 1.3)
        assert np.allclose(uniform.values[0, 0], reference, atol=1e-8)


class TestCumulativeStateProbabilities:
    def test_total_time_is_conserved(self, three_state_generator):
        occupancy = cumulative_state_probabilities(three_state_generator, [1.0, 0.0, 0.0], 5.0)
        assert occupancy.sum() == pytest.approx(5.0, rel=1e-6)

    def test_single_state_chain(self):
        occupancy = cumulative_state_probabilities(np.zeros((1, 1)), [1.0], 3.0)
        assert occupancy[0] == pytest.approx(3.0)

    def test_two_state_analytic(self):
        # 0 -> 1 with rate 1, state 1 absorbing: time in state 0 up to t is
        # (1 - exp(-t)).
        generator = np.array([[-1.0, 1.0], [0.0, 0.0]])
        occupancy = cumulative_state_probabilities(generator, [1.0, 0.0], 2.0, n_points=2001)
        assert occupancy[0] == pytest.approx(1.0 - np.exp(-2.0), abs=1e-4)

    def test_requires_two_points(self, three_state_generator):
        with pytest.raises(ValueError):
            cumulative_state_probabilities(three_state_generator, [1.0, 0.0, 0.0], 1.0, n_points=1)


class TestSteadyState:
    def test_balance_equations(self, three_state_generator):
        pi = steady_state_distribution(three_state_generator)
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi @ three_state_generator, 0.0, atol=1e-10)

    def test_two_state_birth_death(self):
        generator = np.array([[-2.0, 2.0], [3.0, -3.0]])
        pi = steady_state_distribution(generator)
        assert pi[0] == pytest.approx(0.6)
        assert pi[1] == pytest.approx(0.4)

    def test_single_state(self):
        assert steady_state_distribution(np.zeros((1, 1)))[0] == pytest.approx(1.0)

    def test_simple_workload_steady_state(self, simple_model):
        # Analytical solution of the simple model: idle 1/2, send 1/4, sleep 1/4.
        pi = steady_state_distribution(simple_model.generator)
        assert np.allclose(pi, [0.5, 0.25, 0.25], atol=1e-9)

    def test_invalid_generator_rejected(self):
        with pytest.raises(Exception):
            steady_state_distribution(np.array([[1.0, -1.0], [0.0, 0.0]]))
