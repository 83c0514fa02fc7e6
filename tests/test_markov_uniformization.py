"""Tests for the uniformisation-based transient solver."""

import numpy as np
import pytest
import scipy.sparse as sp
from oracles.transient import expm_transient

from repro.core.discretization import discretize
from repro.core.kibamrm import KiBaMRM
from repro.markov.generator import uniformized_matrix
from repro.markov.uniformization import TransientPropagator, uniformization_rate
from repro.workload.onoff import onoff_workload


class TestUniformizationRate:
    def test_rate_dominates_exit_rates(self, three_state_generator):
        rate = uniformization_rate(three_state_generator)
        assert rate >= 5.0

    def test_all_absorbing_chain_gets_positive_rate(self):
        assert uniformization_rate(np.zeros((2, 2))) > 0

    @pytest.mark.parametrize("kind", ["dense", "sparse", "absorbing", "kibamrm"])
    def test_propagator_uses_the_one_rule(self, three_state_generator, small_battery, kind):
        if kind == "kibamrm":
            model = KiBaMRM(workload=onoff_workload(frequency=1.0), battery=small_battery)
            generator = discretize(model, 2.0).generator
        else:
            generator = {
                "dense": three_state_generator,
                "sparse": sp.csr_matrix(three_state_generator),
                "absorbing": np.zeros((3, 3)),
            }[kind]
        propagator = TransientPropagator(generator)
        rate = uniformization_rate(generator)
        assert propagator.rate == rate
        expected = uniformized_matrix(sp.csr_matrix(generator), rate)
        actual = propagator.probability_matrix
        assert np.array_equal(actual.data, expected.data)
        assert np.array_equal(actual.indices, expected.indices)
        assert np.array_equal(actual.indptr, expected.indptr)


class TestTransientSolution:
    def test_matches_matrix_exponential(self, three_state_generator):
        alpha = np.array([1.0, 0.0, 0.0])
        propagator = TransientPropagator(three_state_generator)
        for time in (0.0, 0.1, 0.7, 2.5):
            expected = expm_transient(three_state_generator, alpha, time)
            result = propagator.transient_batch(alpha, [time])
            assert np.allclose(result.values[0, 0], expected, atol=1e-8)

    def test_multiple_times_match_individual_solutions(self, three_state_generator):
        alpha = np.array([0.2, 0.3, 0.5])
        times = [0.1, 0.5, 1.0, 4.0]
        propagator = TransientPropagator(three_state_generator)
        combined = propagator.transient_batch(alpha, times).values[0]
        for index, time in enumerate(times):
            single = propagator.transient_batch(alpha, [time]).values[0]
            assert np.allclose(combined[index], single[0], atol=1e-10)

    def test_distributions_are_probability_vectors(self, three_state_generator):
        alpha = np.array([0.0, 1.0, 0.0])
        distributions = TransientPropagator(three_state_generator).transient_batch(
            alpha, [0.3, 3.0, 30.0]
        ).values[0]
        assert np.all(distributions >= -1e-12)
        assert np.allclose(distributions.sum(axis=1), 1.0, atol=1e-8)

    def test_long_horizon_approaches_steady_state(self, three_state_generator):
        from repro.markov.steady_state import steady_state_distribution

        alpha = np.array([1.0, 0.0, 0.0])
        result = TransientPropagator(three_state_generator).transient_batch(alpha, [200.0])
        assert np.allclose(
            result.values[0, 0], steady_state_distribution(three_state_generator), atol=1e-6
        )

    def test_time_zero_returns_initial_distribution(self, three_state_generator):
        alpha = np.array([0.25, 0.25, 0.5])
        result = TransientPropagator(three_state_generator).transient_batch(alpha, 0.0)
        assert np.allclose(result.values[0, 0], alpha)

    def test_sparse_generator_supported(self, three_state_generator):
        alpha = np.array([1.0, 0.0, 0.0])
        dense = TransientPropagator(three_state_generator).transient_batch(alpha, [1.0]).values
        sparse = TransientPropagator(sp.csr_matrix(three_state_generator)).transient_batch(
            alpha, [1.0]
        ).values
        assert np.allclose(dense, sparse, atol=1e-12)

    def test_absorbing_chain_accumulates_mass(self):
        generator = np.array([[-1.0, 1.0], [0.0, 0.0]])
        alpha = np.array([1.0, 0.0])
        result = TransientPropagator(generator).transient_batch(alpha, [0.5, 1.0, 5.0])
        absorbed = result.values[0, :, 1]
        assert np.all(np.diff(absorbed) > 0)
        assert absorbed[-1] == pytest.approx(1.0 - np.exp(-5.0), abs=1e-8)

    def test_negative_time_rejected(self, three_state_generator):
        with pytest.raises(ValueError):
            TransientPropagator(three_state_generator).transient_batch([1.0, 0.0, 0.0], [-1.0])

    def test_mismatched_initial_distribution_rejected(self, three_state_generator):
        with pytest.raises(ValueError):
            TransientPropagator(three_state_generator).transient_batch([1.0, 0.0], [1.0])

    def test_invalid_initial_distribution_rejected(self, three_state_generator):
        with pytest.raises(ValueError):
            TransientPropagator(three_state_generator).transient_batch([0.7, 0.0, 0.0], [1.0])
