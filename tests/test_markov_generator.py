"""Tests for the generator-matrix helpers and the generator check."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.markov.generator import GeneratorError, exit_rates, uniformized_matrix
from repro.markov.validate import validate_generator


class TestValidateGenerator:
    def test_valid_generator_passes(self, three_state_generator):
        validate_generator(three_state_generator)

    def test_valid_sparse_generator_passes(self, three_state_generator):
        validate_generator(sp.csr_matrix(three_state_generator))

    def test_nonsquare_rejected(self):
        with pytest.raises(GeneratorError):
            validate_generator(np.zeros((2, 3)))

    def test_negative_offdiagonal_rejected(self):
        matrix = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(GeneratorError):
            validate_generator(matrix)

    def test_nonzero_row_sum_rejected(self):
        matrix = np.array([[-1.0, 0.5], [1.0, -1.0]])
        with pytest.raises(GeneratorError):
            validate_generator(matrix)

    def test_positive_diagonal_rejected(self):
        matrix = np.array([[1.0, -1.0], [0.0, 0.0]])
        with pytest.raises(GeneratorError):
            validate_generator(matrix)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_rejected_by_name(self, value):
        matrix = np.array([[-1.0, 1.0], [0.5, -0.5]])
        matrix[1, 0] = value
        for candidate in (matrix, sp.csr_matrix(matrix)):
            with pytest.raises(GeneratorError, match=r"entry \(1, 0\) is not finite"):
                validate_generator(candidate)


class TestExitRatesAndUniformization:
    def test_exit_rates(self, three_state_generator):
        assert np.allclose(exit_rates(three_state_generator), [3.0, 5.0, 1.0])

    def test_exit_rates_sparse(self, three_state_generator):
        assert np.allclose(exit_rates(sp.csr_matrix(three_state_generator)), [3.0, 5.0, 1.0])

    def test_uniformized_matrix_is_stochastic(self, three_state_generator):
        probability = uniformized_matrix(three_state_generator, 6.0)
        assert np.all(probability >= -1e-12)
        assert np.allclose(probability.sum(axis=1), 1.0)

    def test_uniformized_matrix_rate_too_small_rejected(self, three_state_generator):
        with pytest.raises(GeneratorError):
            uniformized_matrix(three_state_generator, 1.0)

    def test_uniformized_matrix_nonpositive_rate_rejected(self, three_state_generator):
        with pytest.raises(GeneratorError):
            uniformized_matrix(three_state_generator, 0.0)

    def test_uniformized_sparse_stays_sparse(self, three_state_generator):
        probability = uniformized_matrix(sp.csr_matrix(three_state_generator), 10.0)
        assert sp.issparse(probability)
        assert np.allclose(np.asarray(probability.sum(axis=1)).ravel(), 1.0)
