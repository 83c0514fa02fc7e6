"""Tests for the Fox--Glynn style Poisson weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson as scipy_poisson

from repro.markov.poisson import PoissonWeights, fox_glynn


class TestFoxGlynn:
    def test_zero_rate_single_weight(self):
        weights = fox_glynn(0.0)
        assert weights.left == 0
        assert weights.right == 0
        assert weights.weights[0] == pytest.approx(1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            fox_glynn(-1.0)

    @pytest.mark.parametrize("rate", [0.1, 1.0, 5.0, 25.0, 400.0, 12345.6])
    def test_matches_scipy_poisson(self, rate):
        weights = fox_glynn(rate, epsilon=1e-12)
        indices = np.arange(weights.left, weights.right + 1)
        reference = scipy_poisson.pmf(indices, rate)
        assert np.allclose(weights.weights, reference / reference.sum(), atol=1e-10)

    @pytest.mark.parametrize("rate", [0.5, 10.0, 1000.0, 50000.0])
    def test_total_mass_close_to_one(self, rate):
        weights = fox_glynn(rate, epsilon=1e-10)
        assert weights.total == pytest.approx(1.0, abs=1e-9)
        # The true mass outside the window must be tiny.
        outside = 1.0 - (
            scipy_poisson.cdf(weights.right, rate) - scipy_poisson.cdf(weights.left - 1, rate)
        )
        assert outside < 1e-8

    def test_window_contains_mode(self):
        rate = 300.0
        weights = fox_glynn(rate)
        assert weights.left <= int(rate) <= weights.right

    def test_weight_lookup_outside_window_is_zero(self):
        weights = fox_glynn(50.0)
        assert weights.weight(weights.left - 1) == 0.0
        assert weights.weight(weights.right + 1) == 0.0
        assert weights.weight(weights.left) > 0.0

    def test_len_matches_window(self):
        weights = fox_glynn(77.0)
        assert len(weights) == weights.right - weights.left + 1 == weights.weights.size

    def test_large_rate_window_is_narrow(self):
        rate = 40000.0
        weights = fox_glynn(rate, epsilon=1e-10)
        # The window should scale with sqrt(rate), not with rate.
        assert len(weights) < 40 * np.sqrt(rate)

    @given(rate=st.floats(min_value=0.01, max_value=5000.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_weights_are_a_distribution(self, rate):
        weights = fox_glynn(rate)
        assert np.all(weights.weights >= 0)
        assert weights.total == pytest.approx(1.0, abs=1e-8)
        assert weights.left >= 0

    def test_is_dataclass_with_rate(self):
        weights = fox_glynn(3.0)
        assert isinstance(weights, PoissonWeights)
        assert weights.rate == pytest.approx(3.0)
