"""Tests for the incremental uniformisation fast path.

Covers the three guarantees of the rebuilt transient core:

* the incremental (segment-chained) mode agrees with the dense matrix
  exponential and with the classical single-pass sweep on small chains,
* chaining ``pi(t_{j-1}) -> pi(t_j)`` over an arbitrary time grid is
  equivalent to propagating every point from zero (property-based, over
  random grids with duplicates and unsorted order), and
* steady-state detection on absorbing chains collapses long tails to a
  closed-form completion without losing accuracy, and reports the savings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov.transient import expm_transient
from repro.markov.uniformization import TransientPropagator

#: A small irreducible generator used throughout this module.
GENERATOR = np.array(
    [
        [-2.0, 1.5, 0.5],
        [1.0, -3.0, 2.0],
        [0.0, 2.5, -2.5],
    ]
)

#: An absorbing birth--death-style generator (state 3 is absorbing).
ABSORBING = np.array(
    [
        [-1.2, 1.2, 0.0, 0.0],
        [0.3, -1.3, 1.0, 0.0],
        [0.0, 0.4, -1.9, 1.5],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("generator", [GENERATOR, ABSORBING])
    def test_matches_matrix_exponential(self, generator):
        alpha = np.zeros(generator.shape[0])
        alpha[0] = 1.0
        times = [0.0, 0.1, 0.4, 1.3, 2.9, 7.0]
        result = TransientPropagator(generator).transient_batch(
            alpha, times, mode="incremental"
        )
        for index, time in enumerate(times):
            exact = expm_transient(generator, alpha, time)
            assert np.allclose(result.values[0, index], exact, atol=1e-9)

    def test_unsorted_duplicate_times_keep_caller_order(self):
        alpha = np.array([1.0, 0.0, 0.0])
        times = [2.5, 0.0, 0.7, 2.5, 0.7]
        result = TransientPropagator(GENERATOR).transient_batch(
            alpha, times, mode="incremental"
        )
        distributions = result.values[0]
        assert np.array_equal(result.times, np.asarray(times))
        for index, time in enumerate(times):
            exact = expm_transient(GENERATOR, alpha, time)
            assert np.allclose(distributions[index], exact, atol=1e-9)
        # Duplicate times share one window and produce identical rows.
        assert np.array_equal(distributions[0], distributions[3])
        assert np.array_equal(distributions[2], distributions[4])

    def test_modes_agree_with_projection_vector_and_matrix(self):
        rng = np.random.default_rng(42)
        propagator = TransientPropagator(GENERATOR)
        alphas = rng.dirichlet(np.ones(3), size=4)
        times = np.array([0.2, 0.9, 1.7, 3.1])
        for projection in (None, rng.random(3), rng.random((3, 2))):
            incremental = propagator.transient_batch(
                alphas, times, projection=projection, mode="incremental"
            )
            single = propagator.transient_batch(
                alphas, times, projection=projection, mode="single-pass"
            )
            assert incremental.values.shape == single.values.shape
            assert np.allclose(incremental.values, single.values, atol=1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="transient mode"):
            TransientPropagator(GENERATOR).transient_batch(
                [1.0, 0.0, 0.0], [1.0], mode="bogus"
            )

    def test_single_pass_still_skips_projection_before_first_window(self):
        # A late single time point exercises the skip-before-left fast path;
        # the result must be unaffected.
        alpha = np.array([0.0, 1.0, 0.0])
        late = TransientPropagator(GENERATOR).transient_batch(
            alpha, [40.0], mode="single-pass"
        ).values[0, 0]
        exact = expm_transient(GENERATOR, alpha, 40.0)
        assert np.allclose(late, exact, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=10,
    ),
    start=st.integers(min_value=0, max_value=2),
)
def test_incremental_matches_from_zero_propagation(times, start):
    """Chaining segments over any grid == propagating each point from zero."""
    alpha = np.zeros(3)
    alpha[start] = 1.0
    propagator = TransientPropagator(GENERATOR)
    incremental = propagator.transient_batch(alpha, times, mode="incremental")
    from_zero = propagator.transient_batch(alpha, times, mode="single-pass")
    assert np.allclose(incremental.values, from_zero.values, atol=1e-9)
    # Both report the caller's grid verbatim.
    assert np.array_equal(incremental.times, np.asarray(times, dtype=float))


class TestSteadyStateDetection:
    def test_absorbing_chain_long_tail_is_collapsed(self):
        """Regression: a long post-absorption tail must be nearly free."""
        alpha = np.array([1.0, 0.0, 0.0, 0.0])
        # 64 points stretching far past absorption (the chain is absorbed
        # after a few tens of time units; the grid runs to t = 1600).
        times = np.linspace(0.0, 1600.0, 64)
        propagator = TransientPropagator(ABSORBING)
        fast = propagator.transient_batch(alpha, times, mode="incremental")
        baseline = propagator.transient_batch(alpha, times, mode="single-pass")

        assert fast.steady_state_time is not None
        assert fast.steady_state_time < times[-1] / 4
        assert fast.steady_state_iteration is not None
        assert fast.iterations_saved > 0
        # The detection collapses the vast majority of the products the
        # baseline sweep has to perform.
        assert fast.iterations < baseline.iterations / 3
        assert np.allclose(fast.values, baseline.values, atol=1e-8)
        # At the horizon everything is absorbed.
        assert fast.values[0, -1, -1] == pytest.approx(1.0, abs=1e-8)

    def test_detection_can_be_disabled(self):
        alpha = np.array([1.0, 0.0, 0.0, 0.0])
        times = np.linspace(0.0, 50.0, 16)
        propagator = TransientPropagator(ABSORBING)
        undetected = propagator.transient_batch(
            alpha, times, mode="incremental", steady_state_tol=0.0
        )
        assert undetected.steady_state_time is None
        assert undetected.iterations_saved == 0
        detected = propagator.transient_batch(alpha, times, mode="incremental")
        assert np.allclose(undetected.values, detected.values, atol=1e-8)

    def test_fully_absorbing_chain_detects_immediately(self):
        # All rates zero: P = I, so the very first product finds the
        # distribution invariant.
        generator = np.zeros((2, 2))
        result = TransientPropagator(generator).transient_batch(
            [0.25, 0.75], [1.0, 10.0, 100.0], mode="incremental"
        )
        assert np.allclose(result.values, [0.25, 0.75])
        assert result.steady_state_time == 1.0

    def test_truncation_error_is_cumulative_and_bounded(self):
        alpha = np.array([1.0, 0.0, 0.0])
        epsilon = 1e-8
        result = TransientPropagator(GENERATOR).transient_batch(
            alpha, np.linspace(0.5, 20.0, 40), epsilon=epsilon
        )
        assert np.all(result.truncation_error >= 0.0)
        assert np.all(result.truncation_error <= epsilon)
        assert np.all(np.diff(result.truncation_error) >= 0.0)


class TestEngineThreading:
    """The fast path and its diagnostics flow through the engine layers."""

    def _problem(self):
        from repro.battery.parameters import KiBaMParameters
        from repro.engine import LifetimeProblem
        from repro.workload.onoff import onoff_workload

        return LifetimeProblem(
            workload=onoff_workload(frequency=1.0, erlang_k=1),
            battery=KiBaMParameters(capacity=60.0, c=0.625, k=1e-3),
            times=np.linspace(50.0, 2000.0, 40),
            delta=2.0,
        )

    def test_solver_reports_fast_path_diagnostics(self):
        from repro.engine import solve_lifetime

        result = solve_lifetime(self._problem(), "mrm-uniformization")
        assert result.diagnostics["n_segments"] == 40
        assert result.diagnostics["iterations_saved"] >= 0
        assert "steady_state_time" in result.diagnostics
        assert "poisson_shared_cache_hits" in result.diagnostics


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
