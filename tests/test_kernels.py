"""Tests of the uniformisation compute kernel.

Covers :mod:`repro.markov.kernels` -- the segment loop's steady-state
detection contract on state-major iterates, the held transpose that keeps
every product free of sparse-matrix construction, a hypothesis property
test that both transient modes
compute the same law on random chains, the matrix-free product-chain
operators against the assembled chain, the shared Poisson window table
and the per-workspace Poisson cache accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._compressed import _cs_matrix

from repro import obs
from repro.battery.parameters import KiBaMParameters
from repro.engine.batch import ScenarioBatch
from repro.engine.problem import LifetimeProblem
from repro.engine.workspace import SolveWorkspace
from repro.markov.kernels import (
    SEGMENT_COMPLETED,
    SEGMENT_START_INVARIANT,
    SEGMENT_TAIL_COLLAPSED,
    ScipyKernel,
)
from repro.markov.kronecker import UniformizedOperator
from repro.markov.poisson import (
    clear_poisson_caches,
    fox_glynn,
    poisson_cache_diagnostics,
    shared_poisson_windows,
)
from repro.markov.uniformization import TransientPropagator
from repro.multibattery import MultiBatterySystem
from repro.multibattery.policies import get_policy
from repro.workload.base import WorkloadModel


@st.composite
def random_generators(draw):
    """Random irreducible-ish CTMC generators with 2--5 states."""
    n = draw(st.integers(min_value=2, max_value=5))
    rates = draw(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    matrix = np.asarray(rates, dtype=float)
    np.fill_diagonal(matrix, 0.0)
    # Guarantee a cycle so the chain mixes.
    for i in range(n):
        matrix[i, (i + 1) % n] += 0.4
    np.fill_diagonal(matrix, -matrix.sum(axis=1))
    return matrix


def two_battery_chain():
    """One small matrix-free bank and its generator assembled as CSR."""
    workload = WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([0.5, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
    )
    battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
    system = MultiBatterySystem(
        workload=workload,
        batteries=(battery, battery),
        policy=get_policy("static-split"),
        failures_to_die=1,
    )
    chain = system.discretize(battery.available_capacity / 4.0, backend="matrix-free")
    return chain, chain.generator.to_csr()


# ----------------------------------------------------------------------
# The segment loop's detection contract, on state-major iterates.
# ----------------------------------------------------------------------
def _held(matrix):
    """The kernel of a dense row-stochastic *matrix*, holding its CSR's transpose."""
    return ScipyKernel(sp.csr_matrix(matrix).T)


def _lazy_cycle(n: int = 4, move: float = 0.01):
    """Stay put, or move one state along a cycle with probability *move*.

    Doubly stochastic, so the uniform law is invariant; an alternating
    start keeps its pattern and loses a fraction ``2 * move`` of its
    amplitude per step.
    """
    return (1.0 - move) * np.eye(n) + move * np.roll(np.eye(n), 1, axis=1)


class TestSegmentLoop:
    def _mixture(self, matrix, v, weights, left, right):
        expected = np.zeros_like(v)
        power = v.copy()
        for n in range(right + 1):
            if n >= left:
                expected += weights[n - left] * power
            power = matrix.T @ power
        return expected

    def test_completed_segment_is_the_poisson_mixture(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((4, 4))
        matrix /= matrix.sum(axis=1, keepdims=True)
        v = rng.random((4, 2))
        weights = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        result = _held(matrix).run_segment(v, weights, 2, 6, 0.0)
        assert result.status == SEGMENT_COMPLETED
        assert result.performed == 6
        assert result.break_index == 6
        assert result.accumulated.shape == result.vector.shape == (4, 2)
        np.testing.assert_allclose(
            result.accumulated, self._mixture(matrix, v, weights, 2, 6), atol=1e-14
        )

    def test_invariant_start_is_flagged_without_accumulating(self):
        v = np.array([0.2, 0.3, 0.5])
        weights = np.full(5, 0.2)
        result = _held(np.eye(3)).run_segment(v, weights, 0, 4, 1e-9)
        assert result.status == SEGMENT_START_INVARIANT
        assert result.break_index == 0
        assert result.performed == 1

    def test_tail_collapse_matches_the_full_sweep(self):
        # Every state jumps to state 0 in one step, so the power iterates
        # are constant from n = 1 on: collapsing the tail onto the
        # remaining Poisson mass is exact.
        matrix = np.zeros((3, 3))
        matrix[:, 0] = 1.0
        v = np.array([0.1, 0.4, 0.5])
        weights = np.full(8, 0.125)
        lazy = _held(matrix).run_segment(v, weights, 0, 7, 1e-9)
        full = _held(matrix).run_segment(v, weights, 0, 7, 0.0)
        assert lazy.status == SEGMENT_TAIL_COLLAPSED
        assert lazy.performed < full.performed
        assert lazy.accumulated.shape == (3,)
        np.testing.assert_allclose(lazy.accumulated, full.accumulated, atol=1e-14)

    def test_vector_change_is_judged_by_its_one_norm(self):
        # Each of the 4 states changes by 0.003 in the first step and the
        # 1-norm by 0.012: a per-state (max-norm) test would collapse.
        v = np.array([0.4, 0.1, 0.4, 0.1])
        weights = np.full(7, 1.0 / 7.0)
        tol = 0.006
        first_step = np.abs(_lazy_cycle().T @ v - v)
        assert first_step.max() < tol < first_step.sum()
        result = _held(_lazy_cycle()).run_segment(v, weights, 0, 6, tol)
        assert result.status == SEGMENT_COMPLETED
        assert result.performed == 6
        np.testing.assert_allclose(
            result.accumulated, self._mixture(_lazy_cycle(), v, weights, 0, 6), atol=1e-14
        )

    def test_block_change_is_the_largest_start_norm(self):
        # Column 0 is invariant, column 1 is not: the block must neither be
        # flagged invariant (min over starts) nor collapse on the per-state
        # change summed across starts (the norm over the wrong axis).
        block = np.column_stack(([0.25] * 4, [0.4, 0.1, 0.4, 0.1]))
        weights = np.full(7, 1.0 / 7.0)
        tol = 0.006
        result = _held(_lazy_cycle()).run_segment(block, weights, 0, 6, tol)
        assert result.status == SEGMENT_COMPLETED
        assert result.performed == 6
        full = _held(_lazy_cycle()).run_segment(block, weights, 0, 6, 0.0)
        np.testing.assert_array_equal(result.accumulated, full.accumulated)
        np.testing.assert_allclose(result.accumulated[:, 0], 0.25, atol=1e-15)


# ----------------------------------------------------------------------
# The held transpose: no sparse matrix is built per product.
# ----------------------------------------------------------------------
class TestHeldTranspose:
    @pytest.mark.parametrize("n_starts", [1, 2])
    def test_products_construct_no_sparse_matrix(self, monkeypatch, n_starts):
        generator = _lazy_cycle(50, 0.3) - np.eye(50)
        propagator = TransientPropagator(sp.csr_matrix(generator))
        alphas = np.zeros((n_starts, 50))
        alphas[:, :n_starts] = np.eye(n_starts)
        given = alphas.copy()
        built = []
        original = _cs_matrix.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_cs_matrix, "__init__", counted)
        result = propagator.transient_batch(alphas, [5.0, 20.0])
        assert result.iterations > 0
        assert result.values.shape == (n_starts, 2, 50)
        assert built == []
        np.testing.assert_array_equal(alphas, given)


# ----------------------------------------------------------------------
# The kernel computes the same transient law in both modes.
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(generator=random_generators())
    def test_modes_agree_per_kernel(self, generator):
        alpha = np.zeros(generator.shape[0])
        alpha[0] = 1.0
        times = np.array([1.0, 4.0, 16.0])
        propagator = TransientPropagator(generator)
        incremental = propagator.transient_batch(alpha, times, mode="incremental")
        single = propagator.transient_batch(alpha, times, mode="single-pass")
        np.testing.assert_allclose(incremental.values, single.values, atol=1e-10)


# ----------------------------------------------------------------------
# Matrix-free operators: the scipy kernel, fused uniformised apply.
# ----------------------------------------------------------------------
class TestMatrixFreeKernels:
    def test_matrix_free_chain_forces_scipy_and_matches_assembled(self):
        matrix_free, assembled = two_battery_chain()
        alpha = np.asarray(matrix_free.initial_distribution, dtype=float)
        times = np.array([200.0, 800.0, 2000.0])
        operator_side = TransientPropagator(matrix_free.generator)
        assert operator_side.is_matrix_free
        # One start runs 1-D iterates, a stacked pair an (n, 2) block.
        pair = np.stack((alpha, np.full(alpha.size, 1.0 / alpha.size)))
        for starts in (alpha, pair):
            reference = TransientPropagator(assembled).transient_batch(starts, times)
            np.testing.assert_allclose(
                operator_side.transient_batch(starts, times).values,
                reference.values,
                atol=1e-10,
            )

    def test_fused_operator_matches_assembled(self):
        matrix_free, assembled = two_battery_chain()
        generator = matrix_free.generator
        rate = 1.001 * float(np.max(-assembled.diagonal()))
        fused = UniformizedOperator(generator, rate)
        rng = np.random.default_rng(11)
        block = rng.random((3, generator.shape[0]))
        explicit = block + (block @ assembled) / rate
        np.testing.assert_allclose(block @ fused, explicit, atol=1e-12)


# ----------------------------------------------------------------------
# The shared Poisson window table.
# ----------------------------------------------------------------------
class TestSharedPoissonWindows:
    @settings(max_examples=30, deadline=None)
    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=6
        )
    )
    def test_shared_windows_match_fox_glynn(self, rates):
        windows = shared_poisson_windows(tuple(rates), 1e-12)
        assert len(windows) == len(rates)
        for rate, window in zip(rates, windows):
            direct = fox_glynn(rate, 1e-12)
            assert (window.left, window.right) == (direct.left, direct.right)
            np.testing.assert_allclose(window.weights, direct.weights, atol=1e-12)
            assert window.total == pytest.approx(direct.total, abs=1e-12)

    def test_negative_rates_are_rejected(self):
        with pytest.raises(ValueError):
            shared_poisson_windows((1.0, -0.5))

    def test_cache_diagnostics_count_hits_and_misses(self):
        clear_poisson_caches()
        before = poisson_cache_diagnostics()
        assert before["poisson_shared_cache_hits"] == 0
        shared_poisson_windows((3.0, 7.0))
        shared_poisson_windows((3.0, 7.0))
        after = poisson_cache_diagnostics()
        assert after["poisson_shared_cache_misses"] == 1
        assert after["poisson_shared_cache_hits"] == 1
        assert after["poisson_shared_cache_maxsize"] is not None
        assert after["poisson_window_cache_maxsize"] is not None


# ----------------------------------------------------------------------
# Workspace-level Poisson cache accounting.
# ----------------------------------------------------------------------
class TestWorkspacePoissonAccounting:
    """Accuracy of the per-workspace ``poisson_cache_*`` deltas.

    The Poisson memos are process-global; each :class:`SolveWorkspace`
    snapshots the counters at creation and reports deltas, and forwards
    each increment to the obs metrics registry exactly once even when
    ``diagnostics()`` is called repeatedly.
    """

    def _problem(self) -> LifetimeProblem:
        workload = WorkloadModel(
            state_names=("on",),
            generator=np.zeros((1, 1)),
            currents=np.array([0.5]),
            initial_distribution=np.array([1.0]),
        )
        battery = KiBaMParameters(capacity=20.0, c=1.0, k=0.0)
        return LifetimeProblem(
            workload=workload,
            battery=battery,
            times=np.linspace(5.0, 60.0, 4),
            delta=battery.available_capacity / 8.0,
        )

    def test_workspace_baselines_isolate_earlier_activity(self):
        clear_poisson_caches()
        first = SolveWorkspace()
        shared_poisson_windows((3.0, 7.0))
        shared_poisson_windows((3.0, 7.0))
        seen_by_first = first.diagnostics()
        assert seen_by_first["poisson_cache_misses"] == 1
        assert seen_by_first["poisson_cache_hits"] == 1

        # A workspace created *after* that activity starts from zero ...
        second = SolveWorkspace()
        fresh = second.diagnostics()
        assert fresh["poisson_cache_hits"] == 0
        assert fresh["poisson_cache_misses"] == 0

        # ... and both see activity that happens after its creation.
        shared_poisson_windows((3.0, 7.0))
        assert second.diagnostics()["poisson_cache_hits"] == 1
        assert first.diagnostics()["poisson_cache_hits"] == 2

    def test_repeated_diagnostics_forward_each_increment_once(self):
        clear_poisson_caches()
        with obs.override_metrics() as registry:
            workspace = SolveWorkspace()
            shared_poisson_windows((2.0, 5.0))
            shared_poisson_windows((2.0, 5.0))
            for _ in range(3):  # re-reads must not re-forward
                reported = workspace.diagnostics()
            counters = registry.snapshot()["counters"]
            assert counters["poisson_cache_hits"] == reported["poisson_cache_hits"] == 1
            assert counters["poisson_cache_misses"] == reported["poisson_cache_misses"] == 1

            # Only the increment since the last read is forwarded.
            shared_poisson_windows((2.0, 5.0))
            reported = workspace.diagnostics()
            counters = registry.snapshot()["counters"]
            assert counters["poisson_cache_hits"] == reported["poisson_cache_hits"] == 2

    def test_batch_reports_accurate_poisson_totals(self):
        clear_poisson_caches()
        problems = [self._problem().with_label("a"), self._problem().with_label("b")]
        with obs.override_metrics() as registry:
            workspace = SolveWorkspace()
            outcome = ScenarioBatch(problems).run("mrm-uniformization", workspace=workspace)
            reported = workspace.diagnostics()
            counters = registry.snapshot()["counters"]
        assert len(outcome) == 2
        # The evenly spaced grid repeats one segment gap, so its window is
        # a miss once and a hit after; the totals the workspace reports
        # are exactly what reached the registry, despite the per-result
        # diagnostics() calls in between.
        assert reported["poisson_cache_misses"] >= 1
        assert reported["poisson_cache_hits"] >= 1
        assert counters["poisson_cache_hits"] == reported["poisson_cache_hits"]
        assert counters["poisson_cache_misses"] == reported["poisson_cache_misses"]
