"""Tests of the matrix-free product chains and the symmetry lumping.

Covers the :class:`~repro.markov.kronecker.KroneckerGenerator` operator
(hypothesis property test of its factor-wise apply against its CSR
assembly on random small banks), the assembled ``P`` (memory peak, the
one matrix a solve holds, the stochastic-matrix check), the exactness of
the permutation-symmetry quotient (lumped lifetime CDF equal to the
unlumped one to ``1e-10``), the uniformisation fast path on operators,
and the engine's backend resolution, caching and fingerprint behaviour.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioBatch
from repro.battery.parameters import KiBaMParameters
from repro.checking import override_checks
from repro.engine.batch import chain_merge_key
from repro.engine.registry import solve_lifetime
from repro.engine.solvers import choose_method
from repro.engine.sweep import scenario_fingerprint
from repro.engine.workspace import SolveWorkspace
from repro.markov.generator import GeneratorError, exit_rates
from repro.markov.kronecker import (
    KroneckerGenerator,
    KroneckerTerm,
    UniformizedOperator,
    assembled_csr_bytes,
)
from repro.markov.uniformization import TransientPropagator
from repro.markov.validate import ValidationError, check_uniformized
from repro.multibattery import (
    MultiBatteryProblem,
    MultiBatterySystem,
    multiset_count,
)
from repro.multibattery.lumping import (
    _binomial_table,
    _colex_ranks,
    discretize_lumped,
    enumerate_configurations,
)
from repro.multibattery.policies import get_policy
from repro.multibattery.system import ASSEMBLED_CSR_BUDGET_BYTES
from repro.workload.base import WorkloadModel


def busy_idle_workload(busy_current: float = 0.5, idle_current: float = 0.05) -> WorkloadModel:
    return WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([busy_current, idle_current]),
        initial_distribution=np.array([1.0, 0.0]),
    )


def small_bank_system(
    n_batteries: int,
    policy,
    *,
    c: float = 0.625,
    failures_to_die: int = 1,
    capacity: float = 60.0,
) -> tuple[MultiBatterySystem, float]:
    battery = KiBaMParameters(capacity=capacity, c=c, k=1e-3)
    system = MultiBatterySystem(
        workload=busy_idle_workload(),
        batteries=(battery,) * n_batteries,
        policy=policy,
        failures_to_die=failures_to_die,
    )
    return system, battery.available_capacity / 4.0


# ----------------------------------------------------------------------
# The operator against the assembled Kronecker CSR.
# ----------------------------------------------------------------------
class TestKroneckerOperator:
    @settings(max_examples=25, deadline=None)
    @given(
        n_batteries=st.integers(min_value=1, max_value=3),
        c=st.sampled_from([0.5, 0.625, 1.0]),
        policy_name=st.sampled_from(["static-split", "best-of", "round-robin", "skewed"]),
        failures=st.integers(min_value=1, max_value=3),
        levels=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matrix_free_apply_matches_assembled_csr(
        self, n_batteries, c, policy_name, failures, levels, seed
    ):
        """Property: ``v @ Q`` agrees between the operator and its CSR assembly."""
        rng = np.random.default_rng(seed)
        if policy_name == "skewed":
            policy = get_policy(
                "static-split", weights=tuple(rng.uniform(0.2, 1.0, n_batteries))
            )
        else:
            policy = get_policy(policy_name)
        batteries = tuple(
            KiBaMParameters(capacity=float(rng.uniform(30.0, 60.0)), c=c, k=1e-3)
            for _ in range(n_batteries)
        )
        system = MultiBatterySystem(
            workload=busy_idle_workload(),
            batteries=batteries,
            policy=policy,
            failures_to_die=min(failures, n_batteries),
        )
        delta = min(b.available_capacity for b in batteries) / levels
        assembled = system.discretize(delta, backend="assembled")
        matrix_free = system.discretize(delta, backend="matrix-free")

        assert matrix_free.backend == "matrix-free"
        assert isinstance(matrix_free.generator, KroneckerGenerator)
        assert matrix_free.n_states == assembled.n_states
        csr = matrix_free.generator.to_csr()
        block = rng.random((3, assembled.n_states))
        expected = block @ csr
        actual = matrix_free.generator.apply(block)
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(actual - expected).max() <= 1e-12 * scale
        assert (
            np.abs(matrix_free.generator.diagonal() - csr.diagonal()).max()
            <= 1e-12 * scale
        )
        # The implied entry count matches the truly assembled matrix.
        trimmed = csr.copy()
        trimmed.eliminate_zeros()
        assert matrix_free.generator.nnz == trimmed.nnz
        # Initial vectors and absorbing sets are backend-independent.
        np.testing.assert_array_equal(
            matrix_free.initial_distribution, assembled.initial_distribution
        )
        np.testing.assert_array_equal(matrix_free.empty_states, assembled.empty_states)

    def test_rmatmul_and_uniformized_operator(self):
        system, delta = small_bank_system(2, "best-of")
        chain = system.discretize(delta, backend="matrix-free")
        operator = chain.generator
        rng = np.random.default_rng(7)
        v = rng.random((2, chain.n_states))
        np.testing.assert_allclose(v @ operator, operator.apply(v), rtol=0, atol=0)
        rate = exit_rates(chain.generator).max() * 1.02
        uniformized = UniformizedOperator(operator, rate)
        np.testing.assert_allclose(
            v @ uniformized, v + operator.apply(v) / rate, rtol=1e-15, atol=1e-15
        )
        assert uniformized.shape == operator.shape
        assert exit_rates(operator).max() == pytest.approx(
            exit_rates(operator.to_csr()).max()
        )

    def test_to_csr_round_trip_and_memory_guard(self):
        """The CSR assemblies hold what the factor-wise apply does to unit vectors."""
        system, delta = small_bank_system(2, "round-robin")
        chain = system.discretize(delta, backend="matrix-free")
        operator = chain.generator
        identity = np.eye(chain.n_states)
        applied = operator.apply(identity)
        rebuilt = operator.to_csr()
        assert rebuilt.has_canonical_format
        assert rebuilt.nnz == operator.nnz == np.count_nonzero(applied)
        np.testing.assert_allclose(rebuilt.toarray(), applied, rtol=0, atol=1e-15)  # repro-lint: allow RPR001 (small test chain)
        rate = 1.02 * exit_rates(operator).max()
        uniformized = operator.uniformized_csr(rate)
        diagonal = operator.diagonal()
        assert uniformized.nnz == operator.nnz - np.count_nonzero(diagonal) + chain.n_states
        np.testing.assert_allclose(
            uniformized.toarray(), identity + applied / rate, rtol=0, atol=1e-15  # repro-lint: allow RPR001 (small test chain)
        )
        with pytest.raises(MemoryError):
            operator.to_csr(max_bytes=8)
        assert assembled_csr_bytes(operator.nnz, chain.n_states) > 0

    def test_assembly_handles_multi_factor_and_overlapping_terms(self, strict_checks):
        """Every term the operator accepts: several factors, shared targets."""
        rng = np.random.default_rng(3)
        dims = (3, 4, 5)

        def factor(size, density):
            dense = rng.random((size, size)) * (rng.random((size, size)) < density)
            np.fill_diagonal(dense, 0.0)
            return sp.csr_matrix(dense)

        shift = sp.eye(4, k=-1, format="csr")
        terms = [
            KroneckerTerm(
                factors=((0, factor(3, 0.6)), (2, factor(5, 0.5))),
                scales=(rng.random((3, 1, 1)), rng.random((1, 4, 5))),
            ),
            KroneckerTerm(factors=((1, shift),), scales=(rng.random((4, 1)),)),
            KroneckerTerm(factors=((1, shift * 2.0),)),
            KroneckerTerm(factors=((2, factor(5, 0.4)),), scales=(np.full(1, 0.5),)),
        ]
        operator = KroneckerGenerator(dims, terms)
        identity = np.eye(operator.shape[0])
        applied = operator.apply(identity)
        np.testing.assert_allclose(operator.to_csr().toarray(), applied, atol=1e-15)  # repro-lint: allow RPR001 (60-state test operator)
        rate = 1.5 * exit_rates(operator).max()
        uniformized = operator.uniformized_csr(rate)
        np.testing.assert_allclose(
            uniformized.toarray(), identity + applied / rate, atol=1e-15  # repro-lint: allow RPR001 (60-state test operator)
        )
        check_uniformized(uniformized, operator)

    def test_assembled_bank_holds_one_lean_p(self):
        """An assembled solve stores one n x n matrix, written near its own bytes.

        The kernel holds ``P.T``, a view on ``P``'s arrays: every n x n
        matrix held anywhere must share ``P``'s storage.
        """
        battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
        problem = MultiBatteryProblem(
            workload=busy_idle_workload(),
            batteries=(battery, battery),
            times=np.linspace(0.0, 2000.0, 5),
            delta=battery.available_capacity / 14,
            policy="round-robin",
            failures_to_die=1,
            backend="assembled",
        )
        workspace = SolveWorkspace()
        solve_lifetime(problem, "mrm-uniformization", workspace=workspace)
        (chain,) = workspace.chains.values()
        (propagator,) = workspace.propagators.values()
        n = chain.n_states
        assert n >= 50_000, "the property is about large chains"
        held = {
            id(value): value
            for owner in (chain, propagator, propagator._kernel)
            for value in vars(owner).values()
            if getattr(value, "shape", None) == (n, n)
        }
        matrices = [value for value in held.values() if sp.issparse(value)]
        p_matrix = propagator.probability_matrix
        assert any(matrix is p_matrix for matrix in matrices)
        for matrix in matrices:
            assert np.shares_memory(matrix.data, p_matrix.data)
            assert np.shares_memory(matrix.indices, p_matrix.indices)
        assert not propagator.is_matrix_free
        assert propagator.generator is chain.generator
        assert isinstance(chain.generator, KroneckerGenerator)

        # P is written into arrays allocated once: no second full-size copy.
        tracemalloc.start()
        try:
            matrix = chain.generator.uniformized_csr(propagator.rate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        final = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert final == assembled_csr_bytes(matrix.nnz, n)
        assert peak <= 1.25 * final, f"peak {peak} B is {peak / final:.2f}x the {final} B of P"

    def test_tampered_probability_matrix_fails_the_check(self, strict_checks):
        system, delta = small_bank_system(2, "best-of")
        operator = system.discretize(delta, backend="assembled").generator
        matrix = operator.uniformized_csr(1.02 * exit_rates(operator).max())
        check_uniformized(matrix, operator)
        row = 7
        tampered = matrix.copy()
        tampered.data[tampered.indptr[row]] += 0.25
        with pytest.raises(ValidationError, match=f"row {row} "):
            check_uniformized(tampered, operator)
        negative = matrix.copy()
        negative.data[negative.indptr[row]] = -0.1
        with pytest.raises(ValidationError, match=f"row {row} "):
            check_uniformized(negative, operator)
        with override_checks("off"):
            check_uniformized(tampered, operator)

    def test_operator_validation_rejects_bad_structure(self):
        with pytest.raises(GeneratorError):
            KroneckerGenerator((2, 0), [])
        with pytest.raises(GeneratorError):
            KroneckerGenerator(
                (2, 2),
                [KroneckerTerm(factors=((0, np.array([[0.0, -1.0], [0.0, 0.0]])),))],
            )
        with pytest.raises(GeneratorError):
            KroneckerGenerator(
                (2, 2),
                [
                    KroneckerTerm(
                        factors=((0, np.array([[0.0, 1.0], [0.0, 0.0]])),),
                        scales=(np.full((2, 1), -1.0),),
                    )
                ],
            )
        with pytest.raises(GeneratorError):
            KroneckerGenerator(
                (2, 2),
                [KroneckerTerm(factors=((3, np.eye(2)),))],
            )

    def test_propagator_fast_path_runs_on_operators(self):
        """Incremental uniformisation + steady-state detection, matrix-free."""
        system, delta = small_bank_system(2, "best-of")
        assembled = system.discretize(delta, backend="assembled")
        matrix_free = system.discretize(delta, backend="matrix-free")
        times = np.linspace(0.0, 40000.0, 40)  # long flat tail after depletion
        projection = np.zeros(assembled.n_states)
        projection[assembled.empty_states] = 1.0

        reference = TransientPropagator(matrix_free.generator.to_csr(), validate=False)
        operator = TransientPropagator(matrix_free.generator)
        assert operator.is_matrix_free and not reference.is_matrix_free
        # The assembled bank's production propagator holds P as CSR.
        assembled_side = SolveWorkspace().propagator(assembled, ("bank", "assembled"))
        assert not assembled_side.is_matrix_free
        assert sp.issparse(assembled_side.probability_matrix)
        np.testing.assert_allclose(
            assembled_side.transient_batch(
                assembled.initial_distribution[None, :],
                times,
                epsilon=1e-10,
                projection=projection,
            ).values,
            reference.transient_batch(
                assembled.initial_distribution[None, :],
                times,
                epsilon=1e-10,
                projection=projection,
            ).values,
            atol=1e-12,
        )

        solved_ref = reference.transient_batch(
            assembled.initial_distribution[None, :],
            times,
            epsilon=1e-10,
            projection=projection,
        )
        solved_op = operator.transient_batch(
            matrix_free.initial_distribution[None, :],
            times,
            epsilon=1e-10,
            projection=projection,
        )
        np.testing.assert_allclose(solved_op.values, solved_ref.values, atol=1e-10)
        assert solved_op.steady_state_time is not None
        assert solved_op.iterations_saved > 0
        single_pass = operator.transient_batch(
            matrix_free.initial_distribution[None, :],
            times,
            epsilon=1e-10,
            projection=projection,
            mode="single-pass",
        )
        np.testing.assert_allclose(single_pass.values, solved_ref.values, atol=1e-8)


# ----------------------------------------------------------------------
# Permutation-symmetry lumping.
# ----------------------------------------------------------------------
class TestLumping:
    def test_configuration_ranking_is_a_bijection(self):
        for n_cells, n in [(5, 2), (4, 3), (7, 4)]:
            configs = enumerate_configurations(n_cells, n)
            assert configs.shape == (multiset_count(n_cells, n), n)
            table = _binomial_table(n_cells + n - 1, n)
            ranks = _colex_ranks(configs, table)
            assert sorted(ranks.tolist()) == list(range(configs.shape[0]))

    @pytest.mark.parametrize("policy", ["static-split", "best-of"])
    @pytest.mark.parametrize("n_batteries,failures", [(2, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("c", [0.625, 1.0])
    def test_lumped_lifetime_cdf_is_exact(self, policy, n_batteries, failures, c):
        """The quotient chain's lifetime CDF equals the unlumped one to 1e-10."""
        system, delta = small_bank_system(
            n_batteries, policy, c=c, failures_to_die=failures
        )
        times = np.linspace(0.0, 8000.0, 33)
        full = system.discretize(delta, backend="assembled")
        lumped = system.discretize(delta, backend="lumped")

        assert lumped.n_states < full.n_states
        assert lumped.n_states == system.estimated_lumped_states(delta)
        # Exit rates are preserved by exact lumping, so both chains
        # uniformise at the same rate.
        assert exit_rates(lumped.generator).max() == pytest.approx(
            exit_rates(full.generator).max(), rel=1e-12
        )

        cdf_full = SolveWorkspace().propagator(full, ("full",)).transient_batch(
            full.initial_distribution[None, :],
            times,
            epsilon=1e-12,
            projection=_indicator(full.n_states, full.empty_states),
        )
        cdf_lumped = TransientPropagator(lumped.generator).transient_batch(
            lumped.initial_distribution[None, :],
            times,
            epsilon=1e-12,
            projection=_indicator(lumped.n_states, lumped.empty_states),
        )
        assert np.abs(cdf_full.values - cdf_lumped.values).max() <= 1e-10

    @settings(max_examples=8, deadline=None)
    @given(
        n_batteries=st.integers(min_value=2, max_value=3),
        levels=st.integers(min_value=2, max_value=3),
        policy=st.sampled_from(["static-split", "best-of"]),
        failures=st.integers(min_value=1, max_value=3),
        c=st.sampled_from([0.625, 1.0]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_lumped_cdf_matches_unlumped_on_random_banks(
        self, n_batteries, levels, policy, failures, c, seed
    ):
        """Property: the quotient's lifetime CDF equals the full chain's."""
        rng = np.random.default_rng(seed)
        battery = KiBaMParameters(capacity=float(rng.uniform(30.0, 60.0)), c=c, k=1e-3)
        system = MultiBatterySystem(
            workload=busy_idle_workload(),
            batteries=(battery,) * n_batteries,
            policy=policy,
            failures_to_die=min(failures, n_batteries),
        )
        delta = battery.available_capacity / levels
        times = np.linspace(0.0, float(rng.uniform(2000.0, 6000.0)), 9)
        full = system.discretize(delta, backend="assembled")
        lumped = system.discretize(delta, backend="lumped")
        cdf_full = SolveWorkspace().propagator(full, ("full",)).transient_batch(
            full.initial_distribution[None, :],
            times,
            epsilon=1e-12,
            projection=_indicator(full.n_states, full.empty_states),
        )
        cdf_lumped = TransientPropagator(lumped.generator).transient_batch(
            lumped.initial_distribution[None, :],
            times,
            epsilon=1e-12,
            projection=_indicator(lumped.n_states, lumped.empty_states),
        )
        assert np.abs(cdf_full.values - cdf_lumped.values).max() <= 1e-10

    @settings(max_examples=10, deadline=None)
    @given(
        n_batteries=st.integers(min_value=2, max_value=3),
        levels=st.integers(min_value=2, max_value=4),
        policy=st.sampled_from(["static-split", "best-of"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_lumped_generator_aggregates_the_full_chain(
        self, n_batteries, levels, policy, seed
    ):
        """Property: lumped transient marginals match the full chain.

        Random uniformisation-free check: one explicit Euler step of the
        Kolmogorov equations on both chains, compared through the
        failed-state mass (the quantity every solver projects on).
        """
        rng = np.random.default_rng(seed)
        battery = KiBaMParameters(capacity=float(rng.uniform(30.0, 60.0)), c=0.625, k=1e-3)
        system = MultiBatterySystem(
            workload=busy_idle_workload(),
            batteries=(battery,) * n_batteries,
            policy=policy,
            failures_to_die=int(rng.integers(1, n_batteries + 1)),
        )
        delta = battery.available_capacity / levels
        full = system.discretize(delta, backend="assembled")
        lumped = system.discretize(delta, backend="lumped")
        step = 0.5 / max(exit_rates(full.generator).max(), 1e-9)
        pi_full = full.initial_distribution
        pi_lumped = lumped.initial_distribution
        for _ in range(3):
            pi_full = pi_full + step * (pi_full @ full.generator)
            pi_lumped = pi_lumped + step * (pi_lumped @ lumped.generator)
        assert pi_full[..., full.empty_states].sum(-1) == pytest.approx(
            pi_lumped[..., lumped.empty_states].sum(-1), abs=1e-12
        )

    def test_lumping_rejects_asymmetric_banks(self):
        battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
        other = KiBaMParameters(capacity=80.0, c=0.625, k=1e-3)
        workload = busy_idle_workload()
        heterogeneous = MultiBatterySystem(
            workload=workload, batteries=(battery, other), policy="static-split",
            failures_to_die=1,
        )
        skewed = MultiBatterySystem(
            workload=workload, batteries=(battery, battery),
            policy=get_policy("static-split", weights=(0.75, 0.25)), failures_to_die=1,
        )
        clocked = MultiBatterySystem(
            workload=workload, batteries=(battery, battery), policy="round-robin",
            failures_to_die=1,
        )
        single = MultiBatterySystem(
            workload=workload, batteries=(battery,), policy="static-split",
            failures_to_die=1,
        )
        for system in (heterogeneous, skewed, clocked, single):
            assert not system.lumpable
            with pytest.raises(ValueError):
                discretize_lumped(system, battery.available_capacity / 4.0)
        symmetric = MultiBatterySystem(
            workload=workload, batteries=(battery, battery), policy="best-of",
            failures_to_die=1,
        )
        assert symmetric.lumpable


# ----------------------------------------------------------------------
# Engine threading: backend resolution, caching, fingerprints.
# ----------------------------------------------------------------------
class TestBackendDispatch:
    def _problem(self, n_batteries=2, levels=6, policy="static-split", **kwargs):
        battery = KiBaMParameters(capacity=60.0, c=0.625, k=1e-3)
        return MultiBatteryProblem(
            workload=busy_idle_workload(),
            batteries=(battery,) * n_batteries,
            times=np.linspace(0.0, 8000.0, 33),
            delta=battery.available_capacity / levels,
            policy=policy,
            failures_to_die=1,
            **kwargs,
        )

    def _p_bytes(self, problem):
        system = problem.model()
        delta = problem.effective_delta
        return assembled_csr_bytes(
            system.estimated_nonzeros(delta), system.estimated_states(delta)
        )

    def test_auto_backend_resolution(self):
        # Identical bank + symmetric policy: lumped.
        assert self._problem().resolved_backend() == "lumped"
        # Phase-clocked policy breaks the symmetry: a bank assembles while
        # one CSR copy of its P fits the byte budget (arithmetic only --
        # nothing is built) ...
        fits = self._problem(levels=26, policy="round-robin")
        assert fits.estimated_mrm_states() > 200_000
        assert self._p_bytes(fits) <= ASSEMBLED_CSR_BUDGET_BYTES
        assert fits.resolved_backend() == "assembled"
        # ... and goes matrix-free beyond it.
        over = self._problem(levels=27, policy="round-robin")
        assert self._p_bytes(over) > ASSEMBLED_CSR_BUDGET_BYTES
        assert over.resolved_backend() == "matrix-free"
        # The benchmark's 232,560-state bank assembles (16.3 MiB); the
        # 1,062,882-state bank of bench_matrixfree.py would not (75.2 MiB).
        workload = busy_idle_workload(0.5, 0.3)
        mixed = MultiBatterySystem(
            workload=workload,
            batteries=tuple(
                KiBaMParameters(capacity=capacity, c=1.0, k=0.0)
                for capacity in (150.0, 160.0, 170.0, 180.0)
            ),
            policy="static-split",
            failures_to_die=4,
        )
        delta = 150.0 / 16
        assert mixed.estimated_states(delta) == 232_560
        p_bytes = assembled_csr_bytes(mixed.estimated_nonzeros(delta), 232_560)
        assert p_bytes / 2**20 == pytest.approx(16.3, abs=0.05)
        assert mixed.resolve_backend(delta) == "assembled"
        identical = MultiBatterySystem(
            workload=workload,
            batteries=(KiBaMParameters(capacity=150.0, c=1.0, k=0.0),) * 4,
            policy="static-split",
            failures_to_die=4,
        )
        delta = 150.0 / 26
        assert identical.estimated_states(delta) == 1_062_882
        p_bytes = assembled_csr_bytes(identical.estimated_nonzeros(delta), 1_062_882)
        assert p_bytes / 2**20 == pytest.approx(75.2, abs=0.05)
        assert p_bytes > ASSEMBLED_CSR_BUDGET_BYTES
        # Explicit pins are honoured.
        assert self._problem(backend="matrix-free").resolved_backend() == "matrix-free"
        with pytest.raises(ValueError):
            self._problem(backend="nonsense")

    def test_choose_method_uses_backend_states(self):
        # A bank whose raw product space exceeds the MRM budget stays on
        # the Markovian approximation when lumping shrinks it enough.
        lumped = self._problem(levels=24)
        assert lumped.estimated_mrm_states() > 200_000
        assert lumped.resolved_backend() == "lumped"
        assert lumped.estimated_backend_states() < 200_000
        assert choose_method(lumped) == "mrm-uniformization"
        # Every other bank gets the larger product-state budget, whichever
        # backend applies P: assembled (P fits the byte budget) ...
        clocked = self._problem(levels=24, policy="round-robin")
        assert clocked.resolved_backend() == "assembled"
        assert 200_000 < clocked.estimated_backend_states() <= 2_000_000
        assert choose_method(clocked) == "mrm-uniformization"
        # ... or matrix-free ...
        wide = self._problem(levels=30, policy="round-robin")
        assert wide.resolved_backend() == "matrix-free"
        assert 200_000 < wide.estimated_backend_states() <= 2_000_000
        assert choose_method(wide) == "mrm-uniformization"
        # ... and pinning the backend does not change the method.
        for backend in ("assembled", "matrix-free"):
            assert choose_method(clocked.with_backend(backend)) == "mrm-uniformization"
            assert choose_method(wide.with_backend(backend)) == "mrm-uniformization"
        # Beyond the budget the dispatch still falls back to simulation.
        vast = self._problem(levels=64, policy="round-robin")
        assert vast.estimated_backend_states() > 2_000_000
        assert choose_method(vast) == "monte-carlo"
        assert choose_method(vast.with_backend("assembled")) == "monte-carlo"

    def test_backends_agree_through_the_engine(self):
        workspace = SolveWorkspace()
        results = {}
        for backend in ("assembled", "matrix-free", "lumped"):
            result = solve_lifetime(
                self._problem(backend=backend),
                "mrm-uniformization",
                workspace=workspace,
            )
            assert result.diagnostics["backend"] == backend
            results[backend] = np.asarray(result.distribution.probabilities)
        np.testing.assert_allclose(
            results["matrix-free"], results["assembled"], atol=1e-10
        )
        np.testing.assert_allclose(results["lumped"], results["assembled"], atol=1e-10)
        # Three backends, three distinct chain builds in the workspace.
        assert workspace.builds == 3
        # The lumped chain is the smallest build.
        sizes = {key[-1]: chain.n_states for key, chain in workspace.chains.items()}
        assert sizes[("backend", "lumped")] < sizes[("backend", "assembled")]

        # The benchmark's solve-bank shape (four different batteries, c = 1,
        # static-split) at a coarser step: the assembled P and the
        # factor-wise apply run the same products and agree to 1e-12.
        bank = MultiBatteryProblem(
            workload=busy_idle_workload(0.5, 0.3),
            batteries=tuple(
                KiBaMParameters(capacity=capacity, c=1.0, k=0.0)
                for capacity in (150.0, 160.0, 170.0, 180.0)
            ),
            times=np.linspace(150.0, 2700.0, 18),
            delta=150.0 / 8,
            policy="static-split",
        )
        assert bank.resolved_backend() == "assembled"
        solved = {
            backend: solve_lifetime(bank.with_backend(backend), "mrm-uniformization")
            for backend in ("assembled", "matrix-free")
        }
        assert (
            solved["assembled"].diagnostics["iterations"]
            == solved["matrix-free"].diagnostics["iterations"]
        )
        np.testing.assert_allclose(
            solved["assembled"].distribution.probabilities,
            solved["matrix-free"].distribution.probabilities,
            rtol=0,
            atol=1e-12,
        )

    def test_merge_keys_and_fingerprints(self):
        pinned_assembled = self._problem(backend="assembled")
        pinned_operator = self._problem(backend="matrix-free")
        # Different backends never share a blocked solve...
        assert chain_merge_key(pinned_assembled) != chain_merge_key(pinned_operator)
        # ...but the chain key and the sweep fingerprint ignore the
        # backend, so cached results are served across backends.
        assert pinned_assembled.chain_key() == pinned_operator.chain_key()
        assert scenario_fingerprint(
            pinned_assembled, "mrm-uniformization"
        ) == scenario_fingerprint(pinned_operator, "mrm-uniformization")

    def test_scenario_batch_solves_mixed_backends(self):
        problems = [
            self._problem(backend="assembled").with_label("assembled"),
            self._problem(backend="lumped").with_label("lumped"),
        ]
        outcome = ScenarioBatch(problems).run("mrm-uniformization")
        cdfs = [np.asarray(r.distribution.probabilities) for r in outcome]
        np.testing.assert_allclose(cdfs[0], cdfs[1], atol=1e-10)
        assert [r.diagnostics["backend"] for r in outcome] == ["assembled", "lumped"]


def _indicator(n_states: int, states: np.ndarray) -> np.ndarray:
    vector = np.zeros(n_states)
    vector[states] = 1.0
    return vector


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
