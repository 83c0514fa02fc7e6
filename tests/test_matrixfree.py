"""Tests of the matrix-free product chains and the symmetry lumping.

Covers the :class:`~repro.markov.kronecker.KroneckerGenerator` operator
(hypothesis property test against the assembled Kronecker CSR on random
small banks), the exactness of the permutation-symmetry quotient (lumped
lifetime CDF equal to the unlumped one to ``1e-10``), the uniformisation
fast path on operators, and the engine's backend resolution, caching and
fingerprint behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.parameters import KiBaMParameters
from repro.engine import ScenarioBatch, solve_lifetime
from repro.engine.batch import chain_merge_key
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
        """Property: ``v @ Q`` agrees between the operator and the CSR."""
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
        block = rng.random((3, assembled.n_states))
        expected = block @ assembled.generator
        actual = matrix_free.generator.apply(block)
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(actual - expected).max() <= 1e-12 * scale
        assert (
            np.abs(matrix_free.generator.diagonal() - assembled.generator.diagonal()).max()
            <= 1e-12 * scale
        )
        # The implied entry count matches the truly assembled matrix.
        trimmed = assembled.generator.copy()
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
        rate = chain.uniformization_rate * 1.02
        uniformized = UniformizedOperator(operator, rate)
        np.testing.assert_allclose(
            v @ uniformized, v + operator.apply(v) / rate, rtol=1e-15, atol=1e-15
        )
        assert uniformized.shape == operator.shape
        assert exit_rates(operator).max() == pytest.approx(chain.uniformization_rate)

    def test_to_csr_round_trip_and_memory_guard(self):
        system, delta = small_bank_system(2, "static-split")
        chain = system.discretize(delta, backend="matrix-free")
        assembled = system.discretize(delta, backend="assembled").generator.copy()
        assembled.eliminate_zeros()
        rebuilt = chain.generator.to_csr()
        assert np.abs((rebuilt - assembled)).max() <= 1e-12
        with pytest.raises(MemoryError):
            chain.generator.to_csr(max_bytes=8)
        assert assembled_csr_bytes(chain.generator.nnz, chain.n_states) > 0

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

        reference = TransientPropagator(assembled.generator, validate=False)
        operator = TransientPropagator(matrix_free.generator)
        assert operator.is_matrix_free and not reference.is_matrix_free

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
        assert lumped.uniformization_rate == pytest.approx(
            full.uniformization_rate, rel=1e-12
        )

        cdf_full = TransientPropagator(full.generator, validate=False).transient_batch(
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
        cdf_full = TransientPropagator(full.generator, validate=False).transient_batch(
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
        step = 0.5 / max(full.uniformization_rate, 1e-9)
        pi_full = full.initial_distribution
        pi_lumped = lumped.initial_distribution
        for _ in range(3):
            pi_full = pi_full + step * (pi_full @ full.generator)
            pi_lumped = pi_lumped + step * (pi_lumped @ lumped.generator)
        assert full.empty_probability(pi_full) == pytest.approx(
            lumped.empty_probability(pi_lumped), abs=1e-12
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

    def test_auto_backend_resolution(self):
        # Identical bank + symmetric policy: lumped.
        assert self._problem().resolved_backend() == "lumped"
        # Phase-clocked policy breaks the symmetry: small chain assembles.
        clocked = self._problem(policy="round-robin")
        assert clocked.resolved_backend() == "assembled"
        # Beyond the assembled budget, non-lumpable banks go matrix-free.
        huge = self._problem(n_batteries=3, levels=24, policy="round-robin")
        assert huge.estimated_mrm_states() > 200_000
        assert huge.resolved_backend() == "matrix-free"
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
        # Matrix-free banks get the larger budget...
        clocked = self._problem(levels=24, policy="round-robin")
        assert clocked.resolved_backend() == "matrix-free"
        assert 200_000 < clocked.estimated_backend_states() <= 2_000_000
        assert choose_method(clocked) == "mrm-uniformization"
        # ...but beyond it the dispatch still falls back to simulation.
        vast = self._problem(levels=64, policy="round-robin")
        assert vast.estimated_backend_states() > 2_000_000
        assert choose_method(vast) == "monte-carlo"

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
