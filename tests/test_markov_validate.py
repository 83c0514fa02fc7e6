"""Property-based tests of the structural chain validators.

Random valid CTMCs must pass every validator; five families of mutated
models -- perturbed row sums, flipped off-diagonal signs, disconnected
absorbing states, inconsistent Kronecker factor shapes and fake lumping
partitions -- must each fail with a diagnostic that names the offending
state, entry, term or block.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checking import override_checks
from repro.markov.kronecker import KroneckerGenerator, KroneckerTerm
from repro.markov.validate import (
    ValidationError,
    check_chain,
    check_generator,
    validate_absorbing,
    validate_generator,
    validate_kronecker,
    validate_lumping,
)


def random_generator(n: int, seed: int, *, density: float = 0.8) -> np.ndarray:
    """A random dense Q-matrix with every off-diagonal rate positive-ish."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.1, 5.0, size=(n, n))
    mask = rng.uniform(size=(n, n)) < density
    rates = np.where(mask, rates, 0.0)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rates


def absorbing_chain(n: int, seed: int) -> np.ndarray:
    """A birth-death chain drifting into the absorbing last state."""
    rng = np.random.default_rng(seed)
    q = np.zeros((n, n))
    for i in range(n - 1):
        q[i, i + 1] = rng.uniform(0.5, 2.0)
        if i > 0:
            q[i, i - 1] = rng.uniform(0.1, 1.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


# ----------------------------------------------------------------------
# valid models pass
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=2, max_value=10), seed=st.integers(0, 2**31 - 1))
def test_random_valid_generators_pass(n: int, seed: int) -> None:
    q = random_generator(n, seed)
    validate_generator(q)
    validate_generator(sp.csr_matrix(q))
    validate_generator(q, rate=float(np.max(-np.diagonal(q))) * 1.02)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=10), seed=st.integers(0, 2**31 - 1))
def test_random_absorbing_chains_pass(n: int, seed: int) -> None:
    q = absorbing_chain(n, seed)
    initial = np.zeros(n)
    initial[0] = 1.0
    validate_absorbing(q, initial, [n - 1])


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_kronecker_operators_pass(dims: list[int], seed: int) -> None:
    rng = np.random.default_rng(seed)
    terms = []
    for axis, dim in enumerate(dims):
        local = np.triu(rng.uniform(0.1, 2.0, size=(dim, dim)), k=1)
        terms.append(
            KroneckerTerm(factors=((axis, sp.csr_matrix(local)),), scales=())
        )
    operator = KroneckerGenerator(tuple(dims), terms)
    validate_kronecker(operator)


@settings(max_examples=25, deadline=None)
@given(n_blocks=st.integers(min_value=2, max_value=5), seed=st.integers(0, 2**31 - 1))
def test_replicated_block_lumping_passes(n_blocks: int, seed: int) -> None:
    # Duplicate every state of a valid quotient chain: the pairs form an
    # exactly lumpable partition by construction.
    lumped = random_generator(n_blocks, seed)
    # Lift each block rate equally onto the two copies of the target block;
    # the duplicated states are exchangeable by construction.
    full = np.kron(lumped, np.full((2, 2), 0.5))
    np.fill_diagonal(full, 0.0)
    full = np.where(full > 0.0, full, 0.0)
    np.fill_diagonal(full, -full.sum(axis=1))
    partition = np.repeat(np.arange(n_blocks), 2)
    validate_lumping(full, partition)


# ----------------------------------------------------------------------
# mutated models fail with an attributable diagnostic
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(0, 2**31 - 1),
    state=st.integers(min_value=0, max_value=7),
)
def test_perturbed_row_sum_names_the_row(n: int, seed: int, state: int) -> None:
    state %= n
    q = random_generator(n, seed)
    q[state, (state + 1) % n] += 0.5  # row sum now 0.5, diagonal untouched
    with pytest.raises(ValidationError, match=rf"row {state} .*sums to"):
        validate_generator(q)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(0, 2**31 - 1))
def test_flipped_sign_names_the_entry(n: int, seed: int) -> None:
    q = random_generator(n, seed, density=1.0)
    row, col = 0, 1
    q[row, row] += 2.0 * q[row, col]  # keep the row sum at zero
    q[row, col] = -q[row, col]
    with pytest.raises(
        ValidationError, match=rf"\({row}, {col}\) is negative off-diagonal"
    ):
        validate_generator(q)
    with pytest.raises(ValidationError, match="negative off-diagonal"):
        validate_generator(sp.csr_matrix(q))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=4, max_value=10), seed=st.integers(0, 2**31 - 1))
def test_disconnected_absorbing_state_is_reported(n: int, seed: int) -> None:
    q = absorbing_chain(n, seed)
    # Cut the only inbound edge of the absorbing state and re-close the row:
    # the chain then cycles forever among the transient states.
    q[n - 2, n - 2] += q[n - 2, n - 1]
    q[n - 2, n - 1] = 0.0
    q[n - 2, 0] += -q[n - 2, n - 2] - q[n - 2, :].sum() + q[n - 2, n - 2]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    initial = np.zeros(n)
    initial[0] = 1.0
    with pytest.raises(ValidationError, match="can never fail|cannot reach"):
        validate_absorbing(q, initial, [n - 1])


def test_trapped_recurrent_class_names_the_state() -> None:
    # 0 -> 1 -> absorbing 3, but 0 -> 2 leaks into a self-contained loop
    # {2} that never fails.
    q = np.array(
        [
            [-2.0, 1.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    initial = np.array([1.0, 0.0, 0.0, 0.0])
    # State 2 is a second absorbing state the chain does not declare.
    with pytest.raises(ValidationError, match=r"state 2 .*cannot reach"):
        validate_absorbing(q, initial, [3])


@settings(max_examples=25, deadline=None)
@given(
    dim_a=st.integers(min_value=2, max_value=4),
    dim_b=st.integers(min_value=2, max_value=4),
    seed=st.integers(0, 2**31 - 1),
)
def test_inconsistent_kronecker_factor_shape_names_term_and_axis(
    dim_a: int, dim_b: int, seed: int
) -> None:
    rng = np.random.default_rng(seed)
    good_a = np.triu(rng.uniform(0.1, 2.0, size=(dim_a, dim_a)), k=1)
    good_b = np.triu(rng.uniform(0.1, 2.0, size=(dim_b, dim_b)), k=1)
    wrong = sp.csr_matrix(
        np.triu(rng.uniform(0.1, 2.0, size=(dim_b + 1, dim_b + 1)), k=1)
    )
    terms = [
        KroneckerTerm(factors=((0, sp.csr_matrix(good_a)),), scales=()),
        KroneckerTerm(factors=((1, sp.csr_matrix(good_b)),), scales=()),
    ]
    operator = KroneckerGenerator((dim_a, dim_b), terms)
    # The constructor enforces factor shapes, so corrupt the prepared term
    # in place -- exactly the inconsistency the validator must attribute.
    operator._terms = (
        operator.terms[0],
        KroneckerTerm(factors=((1, wrong),), scales=()),
    )
    with pytest.raises(
        ValidationError, match=r"term 1: factor on axis 1 has shape"
    ):
        validate_kronecker(operator)


@settings(max_examples=25, deadline=None)
@given(n_blocks=st.integers(min_value=2, max_value=5), seed=st.integers(0, 2**31 - 1))
def test_fake_lumping_partition_names_state_and_block(
    n_blocks: int, seed: int
) -> None:
    lumped = random_generator(n_blocks, seed)
    full = np.kron(lumped, np.full((2, 2), 0.5))
    np.fill_diagonal(full, 0.0)
    full = np.where(full > 0.0, full, 0.0)
    np.fill_diagonal(full, -full.sum(axis=1))
    # Perturb one state's rate into another block: its exit rate now
    # disagrees with its block twin, so the partition stops being exact.
    full[0, 2] += 1.0
    full[0, 0] -= 1.0
    partition = np.repeat(np.arange(n_blocks), 2)
    with pytest.raises(
        ValidationError, match=r"state \d+ \(block 0\).*exit rates are not preserved"
    ):
        validate_lumping(full, partition)


def test_lumped_generator_crosscheck_names_the_entry() -> None:
    full = np.array(
        [
            [-1.0, 0.5, 0.5],
            [1.0, -1.5, 0.5],
            [1.0, 0.5, -1.5],
        ]
    )
    partition = np.array([0, 1, 1])
    wrong_quotient = np.array([[-2.0, 2.0], [1.0, -1.0]])
    with pytest.raises(ValidationError, match=r"entry \(0, 0\)"):
        validate_lumping(full, partition, wrong_quotient)


# ----------------------------------------------------------------------
# the REPRO_CHECKS hooks
# ----------------------------------------------------------------------


class _FakeChain:
    def __init__(self, generator: np.ndarray, initial: np.ndarray, empty: list[int]):
        self.generator = sp.csr_matrix(generator)
        self.initial_distribution = initial
        self.empty_states = np.asarray(empty, dtype=np.int64)


def _broken_chain() -> _FakeChain:
    q = absorbing_chain(4, seed=7)
    q[0, 1] += 0.25  # break the row-sum law
    initial = np.zeros(4)
    initial[0] = 1.0
    return _FakeChain(q, initial, [3])


def test_check_hooks_raise_in_strict_mode(strict_checks) -> None:
    with pytest.raises(ValidationError):
        check_chain(_broken_chain())
    with pytest.raises(ValidationError):
        check_generator(_broken_chain().generator)


def test_check_hooks_are_silent_when_off() -> None:
    with override_checks("off"):
        check_chain(_broken_chain())
        check_generator(_broken_chain().generator)


def test_check_chain_accepts_a_valid_chain(strict_checks) -> None:
    q = absorbing_chain(5, seed=11)
    initial = np.zeros(5)
    initial[0] = 1.0
    check_chain(_FakeChain(q, initial, [4]))
