"""Benchmark: the fused Kronecker apply and the disabled contract hooks.

Two acceptance gates on the uniformisation hot path of
:mod:`repro.markov.kernels`:

1. **Fused Kronecker apply.**  On the 4-battery matrix-free scenario
   (the ~1.06M-state bank of ``bench_matrixfree``) the fused uniformised
   apply -- folded diagonal, combined scale groups, shared scale prefixes
   and in-place final contraction -- must beat the pre-fusion operator
   algorithm by :data:`REQUIRED_FUSED_SPEEDUP` x per product.  The
   baseline is :class:`_ReferenceUniformizedApply`, a frozen in-bench
   transcription of the PR-5 operator (per-term scale multiplies, per-entry
   factor loops, then ``v + (v Q)/rate``), so the comparison measures the
   fusion itself and keeps measuring it after the legacy code is gone.
   Per-product times are taken interleaved (best of several alternating
   rounds) because single-shot process timings on shared runners swing by
   tens of percent.  Both paths also solve the full lifetime CDF -- the
   fused one through the production :class:`TransientPropagator`, the
   reference one through an algorithm-identical segment driver -- and must
   agree to :data:`TOLERANCE`.
2. **Disabled contract hooks.**  With ``REPRO_CHECKS=off`` the structural
   validators of :mod:`repro.markov.validate` must cost less than
   :data:`REQUIRED_CHECKS_OFF_OVERHEAD` of the 52k-state solve -- the
   promise made by the :mod:`repro.checking.contracts` docstring.  The
   guard cost is measured directly (many repetitions of the two real
   entry hooks in ``off`` mode) rather than by differencing two
   multi-second end-to-end solves, so the gate stays meaningful at the
   sub-percent level where wall-clock noise would drown it.

Results land in ``BENCH_kernels.json`` (stamped with commit SHA +
timestamp) and are diffed against the committed baseline in CI.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import LifetimeProblem
from repro.battery.parameters import KiBaMParameters
from repro.checking import checks_mode
from repro.core.discretization import discretize
from repro.engine.workspace import SolveWorkspace
from repro.experiments.records import write_bench_record
from repro.markov import kernels
from repro.markov import validate as markov_validate
from repro.markov.poisson import cached_poisson_weights, truncation_points
from repro.markov.uniformization import TransientPropagator
from repro.markov.validate import check_chain, check_generator, check_uniformized
from repro.multibattery import MultiBatterySystem
from repro.workload.base import WorkloadModel

#: Required per-product advantage of the fused uniformised apply over the
#: frozen pre-fusion operator algorithm.
REQUIRED_FUSED_SPEEDUP = 1.3

#: Required CDF agreement between the compared paths.
TOLERANCE = 1e-10

#: Truncation bound of the benchmark solves.
EPSILON = 1e-6

#: Where the trajectory record is written.
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _merge_record_section(section: str, payload: dict) -> None:
    """Write *payload* under *section*, preserving the other sections."""
    record: dict = {"benchmark": "uniformization_kernels"}
    if RECORD_PATH.exists():
        try:
            record = json.loads(RECORD_PATH.read_text())
        except json.JSONDecodeError:
            pass
    record[section] = payload
    write_bench_record(RECORD_PATH, record)


def _assembled_scenario():
    """The 52k-state single-battery chain of ``bench_uniformization``.

    The horizon is trimmed to a modest post-depletion tail: the solve times
    the product loop itself, not the steady-state collapse that
    ``bench_uniformization`` exercises.
    """
    workload = WorkloadModel(
        state_names=("busy", "idle"),
        generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
        currents=np.array([1.0, 0.05]),
        initial_distribution=np.array([1.0, 0.0]),
        description="slow-switching busy/idle kernel-benchmark workload",
    )
    battery = KiBaMParameters(capacity=300.0, c=0.625, k=1e-3)
    times = np.linspace(0.0, 3000.0, 33)
    problem = LifetimeProblem(workload=workload, battery=battery, times=times)
    chain = discretize(problem.model(), delta=0.9)
    return chain, times


def _solve_chain(chain, times: np.ndarray):
    projection = np.zeros(chain.n_states)
    projection[chain.empty_states] = 1.0
    # The engine's propagator: P assembled as CSR, as every solve runs it.
    propagator = SolveWorkspace().propagator(chain, ("bench", chain.n_states))
    return propagator.transient_batch(
        chain.initial_distribution[None, :],
        times,
        epsilon=EPSILON,
        projection=projection,
    )


# ----------------------------------------------------------------------
# Gate 1: fused Kronecker apply on the 4-battery bank.
# ----------------------------------------------------------------------

#: Dense conversion threshold of the frozen reference (as in the original).
_REFERENCE_DENSE_LIMIT = 128


class _ReferenceUniformizedApply:
    """The pre-fusion uniformised operator algorithm, frozen for comparison.

    A faithful transcription of the original matrix-free apply this PR
    replaced -- per term, multiply the reshaped block by every raw scale
    array, contract each factor with a per-entry slice-update loop (or a
    trailing-axis matmul), add into a full-space accumulator, and finish
    with the literal two-pass ``v + (v Q) / rate``.  Built from the public
    :class:`KroneckerGenerator` surface only (``dims`` / ``terms`` /
    ``diagonal``), so it keeps working -- and keeps the speedup honest --
    however the production operator evolves.
    """

    def __init__(self, generator, rate: float):
        self._n = generator.shape[0]
        self._dims = tuple(generator.dims)
        self._diagonal = generator.diagonal()
        self._rate = float(rate)
        prepared = []
        for term in generator.terms:
            factors = []
            for axis, matrix in term.factors:
                csr = sp.csr_matrix(matrix)
                coo = csr.tocoo()
                entries = list(
                    zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
                )
                operand = (
                    csr.toarray()  # repro-lint: allow RPR001 (bounded by _REFERENCE_DENSE_LIMIT)
                    if csr.shape[0] <= _REFERENCE_DENSE_LIMIT
                    else csr
                )
                factors.append((axis + 1, entries, operand))
            prepared.append((tuple(term.scales), tuple(factors)))
        self._prepared = tuple(prepared)

    @staticmethod
    def _contract(tensor: np.ndarray, axis: int, entries, operand) -> np.ndarray:
        shape = tensor.shape
        size = shape[axis]
        right = int(np.prod(shape[axis + 1 :], dtype=np.int64))
        if right == 1:
            flat = tensor.reshape(-1, size)
            return np.asarray(flat @ operand).reshape(shape)
        left = int(np.prod(shape[:axis], dtype=np.int64))
        flat = tensor.reshape(left, size, right)
        out = np.zeros_like(flat)
        for i, j, value in entries:
            out[:, j, :] += value * flat[:, i, :]
        return out.reshape(shape)

    def apply(self, block) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(block, dtype=float))
        out = rows * self._diagonal
        batch_dims = (rows.shape[0],) + self._dims
        for scales, factors in self._prepared:
            tensor = rows.reshape(batch_dims)
            for scale in scales:
                tensor = tensor * scale[None]
            for axis, entries, operand in factors:
                tensor = self._contract(tensor, axis, entries, operand)
            out += tensor.reshape(rows.shape)
        return rows + out / self._rate


def _incremental_cdf(apply, initial, times, rate, epsilon, projection):
    """Incremental transient CDF through an arbitrary uniformised apply.

    Mirrors ``TransientPropagator._incremental`` step for step -- same
    per-segment epsilon split, same budgeted steady-state tolerance, same
    shared segment loop on the same 1-D iterate -- so two operators run
    through it (or one through it and one through the production
    propagator) differ only by the rounding of the apply itself, never by
    window bookkeeping.  *apply* maps ``(K, n)`` rows.
    """
    unique_times = np.unique(np.asarray(times, dtype=float))
    n_times = unique_times.size
    segment_epsilon = 0.5 * float(epsilon) / max(1, n_times)
    detection_budget = 0.5 * float(epsilon)
    gaps = np.diff(unique_times, prepend=0.0)
    planned = np.array(
        [
            truncation_points(rate * float(gap), segment_epsilon)[1] if gap > 0.0 else 0
            for gap in gaps
        ],
        dtype=np.int64,
    )
    products_after = np.concatenate((np.cumsum(planned[::-1])[::-1][1:], [0]))

    def step(v):
        # The loop's iterates are state-major: a (1, n) row would turn its
        # 1-norm over states into a max-norm and collapse segments early.
        return apply(v[None, :])[0]

    cdf = np.zeros(n_times)
    current = np.asarray(initial, dtype=float).copy()
    converged = False
    performed = 0
    for j in range(n_times):
        gap = float(gaps[j])
        if gap > 0.0 and not converged:
            window = cached_poisson_weights(rate * gap, segment_epsilon)
            products_remaining = window.right + int(products_after[j])
            tol = detection_budget / max(1.0, float(products_remaining))
            segment = kernels.segment_python(
                step, current, window.weights, window.left, window.right, tol
            )
            performed += segment.performed
            if segment.status == kernels.SEGMENT_START_INVARIANT:
                converged = True
            else:
                current = segment.accumulated
        cdf[j] = float(current @ projection)
    return cdf, performed


def _best_apply_seconds(apply_pairs, state, *, rounds: int = 5, reps: int = 4):
    """Best per-product seconds for each apply, alternating within rounds.

    Interleaving the contenders inside every round and keeping each one's
    minimum filters the allocator / co-tenancy noise that dominates
    single-shot timings on shared runners.
    """
    best = [float("inf")] * len(apply_pairs)
    for apply in apply_pairs:  # warm caches and lazy preparations
        apply(state)
    for _ in range(rounds):
        for index, apply in enumerate(apply_pairs):
            started = time.perf_counter()
            for _ in range(reps):
                apply(state)
            best[index] = min(best[index], (time.perf_counter() - started) / reps)
    return best


def test_fused_kronecker_apply_speedup(benchmark):
    """Gate 1: fused apply vs the frozen pre-fusion algorithm, 4-battery bank."""
    battery = KiBaMParameters(capacity=150.0, c=1.0, k=0.0)
    system = MultiBatterySystem(
        workload=WorkloadModel(
            state_names=("busy", "idle"),
            generator=np.array([[-0.02, 0.02], [0.02, -0.02]]),
            currents=np.array([0.5, 0.3]),
            initial_distribution=np.array([1.0, 0.0]),
            description="high-duty busy/idle matrix-free benchmark workload",
        ),
        batteries=(battery,) * 4,
        policy="static-split",
        failures_to_die=4,
    )
    delta = battery.available_capacity / 26.0
    times = np.linspace(0.0, 2400.0, 17)

    chain = system.discretize(delta, backend="matrix-free")
    assert chain.n_states >= 500_000, "the gate is about large banks"
    propagator = TransientPropagator(chain.generator, validate=False)
    fused = propagator.probability_matrix
    reference = _ReferenceUniformizedApply(chain.generator, propagator.rate)
    projection = np.zeros(chain.n_states)
    projection[chain.empty_states] = 1.0

    # A realistic iterate for the product timings: a few steps in, the
    # block has spread off the initial point mass.
    state = chain.initial_distribution[None, :]
    for _ in range(8):
        state = fused.apply(state)
    probe_diff = float(np.max(np.abs(fused.apply(state) - reference.apply(state))))
    assert probe_diff <= 1e-14, "the two applies must agree per product"

    reference_apply_seconds, fused_apply_seconds = _best_apply_seconds(
        (reference.apply, fused.apply), state
    )
    apply_speedup = reference_apply_seconds / fused_apply_seconds

    # End-to-end cross-check: the production fused solve against the
    # reference operator driven through the algorithm-identical segment
    # chain above.
    started = time.perf_counter()
    solved = benchmark.pedantic(
        lambda: propagator.transient_batch(
            chain.initial_distribution[None, :],
            times,
            epsilon=EPSILON,
            projection=projection,
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    fused_solve_seconds = time.perf_counter() - started
    fused_cdf = np.asarray(solved.values[0], dtype=float)
    assert fused_cdf[-1] >= 1.0 - 1e-3, "the grid must cover the whole CDF"

    started = time.perf_counter()
    reference_cdf, reference_products = _incremental_cdf(
        reference.apply,
        chain.initial_distribution,
        times,
        propagator.rate,
        EPSILON,
        projection,
    )
    reference_solve_seconds = time.perf_counter() - started
    max_diff = float(np.max(np.abs(fused_cdf - reference_cdf)))

    _merge_record_section("fused_kronecker", {
        "benchmark": "fused_vs_prefusion_kronecker_apply",
        "scenario": {
            "n_batteries": 4,
            "policy": "static-split",
            "failures_to_die": 4,
            "n_states": int(chain.n_states),
            "delta_as": float(delta),
            "n_times": int(times.size),
            "t_max_seconds": float(times[-1]),
            "epsilon": EPSILON,
        },
        "results": {
            "reference_apply_seconds": reference_apply_seconds,
            "fused_apply_seconds": fused_apply_seconds,
            "fused_apply_speedup": apply_speedup,
            "required_fused_speedup": REQUIRED_FUSED_SPEEDUP,
            "fused_solve_seconds": fused_solve_seconds,
            "fused_iterations": int(solved.iterations),
            "reference_solve_seconds": reference_solve_seconds,
            "reference_iterations": int(reference_products),
            "max_abs_cdf_diff": max_diff,
            "tolerance": TOLERANCE,
        },
    })
    print(
        f"\n{chain.n_states}-state 4-battery bank: pre-fusion apply "
        f"{reference_apply_seconds * 1e3:.1f} ms/product, fused "
        f"{fused_apply_seconds * 1e3:.1f} ms/product ({apply_speedup:.2f}x); "
        f"end-to-end fused {fused_solve_seconds:.1f} s vs reference "
        f"{reference_solve_seconds:.1f} s, max |dCDF| {max_diff:.2e}"
    )
    assert max_diff <= TOLERANCE
    assert apply_speedup >= REQUIRED_FUSED_SPEEDUP


# ----------------------------------------------------------------------
# Gate 2: disabled REPRO_CHECKS hooks on the assembled 52k-state solve.
# ----------------------------------------------------------------------

#: Maximal fraction of the 52k-state solve the disabled contract hooks may
#: cost (the docstring promise of ``repro.checking.contracts``).
REQUIRED_CHECKS_OFF_OVERHEAD = 0.01

#: Repetitions used to resolve the (sub-microsecond) cost of one disabled
#: guard entry.
_GUARD_TIMING_REPS = 20_000


def test_checks_off_overhead(benchmark, monkeypatch):
    """Gate 2: ``REPRO_CHECKS=off`` must cost < 1% of the 52k-state solve."""
    # Take the environment path -- the library default -- not the cheaper
    # in-process override, so the measured guard includes the env lookup.
    monkeypatch.setenv("REPRO_CHECKS", "off")
    assert checks_mode() == "off"

    chain, times = _assembled_scenario()
    assert chain.n_states >= 50_000, "the gate is about large chains"

    started = time.perf_counter()
    solved = benchmark.pedantic(
        lambda: _solve_chain(chain, times),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    solve_seconds = time.perf_counter() - started
    cdf = np.asarray(solved.values[0], dtype=float)
    assert cdf[-1] >= 1.0 - 1e-3, "the grid must cover depletion"

    # One discretize-and-solve crosses two guarded entries: ``discretize``
    # runs ``check_chain`` on the built chain and ``TransientPropagator``
    # runs ``check_generator``.  Time the real hooks in off mode.
    guarded_entries_per_solve = 2
    started = time.perf_counter()
    for _ in range(_GUARD_TIMING_REPS):
        check_chain(chain)
        check_generator(chain.generator)
    per_entry_seconds = (time.perf_counter() - started) / (2 * _GUARD_TIMING_REPS)
    overhead = guarded_entries_per_solve * per_entry_seconds / solve_seconds

    # "Not invoked at all": with the validators replaced by a bomb the
    # disabled hooks must still return silently.
    def _bomb(*args, **kwargs):
        raise AssertionError("validator must not run under REPRO_CHECKS=off")

    monkeypatch.setattr(markov_validate, "validate_generator", _bomb)
    monkeypatch.setattr(markov_validate, "validate_absorbing", _bomb)
    monkeypatch.setattr(markov_validate, "validate_stochastic", _bomb)
    check_chain(chain)
    check_generator(chain.generator)
    # The assembled-bank P check of the same propagator entry: off mode
    # returns before reading its arguments.
    check_uniformized(chain.generator, chain.generator)

    _merge_record_section("checks_off_overhead", {
        "benchmark": "repro_checks_off_guard_overhead",
        "scenario": {
            "n_states": int(chain.n_states),
            "n_times": int(times.size),
            "epsilon": EPSILON,
            "guarded_entries_per_solve": guarded_entries_per_solve,
            "guard_timing_reps": _GUARD_TIMING_REPS,
        },
        "results": {
            "solve_seconds": solve_seconds,
            "iterations": int(solved.iterations),
            "per_entry_seconds": per_entry_seconds,
            "overhead_fraction": overhead,
            "required_max_overhead": REQUIRED_CHECKS_OFF_OVERHEAD,
        },
    })
    print(
        f"\n{chain.n_states}-state chain under REPRO_CHECKS=off: solve "
        f"{solve_seconds:.2f} s, disabled guard "
        f"{per_entry_seconds * 1e6:.2f} us/entry x {guarded_entries_per_solve} "
        f"entries = {overhead * 100.0:.5f}% overhead"
    )
    assert overhead <= REQUIRED_CHECKS_OFF_OVERHEAD


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
