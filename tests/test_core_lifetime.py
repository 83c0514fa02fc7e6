"""Tests of the Markovian-approximation lifetime solve (``mrm-uniformization``)."""

import numpy as np
import pytest

import repro.api as api
from repro.battery.parameters import KiBaMParameters
from repro.reward.occupation import two_level_lifetime_cdf
from repro.workload.onoff import onoff_workload


@pytest.fixture
def fast_onoff_model():
    """A small single-well battery driven by a slow on/off workload.

    The short lifetime keeps the uniformisation runs fast, so this fixture is
    used by most solver tests.
    """
    workload = onoff_workload(frequency=0.01, erlang_k=1)
    battery = KiBaMParameters(capacity=600.0, c=1.0, k=0.0)
    return api.LifetimeProblem(workload=workload, battery=battery, times=[0.0])


def approximation(model: api.LifetimeProblem, times, delta: float) -> api.LifetimeResult:
    """The Markovian approximation of *model*'s lifetime CDF on *times*."""
    return api.solve(model.with_times(times).with_delta(delta), "mrm-uniformization")


class TestLifetimeSolver:
    def test_cdf_is_monotone_and_bounded(self, fast_onoff_model):
        times = np.linspace(200.0, 4000.0, 20)
        curve = approximation(fast_onoff_model, times, delta=10.0)
        assert np.all(curve.probabilities >= 0.0)
        assert np.all(curve.probabilities <= 1.0)
        assert np.all(np.diff(curve.probabilities) >= -1e-9)

    def test_probability_negligible_before_fastest_possible_drain(self, fast_onoff_model):
        # Draining 600 As at 0.96 A takes 625 s even without idle periods; the
        # phase-type approximation smears a little mass below that bound, but
        # it must stay negligible well before it.
        curve = approximation(fast_onoff_model, [300.0, 600.0], delta=10.0)
        assert curve.probabilities[0] < 1e-6
        assert curve.probabilities[1] < 0.02

    def test_probability_approaches_one_for_long_horizons(self, fast_onoff_model):
        curve = approximation(fast_onoff_model, [20000.0], delta=10.0)
        assert curve.probabilities[0] > 0.99

    def test_finer_delta_approaches_exact_solution(self, fast_onoff_model):
        workload = fast_onoff_model.workload
        times = np.linspace(800.0, 3000.0, 12)
        exact = two_level_lifetime_cdf(
            workload.generator,
            workload.initial_distribution,
            workload.currents,
            fast_onoff_model.battery.capacity,
            times,
        )
        errors = []
        for delta in (50.0, 25.0, 10.0):
            curve = approximation(fast_onoff_model, times, delta=delta)
            errors.append(float(np.max(np.abs(curve.probabilities - exact))))
        assert errors[0] > errors[-1]
        assert errors[-1] < 0.12

    def test_metadata_is_recorded(self, fast_onoff_model):
        result = approximation(fast_onoff_model, [1000.0, 2000.0], delta=20.0)
        n_levels = int(fast_onoff_model.battery.capacity / 20.0) + 1
        assert result.method == "mrm-uniformization"
        assert result.diagnostics["delta"] == 20.0
        assert result.diagnostics["n_states"] == fast_onoff_model.workload.n_states * n_levels
        assert result.diagnostics["iterations"] > 0

    def test_mean_lifetime_close_to_expected_consumption_time(self, fast_onoff_model):
        # The mean current is 0.48 A, so the 600 As battery lasts roughly
        # 1250 s (plus phase-type spread).
        times = np.linspace(6000.0 / 200, 6000.0, 200)
        curve = approximation(fast_onoff_model, times, delta=10.0)
        assert curve.distribution.mean_lifetime() == pytest.approx(1250.0, rel=0.15)

    def test_two_well_solver_runs_and_is_slower_to_empty(self):
        workload = onoff_workload(frequency=0.01, erlang_k=1)
        partial = api.LifetimeProblem(
            workload=workload,
            battery=KiBaMParameters(capacity=600.0, c=0.625, k=1e-4),
            times=[0.0],
        )
        only_available = api.LifetimeProblem(
            workload=workload,
            battery=KiBaMParameters(capacity=375.0, c=1.0, k=0.0),
            times=[0.0],
        )
        times = np.linspace(400.0, 2500.0, 8)
        partial_curve = approximation(partial, times, delta=12.5)
        available_curve = approximation(only_available, times, delta=12.5)
        # With the bound charge feeding the available well the battery lasts
        # longer than with the available part alone (Figure 9 ordering).
        assert np.all(partial_curve.probabilities <= available_curve.probabilities + 0.02)
