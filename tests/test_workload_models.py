"""Tests for the workload models (base container, builder, catalog, paper models)."""

import numpy as np
import pytest

from repro.battery.units import SECONDS_PER_HOUR
from repro.workload.base import WorkloadModel
from repro.workload.builder import WorkloadBuilder
from repro.workload.catalog import available_workloads, get_workload, register_workload
from repro.workload.dutycycle import duty_cycle_workload
from repro.workload.mmpp import mmpp_workload
from repro.workload.onoff import onoff_workload
from repro.workload.randomized import random_workload
from repro.workload.simple import simple_workload


class TestWorkloadModel:
    def test_validation_rejects_bad_generator(self):
        with pytest.raises(Exception):
            WorkloadModel(
                state_names=("a", "b"),
                generator=np.array([[1.0, -1.0], [0.0, 0.0]]),
                currents=np.array([0.0, 0.0]),
                initial_distribution=np.array([1.0, 0.0]),
            )

    @pytest.mark.parametrize(
        ("generator", "currents", "message"),
        [
            ([[-1.0, 1.0], [1.0, -1.0]], [-0.1, 0.0], "non-negative"),
            ([[-1.0, 1.0], [1.0, -1.0]], [np.nan, 0.0], "currents must be finite"),
            ([[-1.0, 1.0], [1.0, -1.0]], [1.0, np.inf], "currents must be finite"),
            ([[-1.0, 1.0], [np.nan, -1.0]], [1.0, 0.0], r"entry \(1, 0\) is not finite"),
        ],
        ids=["negative", "nan-current", "inf-current", "nan-generator"],
    )
    def test_validation_rejects_negative_currents(self, generator, currents, message):
        with pytest.raises(ValueError, match=message):
            WorkloadModel(
                state_names=("a", "b"),
                generator=np.array(generator),
                currents=np.array(currents),
                initial_distribution=np.array([1.0, 0.0]),
            )

    def test_state_lookup_and_current(self, simple_model):
        assert simple_model.state_index("send") == 1
        assert simple_model.current_of("send") == pytest.approx(0.2)
        with pytest.raises(KeyError):
            simple_model.state_index("unknown")

    def test_with_initial_state(self, simple_model):
        moved = simple_model.with_initial_state("sleep")
        assert moved.initial_distribution[moved.state_index("sleep")] == 1.0
        # the original is unchanged (frozen dataclass semantics)
        assert simple_model.initial_distribution[simple_model.state_index("idle")] == 1.0

    def test_scaled_time(self, simple_model):
        doubled = simple_model.scaled_time(2.0)
        assert np.allclose(doubled.generator, 2.0 * simple_model.generator)
        with pytest.raises(ValueError):
            simple_model.scaled_time(0.0)


class TestBuilder:
    def test_builds_hourly_rates_in_si_units(self):
        builder = WorkloadBuilder(time_unit="hours")
        builder.add_state("idle", current_ma=8.0)
        builder.add_state("send", current_ma=200.0)
        builder.add_transition("idle", "send", rate=2.0)
        builder.add_transition("send", "idle", rate=6.0)
        model = builder.initial_state("idle").build()
        assert model.generator[0, 1] == pytest.approx(2.0 / SECONDS_PER_HOUR)
        assert model.currents[1] == pytest.approx(0.2)

    def test_duplicate_state_rejected(self):
        builder = WorkloadBuilder()
        builder.add_state("a", current_a=0.0)
        with pytest.raises(ValueError):
            builder.add_state("a", current_a=0.1)

    def test_unknown_transition_states_rejected(self):
        builder = WorkloadBuilder()
        builder.add_state("a", current_a=0.0)
        builder.add_transition("a", "b", rate=1.0)
        with pytest.raises(ValueError):
            builder.build()

    def test_requires_exactly_one_current_spec(self):
        builder = WorkloadBuilder()
        with pytest.raises(ValueError):
            builder.add_state("a", current_ma=1.0, current_a=0.001)
        with pytest.raises(ValueError):
            builder.add_state("b")

    def test_self_loop_rejected(self):
        builder = WorkloadBuilder()
        builder.add_state("a", current_a=0.0)
        with pytest.raises(ValueError):
            builder.add_transition("a", "a", rate=1.0)

    def test_empty_builder_rejected(self):
        with pytest.raises(ValueError):
            WorkloadBuilder().build()


class TestOnOffModel:
    def test_basic_structure(self):
        model = onoff_workload(frequency=1.0, erlang_k=1)
        assert model.n_states == 2
        assert model.state_names == ("on_1", "off_1")
        assert model.generator[0, 1] == pytest.approx(2.0)
        assert model.currents[0] == pytest.approx(0.96)
        assert model.currents[1] == 0.0

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_erlang_phase_rate(self, k):
        frequency = 0.5
        model = onoff_workload(frequency=frequency, erlang_k=k)
        assert model.n_states == 2 * k
        # Every state is left with rate 2 f K.
        assert np.allclose(-np.diag(model.generator), 2.0 * frequency * k)

    @pytest.mark.parametrize("k", [1, 3])
    def test_mean_cycle_frequency(self, k):
        # Expected on-time + off-time = 1/f, i.e. the workload toggles with
        # frequency f on average.
        frequency = 0.25
        model = onoff_workload(frequency=frequency, erlang_k=k)
        steady = model.steady_state()
        assert steady.sum() == pytest.approx(1.0)
        # Time in "on" states is half the cycle for a symmetric model.
        on_probability = steady[:k].sum()
        assert on_probability == pytest.approx(0.5)

    def test_mean_current_is_half_the_on_current(self):
        model = onoff_workload(frequency=1.0, erlang_k=2, current_on=0.96)
        assert model.mean_current() == pytest.approx(0.48)

    def test_start_in_off(self):
        model = onoff_workload(frequency=1.0, start_in_on=False)
        assert model.initial_distribution[model.state_index("off_1")] == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            onoff_workload(frequency=0.0)
        with pytest.raises(ValueError):
            onoff_workload(frequency=1.0, erlang_k=0)
        with pytest.raises(ValueError):
            onoff_workload(frequency=1.0, current_on=-1.0)


class TestSimpleModel:
    def test_states_and_currents(self, simple_model):
        assert simple_model.state_names == ("idle", "send", "sleep")
        assert np.allclose(simple_model.currents, [0.008, 0.2, 0.0])

    def test_rates_match_section_4_3(self, simple_model):
        per_hour = simple_model.generator * SECONDS_PER_HOUR
        idle, send, sleep = 0, 1, 2
        assert per_hour[idle, send] == pytest.approx(2.0)
        assert per_hour[idle, sleep] == pytest.approx(1.0)
        assert per_hour[send, idle] == pytest.approx(6.0)
        assert per_hour[sleep, send] == pytest.approx(2.0)

    def test_steady_state_sending_probability_is_25_percent(self, simple_model):
        assert simple_model.probability_in(["send"]) == pytest.approx(0.25)

    def test_starts_idle(self, simple_model):
        assert simple_model.initial_distribution[simple_model.state_index("idle")] == 1.0

    def test_mean_send_duration_is_ten_minutes(self, simple_model):
        send = simple_model.state_index("send")
        mean_sojourn_seconds = 1.0 / (-simple_model.generator[send, send])
        assert mean_sojourn_seconds == pytest.approx(600.0)


class TestBurstModel:
    def test_states(self, burst_model):
        assert burst_model.state_names == ("sleep", "off-idle", "on-idle", "off-send", "on-send")

    def test_sending_probability_matches_simple_model(self, burst_model, simple_model):
        # The paper chooses lambda_burst = 182 /h so that the steady-state
        # sending probabilities of the two models coincide (0.25).
        burst_probability = burst_model.probability_in(["on-send", "off-send"])
        simple_probability = simple_model.probability_in(["send"])
        assert burst_probability == pytest.approx(simple_probability, abs=2e-3)

    def test_sleep_probability_is_higher_than_in_simple_model(self, burst_model, simple_model):
        assert burst_model.probability_in(["sleep"]) > simple_model.probability_in(["sleep"])

    def test_mean_current_is_lower_than_simple_model(self, burst_model, simple_model):
        # More sleep at the same send probability means a lower average draw.
        assert burst_model.mean_current() < simple_model.mean_current()

    def test_burst_arrival_rate_dominates(self, burst_model):
        on_idle = burst_model.state_index("on-idle")
        on_send = burst_model.state_index("on-send")
        assert burst_model.generator[on_idle, on_send] * SECONDS_PER_HOUR == pytest.approx(182.0)


class TestMMPPModel:
    def test_default_structure(self):
        model = mmpp_workload()
        assert model.state_names == ("idle@quiet", "send@quiet", "idle@burst", "send@burst")
        assert model.currents[model.state_index("send@burst")] == pytest.approx(0.2)
        assert model.initial_distribution[model.state_index("idle@quiet")] == 1.0

    def test_arrival_and_modulation_rates(self):
        model = mmpp_workload(
            arrival_rates_per_hour=(2.0, 120.0),
            modulation_rates_per_hour=(1.0, 6.0),
        )
        per_hour = model.generator * SECONDS_PER_HOUR
        idle_q = model.state_index("idle@quiet")
        send_q = model.state_index("send@quiet")
        idle_b = model.state_index("idle@burst")
        send_b = model.state_index("send@burst")
        assert per_hour[idle_q, send_q] == pytest.approx(2.0)
        assert per_hour[idle_b, send_b] == pytest.approx(120.0)
        # Phase switching applies to both sub-states, preserving them.
        assert per_hour[idle_q, idle_b] == pytest.approx(1.0)
        assert per_hour[send_q, send_b] == pytest.approx(1.0)
        assert per_hour[idle_b, idle_q] == pytest.approx(6.0)

    def test_burst_phase_sends_more(self):
        model = mmpp_workload()
        steady = model.steady_state()
        send_given_quiet = steady[1] / (steady[0] + steady[1])
        send_given_burst = steady[3] / (steady[2] + steady[3])
        assert send_given_burst > 2 * send_given_quiet
        assert send_given_burst > 0.9

    def test_three_phases_need_explicit_modulation(self):
        with pytest.raises(ValueError):
            mmpp_workload(arrival_rates_per_hour=(1.0, 2.0, 3.0))
        modulation = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        model = mmpp_workload(
            arrival_rates_per_hour=(1.0, 2.0, 3.0),
            modulation_rates_per_hour=modulation,
        )
        assert model.n_states == 6

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            mmpp_workload(arrival_rates_per_hour=(-1.0, 2.0))
        with pytest.raises(ValueError):
            mmpp_workload(send_rate_per_hour=0.0)
        with pytest.raises(ValueError):
            mmpp_workload(phase_names=("only-one",))


class TestDutyCycleModel:
    def test_default_schedule_structure(self):
        model = duty_cycle_workload()
        assert model.n_states == 12  # three tasks x four phases
        assert model.state_names[0] == "sleep_1"
        assert model.initial_distribution[0] == 1.0

    def test_occupancy_matches_schedule(self):
        model = duty_cycle_workload(
            [("sleep", 54.0, 0.1), ("sense", 4.0, 15.0), ("transmit", 2.0, 200.0)],
            erlang_k=3,
        )
        steady = model.steady_state()
        occupancy = {}
        for name, probability in zip(model.state_names, steady):
            task = name.rsplit("_", 1)[0]
            occupancy[task] = occupancy.get(task, 0.0) + probability
        assert occupancy["sleep"] == pytest.approx(54.0 / 60.0)
        assert occupancy["sense"] == pytest.approx(4.0 / 60.0)
        assert occupancy["transmit"] == pytest.approx(2.0 / 60.0)

    def test_mean_current_is_duration_weighted(self):
        tasks = [("sleep", 90.0, 0.0), ("burst", 10.0, 100.0)]
        model = duty_cycle_workload(tasks, erlang_k=2)
        assert model.mean_current() == pytest.approx(0.1 * 0.1, rel=1e-6)  # 10 mA duty-weighted

    def test_phase_rates_give_requested_means(self):
        model = duty_cycle_workload([("a", 10.0, 1.0), ("b", 5.0, 2.0)], erlang_k=4)
        # Each of the 4 phases of task "a" is left with rate 4/10 per second.
        a1 = model.state_index("a_1")
        assert -model.generator[a1, a1] == pytest.approx(0.4)

    def test_start_task_selection(self):
        model = duty_cycle_workload(start_task="transmit")
        assert model.initial_distribution[model.state_index("transmit_1")] == 1.0
        with pytest.raises(ValueError):
            duty_cycle_workload(start_task="unknown")

    def test_single_state_constant_load(self):
        model = duty_cycle_workload([("on", 10.0, 100.0)], erlang_k=1)
        assert model.n_states == 1
        assert model.generator[0, 0] == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            duty_cycle_workload([])
        with pytest.raises(ValueError):
            duty_cycle_workload([("a", 0.0, 1.0)])
        with pytest.raises(ValueError):
            duty_cycle_workload([("a", 1.0, 1.0), ("a", 2.0, 1.0)])
        with pytest.raises(ValueError):
            duty_cycle_workload(erlang_k=0)


class TestRandomWorkload:
    def test_deterministic_given_seed(self):
        first = random_workload(5, seed=11)
        second = random_workload(5, seed=11)
        assert np.array_equal(first.generator, second.generator)
        assert np.array_equal(first.currents, second.currents)
        assert np.array_equal(first.initial_distribution, second.initial_distribution)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            random_workload(5, seed=11).generator, random_workload(5, seed=12).generator
        )

    def test_irreducible_for_many_seeds(self):
        for seed in range(10):
            model = random_workload(6, seed=seed)
            steady = model.steady_state()
            assert np.all(steady > 0), f"seed {seed} gave a reducible chain"

    def test_always_has_a_consumer(self):
        for seed in range(10):
            model = random_workload(4, seed=seed, current_range_ma=(0.0, 10.0))
            assert model.currents.max() >= 0.005  # at least 5 mA (upper half)

    def test_single_state(self):
        model = random_workload(1, seed=3)
        assert model.n_states == 1
        assert model.generator[0, 0] == 0.0
        assert model.currents[0] > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            random_workload(0)
        with pytest.raises(ValueError):
            random_workload(3, mean_rate_per_hour=0.0)
        with pytest.raises(ValueError):
            random_workload(3, current_range_ma=(5.0, 5.0))
        with pytest.raises(ValueError):
            random_workload(3, extra_edge_probability=1.5)


class TestCatalog:
    def test_available_names(self):
        names = available_workloads()
        assert {"onoff", "simple", "burst", "mmpp", "duty-cycle", "random"}.issubset(names)

    def test_get_with_arguments(self):
        model = get_workload("onoff", frequency=2.0, erlang_k=3)
        assert model.n_states == 6

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_workload("does-not-exist")

    def test_register_custom_and_reject_duplicates(self):
        register_workload("custom-test-model", lambda: simple_workload())
        assert "custom-test-model" in available_workloads()
        with pytest.raises(ValueError):
            register_workload("simple", simple_workload)
