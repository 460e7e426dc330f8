"""Geometric event processes and the two variant walks."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zenoseq.errors import DegenerateRatioError, DivergenceError
from zenoseq.processes import (
    BounceConfig,
    DichotomyConfig,
    GeometricEventProcess,
    accumulation_point,
    bounce_process,
    dichotomy_process,
    dichotomy_sequence,
    event_time,
    event_times,
    race_as_process,
)
from zenoseq.race import MAX_STEPS, RaceConfig, catch_up

F = Fraction

positive = st.fractions(
    min_value=F(1, 1000), max_value=F(1000), max_denominator=1000
)
ratios_below_one = st.fractions(
    min_value=F(0), max_value=F(999, 1000), max_denominator=1000
)
ratios_strictly_inside = st.fractions(
    min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000
)
ratios_above_one = st.fractions(
    min_value=F(1001, 1000), max_value=F(10), max_denominator=1000
)

convergent_processes = st.builds(
    GeometricEventProcess, first_interval=positive, ratio=ratios_below_one
)
strict_processes = st.builds(
    GeometricEventProcess, first_interval=positive, ratio=ratios_strictly_inside
)


def accumulate(process: GeometricEventProcess, k: int) -> Fraction:
    """Independent oracle: add the intervals one by one."""
    total = F(0)
    interval = process.first_interval
    for _ in range(k + 1):
        total += interval
        interval *= process.ratio
    return total


class TestConfigs:
    def test_process_rejects_nonpositive_first_interval(self):
        with pytest.raises(ValueError):
            GeometricEventProcess(0, F(1, 2))

    def test_process_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            GeometricEventProcess(1, -1)

    def test_process_rejects_floats(self):
        with pytest.raises(TypeError):
            GeometricEventProcess(0.5, 0.5)

    def test_process_accepts_ratio_at_and_above_one(self):
        assert GeometricEventProcess(1, 1).ratio == 1
        assert GeometricEventProcess(1, 3).ratio == 3

    @pytest.mark.parametrize("length,speed", [(0, 1), (-1, 1), (1, 0), (1, -1)])
    def test_dichotomy_rejects_out_of_domain(self, length, speed):
        with pytest.raises(ValueError):
            DichotomyConfig(length, speed)

    @pytest.mark.parametrize("first,ratio", [(0, F(1, 2)), (-1, F(1, 2)), (1, 1), (1, 2), (1, -1)])
    def test_bounce_rejects_out_of_domain(self, first, ratio):
        with pytest.raises(ValueError):
            BounceConfig(first, ratio)

    def test_bounce_accepts_dead_ball(self):
        assert BounceConfig(1, 0).time_ratio == 0


class TestEventTime:
    def test_two_events(self):
        process = GeometricEventProcess(F(1, 2), F(1, 2))
        assert event_time(process, 1) == F(1, 2) + F(1, 4) == F(3, 4)

    def test_zero_ratio_is_single_interval(self):
        assert event_time(GeometricEventProcess(F(1, 2), 0), 9) == F(1, 2)

    def test_decimal_chain(self):
        process = GeometricEventProcess(F(1, 10), F(1, 10))
        assert event_time(process, 2) == F(1, 10) + F(1, 100) + F(1, 1000) == F(111, 1000)

    def test_ratio_one_rejected(self):
        with pytest.raises(DegenerateRatioError):
            event_time(GeometricEventProcess(1, 1), 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            event_time(GeometricEventProcess(1, F(1, 2)), -1)

    @given(convergent_processes, st.integers(min_value=0, max_value=64))
    def test_matches_direct_accumulation(self, process, k):
        assert event_time(process, k) == accumulate(process, k)


class TestEventTimes:
    @given(
        st.one_of(
            convergent_processes,
            st.builds(GeometricEventProcess, first_interval=positive, ratio=ratios_above_one),
        ),
        st.integers(min_value=1, max_value=64),
    )
    def test_prefix_of_closed_form(self, process, count):
        assert event_times(process, count) == [event_time(process, k) for k in range(count)]

    def test_ratio_one_is_arithmetic_progression(self):
        assert event_times(GeometricEventProcess(1, 1), 4) == [1, 2, 3, 4]

    def test_growing_ratio(self):
        assert event_times(GeometricEventProcess(1, 2), 3) == [1, 3, 7]

    def test_empty_count_rejected(self):
        with pytest.raises(ValueError):
            event_times(GeometricEventProcess(1, F(1, 2)), 0)

    def test_count_over_the_cap_rejected(self):
        with pytest.raises(ValueError):
            event_times(GeometricEventProcess(1, 0), MAX_STEPS + 2)

    def test_cap_itself_is_allowed(self):
        times = event_times(GeometricEventProcess(1, 0), MAX_STEPS + 1)
        assert len(times) == MAX_STEPS + 1
        assert times[-1] == 1


class TestAccumulationPoint:
    def test_halving(self):
        process = GeometricEventProcess(F(1, 2), F(1, 2))
        assert accumulation_point(process) == F(1, 2) / (1 - F(1, 2)) == 1

    def test_single_event(self):
        assert accumulation_point(GeometricEventProcess(F(1, 10), 0)) == F(1, 10)

    def test_slow_decay(self):
        assert accumulation_point(GeometricEventProcess(1, F(9, 10))) == 10

    @pytest.mark.parametrize("ratio", [1, F(3, 2), 2])
    def test_non_shrinking_rejected(self, ratio):
        with pytest.raises(DivergenceError):
            accumulation_point(GeometricEventProcess(1, ratio))

    @given(strict_processes, st.integers(min_value=0, max_value=64))
    def test_every_event_strictly_before_it(self, process, k):
        assert event_time(process, k) < accumulation_point(process)

    @given(convergent_processes, st.integers(min_value=1, max_value=64))
    def test_interval_between_events(self, process, k):
        assert (
            event_time(process, k) - event_time(process, k - 1)
            == process.first_interval * process.ratio**k
        )


class TestRaceAsProcess:
    def test_half_ratio(self):
        assert race_as_process(RaceConfig(1, 2, 1)) == GeometricEventProcess(F(1, 2), F(1, 2))

    def test_tenth_ratio_accumulates_at_catch_up(self):
        process = race_as_process(RaceConfig(1, 10, 1))
        assert process == GeometricEventProcess(F(1, 10), F(1, 10))
        assert accumulation_point(process) == F(1, 9)

    def test_stationary_leader_is_single_event(self):
        assert race_as_process(RaceConfig(1, 2, 0)) == GeometricEventProcess(F(1, 2), 0)

    def test_divergent_rejected(self):
        with pytest.raises(DivergenceError):
            race_as_process(RaceConfig(1, 1, 1))

    @given(
        st.builds(
            lambda x0, sa, r: RaceConfig(x0=x0, sa=sa, st=sa * r),
            positive,
            positive,
            ratios_below_one,
        )
    )
    def test_accumulation_equals_catch_up_time(self, config):
        assert accumulation_point(race_as_process(config)) == catch_up(config).t_inf


class TestDichotomy:
    def test_unit_track(self):
        events = dichotomy_sequence(DichotomyConfig(1, 1), 2)
        assert [(e.n, e.t, e.x) for e in events] == [
            (0, F(1, 2), F(1, 2)),
            (1, F(3, 4), F(3, 4)),
        ]

    def test_first_step_covers_half_the_track(self):
        events = dichotomy_sequence(DichotomyConfig(2, 1), 1)
        assert [(e.n, e.t, e.x) for e in events] == [(0, F(1), F(1))]

    def test_total_time_is_length_over_speed(self):
        assert accumulation_point(dichotomy_process(DichotomyConfig(1, 1))) == 1

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            dichotomy_sequence(DichotomyConfig(1, 1), 0)

    def test_count_over_the_cap_rejected(self):
        with pytest.raises(ValueError):
            dichotomy_sequence(DichotomyConfig(1, 1), MAX_STEPS + 1)

    @given(
        st.builds(DichotomyConfig, length=positive, speed=positive),
        st.integers(min_value=1, max_value=64),
    )
    def test_never_reaches_but_the_limit_does(self, config, count):
        events = dichotomy_sequence(config, count)
        for e in events:
            assert e.x == config.length * (1 - F(1, 2) ** (e.n + 1))
            assert e.x < config.length
            assert e.t == e.x / config.speed
        assert accumulation_point(dichotomy_process(config)) == config.length / config.speed

    @given(st.builds(DichotomyConfig, length=positive, speed=positive))
    def test_matches_its_induced_process(self, config):
        process = dichotomy_process(config)
        assert process.first_interval == config.length / (2 * config.speed)
        assert process.ratio == F(1, 2)
        times = event_times(process, 8)
        assert [e.t for e in dichotomy_sequence(config, 8)] == times


class TestBounce:
    def test_halving_flights(self):
        assert accumulation_point(bounce_process(BounceConfig(1, F(1, 2)))) == 2

    def test_dead_ball_rests_after_first_flight(self):
        assert accumulation_point(bounce_process(BounceConfig(1, 0))) == 1

    def test_two_thirds_ratio(self):
        assert accumulation_point(bounce_process(BounceConfig(F(3, 2), F(2, 3)))) == F(9, 2)

    @given(
        st.builds(
            BounceConfig,
            first_flight=positive,
            time_ratio=ratios_below_one,
        )
    )
    def test_rest_time_is_finite_and_past_first_flight(self, config):
        rest = accumulation_point(bounce_process(config))
        assert rest >= config.first_flight
        assert rest == config.first_flight / (1 - config.time_ratio)
