"""The chase model against hand-iterated and brute-force oracles."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zenoseq import race
from zenoseq.errors import DegenerateRatioError, DivergenceError
from zenoseq.race import (
    MAX_STEPS,
    CatchUp,
    RaceConfig,
    StepEvent,
    catch_up,
    check_speed_identities,
    gap_at_step,
    geometric_sums,
    position_at,
    step_sequence,
    steps_to_within,
    t_n_closed,
    verify_speed_identities,
    x_n_closed,
)

F = Fraction

positive = st.fractions(
    min_value=F(1, 1000), max_value=F(1000), max_denominator=1000
)
nonnegative = st.fractions(
    min_value=F(0), max_value=F(1000), max_denominator=1000
)
ratios_below_one = st.fractions(
    min_value=F(0), max_value=F(999, 1000), max_denominator=1000
)
ratios_strictly_inside = st.fractions(
    min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000
)
ratios_at_least_one = st.fractions(
    min_value=F(1), max_value=F(5), max_denominator=100
)

any_configs = st.builds(RaceConfig, x0=positive, sa=positive, st=nonnegative)
nondegenerate_configs = any_configs.filter(lambda c: c.ratio != 1)


def config_with_ratio(x0, sa, r) -> RaceConfig:
    return RaceConfig(x0=x0, sa=sa, st=sa * r)


convergent_configs = st.builds(config_with_ratio, positive, positive, ratios_below_one)
chasing_configs = st.builds(config_with_ratio, positive, positive, ratios_strictly_inside)
divergent_configs = st.builds(config_with_ratio, positive, positive, ratios_at_least_one)


def iterate_recurrence(config: RaceConfig, count: int) -> list[tuple]:
    """Independent oracle: the recurrence written out longhand."""
    rows = []
    t = config.x0 / config.sa
    x = config.x0
    for n in range(count):
        rows.append((n, t, x))
        x = config.x0 + config.st * t
        t = x / config.sa
    return rows


def residual(config: RaceConfig, n: int) -> Fraction:
    """Time left after step n, t_inf - t_n; before step 0 (n = -1) it is t_inf."""
    t_n = t_n_closed(config, n) if n >= 0 else 0
    return catch_up(config).t_inf - t_n


def brute_force_time(config: RaceConfig, n: int) -> Fraction:
    """Independent oracle: term-by-term sum of (x0/sa) * r^k."""
    r = config.ratio
    return sum((config.x0 / config.sa) * r**k for k in range(n + 1))


class TestRaceConfig:
    def test_ratio(self):
        assert RaceConfig(1, 2, 1).ratio == F(1, 2)

    def test_accepts_integers(self):
        config = RaceConfig(1, 2, 1)
        assert config.x0 == F(1)
        assert isinstance(config.x0, Fraction)

    def test_accepts_slow_pursuer(self):
        # Construction allows ratio >= 1; only limits reject it.
        assert RaceConfig(1, 1, 2).ratio == 2

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RaceConfig(0.5, 2, 1)

    @pytest.mark.parametrize("x0,sa,st", [(0, 2, 1), (-1, 2, 1), (1, 0, 1), (1, -2, 1), (1, 2, -1)])
    def test_rejects_out_of_domain(self, x0, sa, st):
        with pytest.raises(ValueError):
            RaceConfig(x0, sa, st)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            RaceConfig(1, 2, 1).x0 = F(2)


class TestStepSequence:
    def test_half_ratio_first_three(self):
        config = RaceConfig(1, 2, 1)
        events = step_sequence(config, 3)
        assert [(e.n, e.t, e.x) for e in events] == iterate_recurrence(config, 3)
        assert [(e.n, e.t, e.x) for e in events] == [
            (0, F(1, 2), F(1)),
            (1, F(3, 4), F(3, 2)),
            (2, F(7, 8), F(7, 4)),
        ]
        for e in events:
            assert e.t == t_n_closed(config, e.n)
            assert e.x == x_n_closed(config, e.n)

    def test_stationary_leader_is_constant_after_step_zero(self):
        events = step_sequence(RaceConfig(1, 2, 0), 2)
        assert [(e.n, e.t, e.x) for e in events] == [(0, F(1, 2), F(1)), (1, F(1, 2), F(1))]

    def test_first_event_is_head_start_over_speed(self):
        events = step_sequence(RaceConfig(1, 10, 1), 1)
        assert [(e.n, e.t, e.x) for e in events] == [(0, F(1, 10), F(1))]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            step_sequence(RaceConfig(1, 2, 1), 0)

    def test_count_above_cap_rejected(self):
        with pytest.raises(ValueError):
            step_sequence(RaceConfig(1, 2, 1), MAX_STEPS + 1)

    def test_cap_itself_is_allowed(self):
        assert len(step_sequence(RaceConfig(1, 2, 1), MAX_STEPS)) == MAX_STEPS


def longhand_sums(first: Fraction, ratio: Fraction, count: int) -> list[Fraction]:
    """Independent oracle: the engine's recurrence s <- first + ratio*s in Fractions."""
    sums = [first]
    for _ in range(count - 1):
        sums.append(first + ratio * sums[-1])
    return sums


def assert_same_fractions(values, expected) -> None:
    """Equal values, each in lowest terms with a positive denominator."""
    values = list(values)
    assert values == expected
    for value in values:
        normalized = F(value.numerator, value.denominator)
        assert (value.numerator, value.denominator) == (normalized.numerator, normalized.denominator)
        assert hash(value) == hash(normalized)


firsts = st.one_of(
    st.just(F(0)), st.fractions(min_value=F(-1000), max_value=F(1000), max_denominator=1000)
)
any_ratios = st.one_of(
    st.sampled_from([F(0), F(1), F(-1)]),
    st.fractions(min_value=F(-5), max_value=F(5), max_denominator=100),
)


class TestGeometricSums:
    @given(firsts, any_ratios, st.integers(min_value=1, max_value=64))
    def test_equals_longhand_recurrence(self, first, ratio, count):
        assert_same_fractions(geometric_sums(first, ratio, count), longhand_sums(first, ratio, count))

    @pytest.mark.parametrize(
        "first,ratio,count",
        [
            (F(1000, 7), F(999, 1000), 40),  # gcd(a, q^k) reaches 1000 at k = 1, then stays
            (F(1024, 3), F(1, 2), 40),  # gcd(a, q^k) doubles up to k = 10, then stays
            (F(1, 89), F(1, 2), 45),  # 89 divides 2^11 - 1: S_k shares 89 with b every 11 steps
            (F(-5, 3), F(-1), 9),  # every odd partial sum is 0
            (F(0), F(3, 7), 5),
            (F(0), F(-1), 5),
            (F(7, 2), F(1), 6),
            (F(7, 2), F(0), 3),
        ],
    )
    def test_named_cases(self, first, ratio, count):
        assert_same_fractions(geometric_sums(first, ratio, count), longhand_sums(first, ratio, count))

    @given(any_configs, st.integers(min_value=1, max_value=64))
    def test_step_times_are_positions_over_speed(self, config, count):
        events = step_sequence(config, count)
        assert_same_fractions([e.t for e in events], [e.x / config.sa for e in events])


def test_fraction_layout_behind_the_coprime_constructor():
    """race._coprime_fraction fills Fraction's slots; a layout change fails here first."""
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    for n, d in [(0, 1), (5, 1), (3, 4), (-7, 12), (2**200 + 1, 3**150)]:
        made, expected = race._coprime_fraction(n, d), F(n, d)
        assert type(made) is Fraction
        assert made == expected and hash(made) == hash(expected)
        assert float(made) == float(expected)
        assert (str(made), repr(made)) == (str(expected), repr(expected))
        for twin in (copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
            assert twin == expected and hash(twin) == hash(expected)


class TestClosedForms:
    def test_t_matches_recurrence_event(self):
        config = RaceConfig(1, 2, 1)
        assert t_n_closed(config, 1) == step_sequence(config, 2)[1].t == F(3, 4)

    def test_t_zero_ratio_collapses_to_first_term(self):
        assert t_n_closed(RaceConfig(1, 2, 0), 5) == F(1, 2)

    def test_t_ten_terms(self):
        config = RaceConfig(1, 2, 1)
        assert brute_force_time(config, 9) == F(1023, 1024)
        assert t_n_closed(config, 9) == F(1023, 1024)

    def test_x_matches_recurrence_event(self):
        config = RaceConfig(1, 2, 1)
        assert x_n_closed(config, 1) == step_sequence(config, 2)[1].x == F(3, 2)

    def test_x_at_zero_is_head_start(self):
        assert x_n_closed(RaceConfig(1, 5, 1), 0) == F(1)

    def test_x_is_speed_times_time(self):
        config = RaceConfig(1, 2, 1)
        assert x_n_closed(config, 9) == config.sa * t_n_closed(config, 9) == F(1023, 512)

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(DegenerateRatioError):
            t_n_closed(RaceConfig(1, 2, 2), 3)
        with pytest.raises(DegenerateRatioError):
            x_n_closed(RaceConfig(1, 2, 2), 3)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            t_n_closed(RaceConfig(1, 2, 1), -1)

    @given(nondegenerate_configs, st.integers(min_value=0, max_value=64))
    def test_equals_recurrence_everywhere(self, config, n):
        event = step_sequence(config, n + 1)[n]
        assert event.t == t_n_closed(config, n)
        assert event.x == x_n_closed(config, n)

    @given(nondegenerate_configs, st.integers(min_value=0, max_value=32))
    def test_equals_brute_force_sum(self, config, n):
        assert t_n_closed(config, n) == brute_force_time(config, n)


class TestSpeedIdentities:
    def test_holds_for_half_ratio(self):
        assert verify_speed_identities(RaceConfig(1, 2, 1), 16)

    def test_holds_for_third_ratio(self):
        assert verify_speed_identities(RaceConfig(1, 3, 1), 16)

    def test_corrupted_position_breaks_it(self):
        config = RaceConfig(1, 2, 1)
        events = step_sequence(config, 4)
        bad = events[1]
        events[1] = StepEvent(n=bad.n, t=bad.t, x=bad.x + 1)
        assert not check_speed_identities(config, events)

    def test_corrupted_time_breaks_it(self):
        config = RaceConfig(1, 2, 1)
        events = step_sequence(config, 4)
        bad = events[2]
        events[2] = StepEvent(n=bad.n, t=bad.t + F(1, 100), x=bad.x)
        assert not check_speed_identities(config, events)

    def test_stationary_leader_corrupted_position_breaks_it(self):
        # The moved event keeps x = sa*t, so only the leader identity
        # x_{n+1} - x0 = st*t_n (here 0) can catch it.
        config = RaceConfig(1, 2, 0)
        events = step_sequence(config, 4)
        x = events[1].x + 1
        events[1] = StepEvent(n=1, t=x / config.sa, x=x)
        assert not check_speed_identities(config, events)

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            verify_speed_identities(RaceConfig(1, 2, 1), 1)

    @given(any_configs)
    def test_holds_for_any_config(self, config):
        assert verify_speed_identities(config, 16)


class TestCatchUp:
    # Catch-up times 1, 1/2, 1/4, 1/9 and distances 2, 3/2, 5/4, 10/9 for
    # head start 1, leader speed 1, pursuer speeds 2, 3, 5, 10.
    @pytest.mark.parametrize(
        "sa,t_inf,x_inf",
        [
            (2, F(1), F(2)),
            (3, F(1, 2), F(3, 2)),
            (5, F(1, 4), F(5, 4)),
            (10, F(1, 9), F(10, 9)),
        ],
    )
    def test_reference_table(self, sa, t_inf, x_inf):
        assert catch_up(RaceConfig(1, sa, 1)) == CatchUp(t_inf=t_inf, x_inf=x_inf)

    def test_stationary_leader_caught_at_its_mark(self):
        assert catch_up(RaceConfig(1, 2, 0)) == CatchUp(t_inf=F(1, 2), x_inf=F(1))

    @pytest.mark.parametrize("sa,st", [(1, 1), (1, 2), (2, 3)])
    def test_not_faster_never_catches(self, sa, st):
        with pytest.raises(DivergenceError):
            catch_up(RaceConfig(1, sa, st))

    @given(convergent_configs)
    def test_limit_satisfies_both_motion_equations(self, config):
        result = catch_up(config)
        assert result.x_inf == config.sa * result.t_inf
        assert result.x_inf == config.x0 + config.st * result.t_inf


class TestPositionAt:
    def test_initial_condition(self):
        assert position_at(RaceConfig(1, 2, 1), 0) == (F(0), F(1))

    def test_co_location_at_catch_up(self):
        config = RaceConfig(1, 2, 1)
        xa, xt = position_at(config, 1)
        assert xa == xt == F(2)
        assert catch_up(config) == CatchUp(t_inf=F(1), x_inf=F(2))

    def test_pursuer_ahead_later(self):
        assert position_at(RaceConfig(1, 2, 1), 2) == (F(4), F(3))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            position_at(RaceConfig(1, 2, 1), -1)

    def test_float_time_rejected(self):
        with pytest.raises(TypeError):
            position_at(RaceConfig(1, 2, 1), 0.5)


class TestGapAtStep:
    def test_matches_position_difference(self):
        config = RaceConfig(1, 2, 1)
        events = step_sequence(config, 5)
        assert gap_at_step(config, 0) == events[1].x - events[0].x == F(1, 2)
        assert gap_at_step(config, 3) == events[4].x - events[3].x == F(1, 16)

    def test_stationary_leader_has_no_lead(self):
        assert gap_at_step(RaceConfig(1, 2, 0), 3) == 0

    def test_divergent_rejected(self):
        with pytest.raises(DivergenceError):
            gap_at_step(RaceConfig(1, 1, 1), 0)

    @given(chasing_configs, st.integers(min_value=0, max_value=64))
    def test_positive_and_equal_to_next_step_distance(self, config, n):
        events = step_sequence(config, n + 2)
        gap = gap_at_step(config, n)
        assert gap > 0
        assert gap == events[n + 1].x - events[n].x


class TestStepsToWithin:
    def brute_force(self, config: RaceConfig, eps: Fraction) -> int:
        t_inf = catch_up(config).t_inf
        n = 0
        while t_inf - t_n_closed(config, n) >= eps:
            n += 1
        return n

    def test_tenth_threshold(self):
        config = RaceConfig(1, 2, 1)
        assert steps_to_within(config, F(1, 10)) == self.brute_force(config, F(1, 10)) == 3

    def test_loose_threshold_met_immediately(self):
        assert steps_to_within(RaceConfig(1, 2, 1), F(2)) == 0

    def test_tenth_ratio(self):
        config = RaceConfig(1, 10, 1)
        assert steps_to_within(config, F(1, 1000)) == self.brute_force(config, F(1, 1000)) == 2

    def test_tie_requires_one_more_step(self):
        # Residual after step n is (1/2)^(n+1); at eps = 1/4 the strict
        # inequality pushes past n = 1, where the residual equals eps.
        assert steps_to_within(RaceConfig(1, 2, 1), F(1, 4)) == 2

    def test_stationary_leader_rejected(self):
        with pytest.raises(ValueError):
            steps_to_within(RaceConfig(1, 2, 0), F(1, 10))

    @pytest.mark.parametrize("eps", [F(0), F(-1, 2)])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(ValueError):
            steps_to_within(RaceConfig(1, 2, 1), eps)

    def test_divergent_rejected(self):
        with pytest.raises(DivergenceError):
            steps_to_within(RaceConfig(1, 1, 1), F(1, 10))

    @given(
        st.builds(config_with_ratio, positive, positive, ratios_strictly_inside),
        st.fractions(min_value=F(1, 500), max_value=F(10), max_denominator=500),
    )
    def test_agrees_with_brute_force(self, config, eps):
        # The residual strictly decreases for 0 < r < 1, so the brute-force
        # scan's answer is the one n with residual(n) < eps <= residual(n - 1),
        # or 0 when residual(0) < eps already.
        n = steps_to_within(config, eps)
        assert residual(config, n) < eps
        assert n == 0 or eps <= residual(config, n - 1)

    @pytest.mark.parametrize("m", [0, 1, 2, 137, 10_000])
    @pytest.mark.parametrize("r", [F(1, 1000), F(1, 2), F(999, 1000), F(999999, 1000000)])
    def test_exact_at_the_boundary(self, r, m):
        config = config_with_ratio(F(3), F(7), r)
        assert steps_to_within(config, residual(config, m)) == m + 1
        between = (residual(config, m) + residual(config, m - 1)) / 2
        assert steps_to_within(config, between) == m

    def test_eps_below_the_float_range(self):
        # 2^-(n+1) < 10^-400 first at n + 1 = ceil(400 * log2(10)) = 1329.
        assert steps_to_within(RaceConfig(1, 2, 1), F(1, 10**400)) == 1328

    def test_head_start_beyond_the_float_range(self):
        # residual(n) = 10^400 * 2^-n drops below 1 first at n = 1329.
        assert steps_to_within(RaceConfig(10**400, 1, F(1, 2)), F(1)) == 1329


@pytest.mark.parametrize("answer", [1, 2, 3, 7, 64, 1000])
@pytest.mark.parametrize("start", [1, 2, 5, 63, 64, 65, 999, 1000, 1001, 5000])
def test_least_true_from_any_start(answer, start):
    probes = []

    def at_least_answer(m):
        probes.append(m)
        return m >= answer

    assert race._least_true(at_least_answer, start) == answer
    assert min(probes) >= 1
    assert max(probes) <= max(start, 2 * answer - start)


class TestRaceProperties:
    @given(chasing_configs, st.integers(min_value=1, max_value=64))
    def test_times_increase_and_stay_below_limit(self, config, count):
        events = step_sequence(config, count)
        t_inf = catch_up(config).t_inf
        for prev, cur in zip(events, events[1:]):
            assert prev.t < cur.t
            assert prev.x < cur.x
        for e in events:
            assert e.t < t_inf

    @given(convergent_configs, st.integers(min_value=0, max_value=64))
    def test_residual_law(self, config, n):
        r = config.ratio
        residual = catch_up(config).t_inf - t_n_closed(config, n)
        assert residual == (config.x0 / config.sa) * r ** (n + 1) / (1 - r)

    @given(chasing_configs, st.integers(min_value=0, max_value=64))
    def test_leader_ahead_by_the_gap_at_each_step(self, config, n):
        t = t_n_closed(config, n)
        xa, xt = position_at(config, t)
        assert xt - xa == gap_at_step(config, n) > 0

    @given(convergent_configs, st.sampled_from([F(1, 1000), F(1), F(1000)]))
    def test_overtake_after_catch_up(self, config, delta):
        t_inf = catch_up(config).t_inf
        at = position_at(config, t_inf)
        assert at.xa == at.xt
        later = position_at(config, t_inf + delta)
        assert later.xa > later.xt

    @given(convergent_configs, positive)
    def test_scaling_everything_scales_distance_only(self, config, c):
        result = catch_up(config)
        scaled = catch_up(RaceConfig(config.x0 * c, config.sa * c, config.st * c))
        assert scaled.t_inf == result.t_inf
        assert scaled.x_inf == result.x_inf * c

    @given(convergent_configs, positive)
    def test_scaling_speeds_scales_time_only(self, config, c):
        result = catch_up(config)
        scaled = catch_up(RaceConfig(config.x0, config.sa * c, config.st * c))
        assert scaled.t_inf == result.t_inf / c
        assert scaled.x_inf == result.x_inf

    @given(divergent_configs, st.sampled_from([F(0), F(1, 2), F(7), F(10_000)]))
    def test_divergent_leader_never_behind(self, config, t):
        with pytest.raises(DivergenceError):
            catch_up(config)
        xa, xt = position_at(config, t)
        assert xt >= xa
        # The step table still emits for a divergent race.
        assert len(step_sequence(config, 8)) == 8
