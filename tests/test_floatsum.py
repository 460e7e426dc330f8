"""Binary64 summation audited against exact partial sums.

Error-bound reasoning used by the property tests: Kahan compensation
bounds the summation error by about 2 ulps independent of length, but
the terms themselves are produced by iterated multiplication, which
drifts by roughly one ulp per step. Weighted by the geometric decay of
the terms, that drift contributes about 2u * r/(1-r) in relative terms
(u = 2^-53), negligible for small ratios and dominant as r -> 1. Naive
left-to-right summation adds about one ulp per term on top, giving the
(n+1) * 2^-52 envelope.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoseq.errors import DivergenceError
from zenoseq.floatsum import (
    COMPENSATED,
    NAIVE,
    FloatReport,
    error_sweep,
    sum_compensated,
    sum_naive,
)
from zenoseq.race import MAX_STEPS, RaceConfig, t_n_closed

F = Fraction
U = F(1, 2**53)

positive = st.fractions(
    min_value=F(1, 1000), max_value=F(1000), max_denominator=1000
)
ratios_below_one = st.fractions(
    min_value=F(0), max_value=F(999, 1000), max_denominator=1000
)

convergent_configs = st.builds(
    lambda x0, sa, r: RaceConfig(x0=x0, sa=sa, st=sa * r),
    positive,
    positive,
    ratios_below_one,
)


def exact_sum(config: RaceConfig, n: int) -> Fraction:
    """Independent oracle: term-by-term exact sum of (x0/sa) * r^k."""
    return sum((config.x0 / config.sa) * config.ratio**k for k in range(n + 1))


def power_of_two_config(a: int, b: int) -> RaceConfig:
    """x0 = 2^a, sa = 2^b, st = 2^(b-1): every input a power of two, r = 1/2."""
    return RaceConfig(F(2) ** a, F(2) ** b, F(2) ** (b - 1))


class TestSumNaive:
    def test_dyadic_series_is_nearly_exact(self):
        report = sum_naive(RaceConfig(1, 2, 1), 10)
        assert report.exact == exact_sum(RaceConfig(1, 2, 1), 10) == F(2047, 2048)
        assert report.rel_error < F(1, 2**50)

    def test_stationary_leader_sums_exactly(self):
        report = sum_naive(RaceConfig(1, 2, 0), 5)
        assert report.value == 0.5
        assert report.abs_error == 0

    def test_tenth_ratio_error_small_but_positive(self):
        config = RaceConfig(1, 10, 1)
        report = sum_naive(config, 30)
        assert report.exact == exact_sum(config, 30)
        assert 0 < report.rel_error < F(1, 2**40)

    def test_report_fields(self):
        report = sum_naive(RaceConfig(1, 10, 1), 3)
        assert report.n == 3
        assert report.method == NAIVE
        assert report.exact == t_n_closed(RaceConfig(1, 10, 1), 3)

    def test_divergent_rejected(self):
        with pytest.raises(DivergenceError):
            sum_naive(RaceConfig(1, 1, 1), 5)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            sum_naive(RaceConfig(1, 2, 1), -1)
        with pytest.raises(ValueError):
            sum_naive(RaceConfig(1, 2, 1), MAX_STEPS + 1)


class TestSumCompensated:
    def test_dyadic_series_is_exact(self):
        report = sum_compensated(RaceConfig(1, 2, 1), 10)
        assert report.abs_error == 0

    def test_tenth_ratio_within_compensated_bound(self):
        report = sum_compensated(RaceConfig(1, 10, 1), 30)
        assert report.exact == exact_sum(RaceConfig(1, 10, 1), 30)
        assert report.rel_error <= 3 * U

    def test_third_ratio_long_run_within_bound(self):
        report = sum_compensated(RaceConfig(1, 3, 1), 50)
        assert report.rel_error <= 3 * U

    def test_divergent_rejected(self):
        with pytest.raises(DivergenceError):
            sum_compensated(RaceConfig(1, 2, 3), 5)


class TestErrorSweep:
    def test_exact_fields_join_the_oracle(self):
        config = RaceConfig(1, 2, 1)
        pairs = error_sweep(config, 4)
        assert len(pairs) == 5
        for n, (naive, comp) in enumerate(pairs):
            assert naive.n == comp.n == n
            assert naive.method == NAIVE
            assert comp.method == COMPENSATED
            assert naive.exact == comp.exact == t_n_closed(config, n)

    def test_stationary_leader_all_exact(self):
        for naive, comp in error_sweep(RaceConfig(1, 2, 0), 3):
            assert naive.abs_error == 0
            assert comp.abs_error == 0

    def test_naive_does_not_beat_compensated_in_the_long_run(self):
        pairs = error_sweep(RaceConfig(1, 10, 1), 100)
        final_naive, final_comp = pairs[-1]
        assert final_naive.rel_error >= final_comp.rel_error

    def test_matches_single_shot_summation_bit_for_bit(self):
        config = RaceConfig(3, 7, 2)
        pairs = error_sweep(config, 40)
        for n in (0, 1, 7, 40):
            assert pairs[n][0] == sum_naive(config, n)
            assert pairs[n][1] == sum_compensated(config, n)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            error_sweep(RaceConfig(1, 2, 1), 0)
        with pytest.raises(ValueError):
            error_sweep(RaceConfig(1, 2, 1), MAX_STEPS + 1)

    def test_divergent_rejected(self):
        with pytest.raises(DivergenceError):
            error_sweep(RaceConfig(1, 1, 1), 5)


class TestBinary64Range:
    # t_inf = 10^400 (every term) and 2 * 10^308 (only the sum) are above
    # the largest double.
    @pytest.mark.parametrize(
        "config", [RaceConfig(10**400, 1, 0), RaceConfig(10**308, 1, F(1, 2))]
    )
    def test_catch_up_time_above_the_range_rejected(self, config):
        with pytest.raises(ValueError, match="binary64 range"):
            sum_naive(config, 0)
        with pytest.raises(ValueError, match="binary64 range"):
            error_sweep(config, 5)

    def test_partial_sum_rounding_to_infinity_rejected(self):
        # t_inf is exactly the largest double; the rounded float terms at
        # r = 9/10 overshoot it and the sums reach infinity at n = 328.
        config = RaceConfig(F(sys.float_info.max) / 10, 1, F(9, 10))
        assert sum_naive(config, 300).value < sys.float_info.max
        with pytest.raises(ValueError, match="binary64 range"):
            sum_naive(config, 400)
        with pytest.raises(ValueError, match="binary64 range"):
            error_sweep(config, 400)


class TestExactnessWitness:
    @pytest.mark.parametrize("a,b", [(0, 1), (3, 5), (-4, 2), (10, -3)])
    def test_power_of_two_inputs_sum_exactly_to_n_50(self, a, b):
        for naive, comp in error_sweep(power_of_two_config(a, b), 50):
            assert naive.abs_error == 0
            assert comp.abs_error == 0

    def test_quarter_ratio_exact_until_the_significand_fills(self):
        # With r = 1/4 the partial sum's bits span 2n+1 places, so binary64
        # holds it exactly through n = 26 and must round at n = 27.
        config = RaceConfig(1, 4, 1)
        pairs = error_sweep(config, 27)
        for naive, comp in pairs[:27]:
            assert naive.abs_error == 0
            assert comp.abs_error == 0
        assert pairs[27][0].abs_error > 0
        assert pairs[27][1].abs_error > 0


class TestAuditIsExact:
    @given(convergent_configs, st.integers(min_value=0, max_value=64))
    def test_error_fields_recompute(self, config, n):
        for report in (sum_naive(config, n), sum_compensated(config, n)):
            assert report.exact == t_n_closed(config, n)
            assert report.abs_error == abs(F(report.value) - report.exact)
            assert report.rel_error == report.abs_error / report.exact
            assert report.abs_error >= 0


class TestErrorBounds:
    @settings(max_examples=60)
    @given(convergent_configs, st.integers(min_value=0, max_value=300))
    def test_naive_within_linear_envelope(self, config, n):
        assert sum_naive(config, n).rel_error <= (n + 1) * F(1, 2**52)

    @settings(max_examples=60)
    @given(convergent_configs, st.integers(min_value=0, max_value=300))
    def test_compensated_within_drift_adjusted_envelope(self, config, n):
        # 3u for the compensated accumulation itself plus 2u * r/(1-r) for
        # the iterated-multiplication drift of the terms being summed.
        r = config.ratio
        bound = 3 * U + 2 * U * r / (1 - r)
        assert sum_compensated(config, n).rel_error <= bound

    @settings(max_examples=60)
    @given(
        st.builds(
            lambda x0, sa, r: RaceConfig(x0=x0, sa=sa, st=sa * r),
            positive,
            positive,
            st.fractions(min_value=F(0), max_value=F(1, 2), max_denominator=1000),
        ),
        st.integers(min_value=0, max_value=300),
    )
    def test_compensated_flat_bound_for_fast_decay(self, config, n):
        assert sum_compensated(config, n).rel_error <= 3 * U


class TestReportShape:
    def test_immutable(self):
        report = sum_naive(RaceConfig(1, 2, 1), 1)
        with pytest.raises(Exception):
            report.value = 0.0

    def test_is_dataclass_with_expected_fields(self):
        report = sum_naive(RaceConfig(1, 2, 1), 1)
        assert isinstance(report, FloatReport)
        assert isinstance(report.value, float)
        assert isinstance(report.exact, Fraction)
