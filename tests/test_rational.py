"""The exact-arithmetic surface: construction, text grammar, decimal rendering."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zenoseq.rational import parse, render, to_decimal_string

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
)
ascii_digits = st.text(alphabet="0123456789", min_size=1, max_size=40)
# odd/(2*10^d) scaled by 10^d ends in exactly .5: a tie at d digits.
decimal_ties = st.builds(
    lambda half, d: (Fraction(2 * half + 1, 2 * 10**d), d),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=0, max_value=12),
)


def grammar_oracle(sign: str, whole: str, tail: str | None, rest: str) -> Fraction:
    """The literal's value assembled from its parts, without Fraction's parser."""
    if tail == "/":
        value = Fraction(int(whole), int(rest))
    elif tail == ".":
        scale = 10 ** len(rest)
        value = Fraction(int(whole) * scale + int(rest), scale)
    else:
        value = Fraction(int(whole))
    return -value if sign else value


class TestMake:
    def test_normalizes_to_lowest_terms(self):
        assert Fraction(2, 4) == Fraction(1, 2)

    def test_sign_moves_to_numerator(self):
        a = Fraction(3, -6)
        assert a == Fraction(-1, 2)
        assert a.denominator == 2
        assert a.numerator == -1

    def test_zero_is_unique(self):
        a = Fraction(0, 7)
        assert a.numerator == 0
        assert a.denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    def test_default_denominator_is_one(self):
        assert Fraction(7).denominator == 1


class TestArithmetic:
    # The operators are the carrier type's own; these pin the contract the
    # rest of the package leans on.

    def test_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_mul_inverse_pair(self):
        assert Fraction(3, 4) * Fraction(4, 3) == Fraction(1)

    def test_div_identity(self):
        assert Fraction(1, 2) / Fraction(1, 2) == Fraction(1)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_pow(self):
        assert Fraction(1, 2) ** 3 == Fraction(1, 8)
        assert Fraction(5, 4) ** 0 == Fraction(1)
        assert Fraction(2, 3) ** 2 == Fraction(4, 9)

    def test_zero_to_the_zero_is_one(self):
        # The n=0 series term is ratio^0; it must stay 1 when the ratio is 0.
        assert Fraction(0) ** 0 == Fraction(1)

    def test_compare(self):
        assert Fraction(1, 3) < Fraction(1, 2)
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(10, 9) > Fraction(1)


class TestParse:
    def test_ratio(self):
        assert parse("1/2") == Fraction(1, 2)

    def test_decimal_is_exact(self):
        assert parse("0.2") == Fraction(1, 5)

    def test_integer(self):
        assert parse("3") == Fraction(3)

    def test_negative_forms(self):
        assert parse("-3") == Fraction(-3)
        assert parse("-1/2") == Fraction(-1, 2)
        assert parse("-0.25") == Fraction(-1, 4)

    def test_decimal_keeps_all_digits(self):
        assert parse("1.050") == Fraction(21, 20)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "abc",
            "1/,2",
            "1 / 2",
            " 1",
            "1 ",
            "+1",
            "1/-2",
            "-1/-2",
            "1e3",
            "1_000",
            ".5",
            "5.",
            "1/2/3",
            "1.2.3",
            "0x10",
            "nan",
            "inf",
            "\u0661",  # Arabic-Indic one
            "\uff11\uff12",  # fullwidth 12
            "1/\u0662",
            "\u0663.\u0665",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse(bad)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse("1/0")

    @given(
        st.sampled_from(["", "-"]),
        ascii_digits,
        st.sampled_from([None, "/", "."]),
        ascii_digits,
    )
    def test_matches_the_grammar_oracle(self, sign, whole, tail, rest):
        text = sign + whole + (tail + rest if tail else "")
        if tail == "/" and int(rest) == 0:
            with pytest.raises(ValueError):
                parse(text)
        else:
            assert parse(text) == grammar_oracle(sign, whole, tail, rest)


class TestRender:
    def test_ratio_form(self):
        assert render(Fraction(1, 2)) == "1/2"

    def test_integer_form_drops_denominator(self):
        assert render(Fraction(3)) == "3"
        assert render(Fraction(0)) == "0"

    def test_negative(self):
        assert render(Fraction(-1, 2)) == "-1/2"


class TestDecimalString:
    def test_repeating_expansion_truncates_correctly(self):
        assert to_decimal_string(Fraction(1, 9), 4) == "0.1111"

    def test_half_rounds_to_even_down(self):
        assert to_decimal_string(Fraction(1, 2), 0) == "0"

    def test_half_rounds_to_even_up(self):
        assert to_decimal_string(Fraction(3, 2), 0) == "2"
        assert to_decimal_string(Fraction(1, 8), 2) == "0.12"
        assert to_decimal_string(Fraction(3, 8), 2) == "0.38"

    def test_above_one(self):
        assert to_decimal_string(Fraction(10, 9), 3) == "1.111"

    def test_zero_digits_has_no_point(self):
        assert to_decimal_string(Fraction(7, 3), 0) == "2"

    def test_carry_across_the_point(self):
        assert to_decimal_string(Fraction(999, 1000), 2) == "1.00"

    def test_negative_value(self):
        assert to_decimal_string(Fraction(-1, 8), 2) == "-0.12"

    def test_negative_rounding_to_zero_drops_sign(self):
        assert to_decimal_string(Fraction(-1, 1000), 2) == "0.00"

    def test_negative_digits_rejected(self):
        with pytest.raises(ValueError):
            to_decimal_string(Fraction(1, 2), -1)

    @given(st.one_of(st.tuples(rationals, st.integers(min_value=0, max_value=12)), decimal_ties))
    def test_matches_decimal_module(self, case):
        import decimal

        a, digits = case

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ctx.rounding = decimal.ROUND_HALF_EVEN
            want = decimal.Decimal(a.numerator) / decimal.Decimal(a.denominator)
            want = want.quantize(decimal.Decimal(1).scaleb(-digits))
        got = to_decimal_string(a, digits)
        assert decimal.Decimal(got) == want
        # A "-0.00" never leaks out.
        assert not got.startswith("-") or decimal.Decimal(got) != 0


class TestProperties:
    @given(rationals)
    def test_parse_render_round_trip(self, a):
        assert parse(render(a)) == a

    @given(rationals, rationals, rationals)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(rationals, rationals)
    def test_compare_agrees_with_difference_sign(self, a, b):
        diff = a - b
        if a < b:
            assert diff.numerator < 0
        elif a == b:
            assert diff.numerator == 0
        else:
            assert diff.numerator > 0

    @given(rationals)
    def test_normalization_is_idempotent(self, a):
        again = Fraction(a.numerator, a.denominator)
        assert again.numerator == a.numerator
        assert again.denominator == a.denominator
        assert again.denominator > 0

    @given(rationals)
    def test_stored_form_is_canonical(self, a):
        import math

        assert a.denominator > 0
        assert math.gcd(abs(a.numerator), a.denominator) == 1
        if a == 0:
            assert (a.numerator, a.denominator) == (0, 1)
