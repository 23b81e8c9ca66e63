import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plimpton.enumeration import EnumerationConfig, generate
from plimpton.numerics import (
    NotPerfectSquare,
    NotRegular,
    RegularFactorization,
    brief,
    factor_regular,
    is_regular,
    isqrt_exact,
    least_integer_multiplier,
    parse_float,
    parse_fraction,
    parse_int,
    parse_signed_int,
    rational_sqrt_exact,
    regular_numbers,
    strip_regular,
)


def largest_prime_factor(n: int) -> int:
    """Independent oracle for regularity: full trial division."""
    largest = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            largest = max(largest, d)
            n //= d
        d += 1
    if n > 1:
        largest = max(largest, n)
    return largest


class TestIsRegular:
    def test_one_is_regular(self):
        assert is_regular(1)

    def test_stretching_factor_288(self):
        assert is_regular(288)

    def test_seven_is_not(self):
        assert not is_regular(7)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            is_regular(0)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_agrees_with_trial_division(self, n):
        assert is_regular(n) == (largest_prime_factor(n) <= 5)


class TestFactorRegular:
    def test_base_sixty(self):
        assert factor_regular(60) == RegularFactorization(2, 1, 1)

    def test_288(self):
        assert factor_regular(288) == RegularFactorization(5, 2, 0)

    def test_fourteen_raises(self):
        with pytest.raises(NotRegular):
            factor_regular(14)

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7))
    def test_round_trip(self, a, b, c):
        n = 2**a * 3**b * 5**c
        f = factor_regular(n)
        assert (f.e2, f.e3, f.e5) == (a, b, c)
        assert f.value == n


def plain_strip(n: int) -> tuple[int, int, int, int]:
    """Reference: divide out 2, 3 and 5 one factor at a time."""
    exponents = []
    for p in (2, 3, 5):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exponents.append(e)
    return (*exponents, n)


def test_strip_regular_matches_the_plain_loop():
    rows = generate(EnumerationConfig(max_generator=10**12, max_col_i_places=1000))
    for n in [*range(1, 5001), *(r.col_i.denominator for r in rows)]:
        assert strip_regular(n) == plain_strip(n), n


def test_regular_numbers_prefix():
    assert regular_numbers(16) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16]


def test_regular_numbers_match_predicate():
    listed = regular_numbers(2000)
    assert listed == [n for n in range(1, 2001) if is_regular(n)]


class TestSqrtExact:
    def test_small_square(self):
        assert rational_sqrt_exact(Fraction(25, 16)) == Fraction(5, 4)

    def test_line_11_takiltum(self):
        # 1.5625 written large: 5625/3600 reduces to 25/16
        assert rational_sqrt_exact(Fraction(5625, 3600)) == Fraction(5, 4)

    def test_irrational_raises(self):
        with pytest.raises(NotPerfectSquare):
            rational_sqrt_exact(Fraction(2))

    def test_negative_raises(self):
        with pytest.raises(NotPerfectSquare):
            rational_sqrt_exact(Fraction(-4))

    def test_isqrt_rejects_near_squares(self):
        with pytest.raises(NotPerfectSquare):
            isqrt_exact(10**18 + 1)

    def test_message_of_a_huge_non_square_is_short(self):
        # str() of an int past 4,300 digits raises, so the message must not need it
        with pytest.raises(NotPerfectSquare, match=r"^~2\.00e\+6000 is not a perfect square$"):
            isqrt_exact(2 * 10**6000)
        with pytest.raises(NotPerfectSquare, match=r"^~-1\.00e\+5000 is negative$"):
            isqrt_exact(-(10**5000))

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=1, max_value=10**6))
    def test_round_trip(self, num, den):
        r = Fraction(num, den) ** 2
        root = rational_sqrt_exact(r)
        assert root * root == r


def test_brief_is_exact_up_to_2_64_a_side():
    assert brief(2**64 - 1) == "18446744073709551615"
    assert brief(Fraction(-2, 2**64 - 1)) == "-2/18446744073709551615"
    assert brief(2**64) == "~1.84e+19"
    assert brief(Fraction(1, 3 * 10**5000)) == "~3.33e-5001"
    assert brief(Fraction(10**400 - 1)) == "~1.00e+400"  # a mantissa rounding up to 10


class TestLeastIntegerMultiplier:
    def test_line_1(self):
        assert least_integer_multiplier([Fraction(119, 2), Fraction(169, 2)]) == 2

    def test_line_11(self):
        assert least_integer_multiplier([Fraction(45), Fraction(75)]) == 1

    def test_line_2(self):
        values = [Fraction(16835, 288), Fraction(24125, 288)]
        assert least_integer_multiplier(values) == 288

    def test_non_regular_denominator(self):
        with pytest.raises(NotRegular):
            least_integer_multiplier([Fraction(1, 7)])

    def test_non_regular_message_names_the_values(self):
        with pytest.raises(NotRegular, match="1/2, 3/14"):
            least_integer_multiplier([Fraction(1, 2), Fraction(3, 14)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            least_integer_multiplier([])

    @pytest.mark.parametrize("values", [
        [Fraction(10**4300 - 1, 7)],
        [Fraction(1, 2), Fraction(-(10**4300))],
    ], ids=["non-regular", "negative"])
    def test_error_text_stays_short_for_any_value_size(self, values):
        with pytest.raises(ValueError) as exc:
            least_integer_multiplier(values)
        assert len(str(exc.value).encode()) <= 200

    @given(st.lists(
        st.builds(
            lambda num, a, b, c: Fraction(num, 2**a * 3**b * 5**c),
            st.integers(min_value=0, max_value=5000),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1, max_size=4))
    def test_minimality_brute_force(self, values):
        x = least_integer_multiplier(values)
        assert all((v * x).denominator == 1 for v in values)
        if x <= 10_000:
            for smaller in range(1, x):
                assert any((v * smaller).denominator != 1 for v in values)


class TestParseInt:
    def test_ascii_digits(self):
        assert parse_int("0") == 0
        assert parse_int("119") == 119
        assert parse_int("007") == 7

    @pytest.mark.parametrize(
        "text", ["", "\u0663\u0660", "1_19", " 1", "1 ", "+1", "-1", "1.0", "\u00b2"]
    )
    def test_other_spellings_refused(self, text):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_int(text)

    def test_digit_limit_has_its_own_message(self):
        # int() would name sys.set_int_max_str_digits, which a user cannot reach
        limit = sys.get_int_max_str_digits()
        assert parse_int("9" * limit) == 10**limit - 1
        for text in ("9" * (limit + 1), "0" * (limit + 700)):
            message = f"^expected at most {limit} ASCII digits, got {len(text)}$"
            with pytest.raises(ValueError, match=message):
                parse_int(text)
            with pytest.raises(ValueError, match=message):
                parse_signed_int("-" + text)

    def test_digit_limit_message_follows_the_limit_in_force(self):
        # int() raises past the limit and parse_int reads the limit only then
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            with pytest.raises(ValueError, match="^expected at most 640 ASCII digits, got 641$"):
                parse_int("9" * 641)
            sys.set_int_max_str_digits(0)  # no limit
            assert parse_int("9" * 5000) == 10**5000 - 1
        finally:
            sys.set_int_max_str_digits(limit)

    def test_signed_reader_takes_a_minus_sign_only(self):
        assert parse_signed_int("-2") == -2
        assert parse_signed_int("3") == 3
        for text in ("+1", "--1", "-", "- 1", "-\u0663", "-1_0"):
            with pytest.raises(ValueError, match="ASCII digits"):
                parse_signed_int(text)

    def test_float_reader_is_ascii_only(self):
        assert parse_float("44.7") == 44.7
        assert parse_float("1e2") == 100.0
        for text in ("\u0664\u0664.7", "1_50", " 1.5", "1.5 ", "", "abc"):
            with pytest.raises(ValueError):
                parse_float(text)

    def test_fraction_parts_use_it(self):
        assert parse_fraction("3/4") == Fraction(3, 4)
        for text in ("\u0663/\u0664", "3/\u0664", "1_5/4", "-3/4", "3 /4"):
            with pytest.raises(ValueError, match="ASCII digits"):
                parse_fraction(text)

    def test_zero_denominator_refused_with_the_text(self):
        for text in ("5/0", "0/0", "1/000"):
            with pytest.raises(ValueError) as exc:
                parse_fraction(text)
            assert str(exc.value) == f"expected num/den with a non-zero denominator, got {text!r}"
