import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plimpton.sexagesimal import (
    AnchoredSexagesimal,
    NonTerminating,
    ParseError,
    Sexagesimal,
    dotted,
    from_rational,
    parse,
    ratio_digits,
    ratio_dotted,
    reciprocal,
    to_rational,
)
from plimpton.numerics import regular_numbers

digit_lists = st.lists(st.integers(min_value=0, max_value=59), min_size=1, max_size=8).filter(
    lambda ds: ds[0] != 0 or len(ds) == 1
)

regular_fractions = st.builds(
    lambda num, a, b, c: Fraction(num, 2**a * 3**b * 5**c),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)


class TestParse:
    def test_table_cell(self):
        assert parse("1.59.00.15").digits == (1, 59, 0, 15)

    def test_zero(self):
        assert parse("0").digits == (0,)

    def test_digit_out_of_range(self):
        with pytest.raises(ParseError):
            parse("1.60.3")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("")

    def test_non_numeric(self):
        # non-ASCII digits pass str.isdigit but are not sexagesimal tokens
        for text in ("1.x.3", "\u0663\u0660", "\u00b2"):
            with pytest.raises(ParseError):
                parse(text)

    def test_unpadded_tokens(self):
        assert parse("23.6.45") == parse("23.06.45")

    def test_leading_zeros_in_a_token(self):
        assert parse("059") == parse("59")
        assert parse("1.059") == parse("1.59")
        assert parse("0" * 5000 + "5") == parse("5")

    def test_a_token_past_int_text_limit_exceeds_59(self):
        # int() of this token would name an interpreter setting instead
        with pytest.raises(ParseError, match="exceeds 59") as exc:
            parse("9" * 5000)
        assert len(str(exc.value)) <= 200

    def test_leading_zero_numeral_rejected(self):
        with pytest.raises(ParseError):
            parse("0.30")


class TestFormat:
    def test_canonical_mixed_padding(self):
        assert str(Sexagesimal((1, 59, 0, 15))) == "1.59.00.15"
        assert str(Sexagesimal((24, 30))) == "24.30"
        assert str(Sexagesimal((5, 9, 1))) == "5.09.01"

    def test_strict_mode(self):
        assert Sexagesimal((1, 59, 0, 15)).formatted(strict=True) == "01.59.00.15"

    @given(digit_lists)
    def test_parse_format_round_trip(self, digits):
        numeral = Sexagesimal(tuple(digits))
        assert parse(str(numeral)) == numeral
        assert parse(numeral.formatted(strict=True)) == numeral


class TestToRational:
    def test_table_5_line_1(self):
        assert to_rational(AnchoredSexagesimal(parse("1.24.30"), 1)) == Fraction(169, 2)

    def test_integer_cell(self):
        assert to_rational(AnchoredSexagesimal(parse("45"), 0)) == 45

    def test_zero_any_anchor(self):
        assert to_rational(AnchoredSexagesimal(parse("0"), 5)) == 0


class TestFromRational:
    def test_line_1_takiltum(self):
        anchored = from_rational(Fraction(28561, 14400))
        assert anchored.numeral == parse("1.59.00.15")
        assert anchored.exponent == 0

    def test_one_seventh_raises(self):
        with pytest.raises(NonTerminating):
            from_rational(Fraction(1, 7))

    def test_sixty_floats_up(self):
        anchored = from_rational(Fraction(60))
        assert anchored.numeral.digits == (1,)
        assert anchored.exponent == 1

    def test_zero(self):
        anchored = from_rational(Fraction(0))
        assert anchored.numeral.digits == (0,)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            from_rational(Fraction(-1, 2))

    @given(regular_fractions)
    def test_round_trip(self, r):
        assert to_rational(from_rational(r)) == r

    @given(digit_lists, st.integers(min_value=-4, max_value=4))
    def test_inverse_on_trimmed_numerals(self, digits, exponent):
        if digits[-1] == 0 and len(digits) > 1:
            digits = digits[:-1] + [1]
        anchored = AnchoredSexagesimal(Sexagesimal(tuple(digits)), exponent)
        back = from_rational(to_rational(anchored))
        if anchored.value == 0:
            assert back.value == 0
        else:
            assert back == anchored


def _old_text(digits, strict=False):
    """Dotted text as Sexagesimal.formatted built it before the shared helper."""
    if strict:
        return ".".join(f"{d:02d}" for d in digits)
    head, *tail = digits
    return ".".join([str(head)] + [f"{d:02d}" for d in tail])


_numerators = random.Random(60)
CODEC_NUMERATORS = (
    [_numerators.randrange(1, 10**15) for _ in range(12)]
    + [0, 1, 59, 60, 3600, 7 * 60**3, 59 * 60**5 + 60**2]  # zero, trailing zero places
)


def test_digit_helper_is_the_codec_of_from_rational():
    # every regular denominator up to 10^4, reduced or not against the numerator
    for den in regular_numbers(10**4):
        for num in CODEC_NUMERATORS:
            digits, exponent = ratio_digits(num, den)
            anchored = from_rational(Fraction(num, den))
            assert (digits, exponent) == (anchored.numeral.digits, anchored.exponent), (num, den)
            assert to_rational(AnchoredSexagesimal(Sexagesimal(digits), exponent)) == Fraction(num, den)
            assert len(digits) == 1 or digits[-1] != 0
            assert dotted(digits) == str(anchored.numeral) == _old_text(digits)
            assert dotted(digits, strict=True) == anchored.formatted(strict=True) == _old_text(digits, True)


@pytest.mark.parametrize("num,den", [
    (0, 1), (0, 7 * 3**40), (59, 1), (60, 1), (3599, 1), (3600, 1), (216000, 1),
    (1, 60), (1, 3600), (7, 3**40), (3**40 - 1, 3**40), (1, 5**30), (2**61 - 1, 5**30),
    (1, 2**50 * 3**20), (11, 3**25 * 5**25), (12345678901234567, 2**3 * 3**31 * 5**7),
] + [(60 * k, d) for k in (1, 59, 60, 61, 3600, 216001) for d in (1, 2, 3, 27)])
def test_ratio_dotted_writes_the_codec_text(num, den):
    # two places per divmod, trailing zero places trimmed, the leading digit bare
    assert ratio_dotted(num, den) == dotted(ratio_digits(num, den)[0])


class TestReciprocal:
    def test_common_factor_30(self):
        result = reciprocal(parse("30"), -1)
        assert result.numeral.digits == (2,)
        assert result.exponent == 0

    def test_table_5_line_2(self):
        result = reciprocal(parse("12.30"), -1)
        assert result.numeral == parse("4.48")
        assert to_rational(result) == Fraction(24, 5)

    def test_one_self_reciprocal(self):
        result = reciprocal(parse("1"), 0)
        assert result.numeral.digits == (1,)
        assert result.exponent == 0

    def test_non_regular_value(self):
        with pytest.raises(NonTerminating):
            reciprocal(parse("7"), 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal(parse("0"), 0)

    @given(st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=-6, max_value=6))
    def test_involution(self, a, b, c, shift):
        value = Fraction(2**a * 3**b * 5**c) * Fraction(60) ** shift
        anchored = from_rational(value)
        once = reciprocal(anchored.numeral, anchored.exponent)
        twice = reciprocal(once.numeral, once.exponent)
        assert twice == anchored
        assert to_rational(once) * value == 1
