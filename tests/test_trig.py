import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plimpton.sexagesimal import AnchoredSexagesimal, parse, to_rational
from plimpton.reconstruction import stretch_to_integers
from plimpton.tablet import load_dataset
from plimpton.trig import (
    NotPythagorean,
    approx_diagonal,
    cos_arrow_identity_check,
    double_angle_check,
    forty_five_degree_row,
    from_function_values,
    from_triple,
    sine_ratio,
    ybc7289_check,
    ybc7289_exsec_extraction,
)

# coprime generator pairs for random Pythagorean triples
pair_strategy = st.tuples(
    st.integers(min_value=2, max_value=120), st.integers(min_value=1, max_value=119)
).filter(lambda pq: pq[0] > pq[1] and math.gcd(pq[0], pq[1]) == 1)


def triple_from_pair(p, q):
    return (p * p - q * q, p * p + q * q, 2 * p * q)


class TestFromTriple:
    def test_line_3_worked_example(self):
        fv = from_triple(4601, 6649, 4800)
        assert fv.bab_tan == Fraction("57.5125")
        assert fv.bab_sec == Fraction("83.1125")
        assert abs(fv.angle_deg - 43.787346) < 1e-5

    def test_line_1_angle(self):
        fv = from_triple(119, 169, 120)
        assert abs(fv.angle_deg - 44.7603) < 1e-4

    def test_flat(self):
        fv = from_triple(0, 60, 60)
        assert (fv.tan_fv, fv.sec_fv) == (0, 1)
        assert fv.angle_deg == 0

    def test_not_pythagorean(self):
        with pytest.raises(NotPythagorean, match=r"^\(3, 5, 5\) is not a right triangle$"):
            from_triple(3, 5, 5)

    @given(pair_strategy, st.integers(min_value=1, max_value=50))
    def test_scale_invariance(self, pq, k):
        w, d, b = triple_from_pair(*pq)
        assert from_triple(w, d, b) == from_triple(k * w, k * d, k * b)

    @given(pair_strategy)
    def test_derived_fields(self, pq):
        fv = from_triple(*triple_from_pair(*pq))
        assert fv.bab_tan == 60 * fv.tan_fv
        assert fv.bab_sec == 60 * fv.sec_fv
        assert fv.sec_fv == 1 + 2 * fv.arrow_p
        assert fv.exsec == 2 * fv.arrow_p
        assert fv.sec_fv**2 - fv.tan_fv**2 == 1

    @given(pair_strategy)
    def test_angle_consistency(self, pq):
        w, d, b = triple_from_pair(*pq)
        fv = from_triple(w, d, b)
        from_sine = math.degrees(math.asin(w / d))
        from_secant = math.degrees(math.acos(float(1 / fv.sec_fv)))
        assert abs(fv.angle_deg - from_sine) < 1e-9
        assert abs(fv.angle_deg - from_secant) < 1e-9


class TestSineRatio:
    def test_line_3(self):
        ratio = sine_ratio(4601, 6649)
        assert ratio == Fraction(4601, 6649)
        assert abs(float(ratio) - 0.69198375) < 1e-8

    def test_line_1(self):
        assert sine_ratio(119, 169) == Fraction(119, 169)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            sine_ratio(1, 1)

    @given(pair_strategy)
    def test_sine_cosine_unit_circle(self, pq):
        w, d, b = triple_from_pair(*pq)
        assert sine_ratio(w, d) ** 2 + Fraction(b, d) ** 2 == 1


class TestIdentities:
    def test_cos_arrow_line_11(self):
        assert cos_arrow_identity_check(from_triple(45, 75, 60))

    def test_cos_arrow_flat(self):
        assert cos_arrow_identity_check(from_function_values(Fraction(0), Fraction(1)))

    def test_double_angle_line_1(self):
        assert double_angle_check(from_triple(119, 169, 120), tol=1e-12)

    def test_double_angle_flat(self):
        assert double_angle_check(from_function_values(Fraction(0), Fraction(1)), tol=1e-15)

    def test_double_angle_three_four_five_exact(self):
        fv = from_triple(45, 75, 60)
        assert 2 * fv.sine * fv.cosine == Fraction(24, 25)

    def test_double_angle_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            double_angle_check(from_triple(45, 75, 60), tol=0)

    def test_identities_across_the_tablet(self):
        for line in load_dataset().lines:
            fv = from_function_values(line.tan_fv, line.sec_fv)
            assert cos_arrow_identity_check(fv)
            assert double_angle_check(fv, tol=1e-12)


class TestApproxDiagonal:
    def test_equal_legs_is_rough(self):
        assert approx_diagonal(Fraction(60), Fraction(60)) == 90

    def test_steep_slope_is_rougher(self):
        value = approx_diagonal(Fraction(120), Fraction(119))
        assert value == 120 + Fraction(14161, 240)
        assert abs(float(value) - 179.004) < 1e-2  # against the true 169

    def test_flat(self):
        assert approx_diagonal(Fraction(60), Fraction(0)) == 60

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            approx_diagonal(Fraction(0), Fraction(1))


class TestYbc7289:
    def test_exact(self):
        assert ybc7289_check()

    def test_perturbed_coefficient_fails(self):
        assert not ybc7289_check("1.24.51.11")

    def test_exsec_extraction(self):
        extracted = ybc7289_exsec_extraction()
        assert extracted.numeral == parse("24.51.10")
        assert extracted.exponent == -1  # anchored below unity


class TestFortyFiveDegreeRow:
    def test_column_i(self):
        col_i, width, diagonal = forty_five_degree_row()
        assert col_i == parse("1.59.59.59.38.1.40")
        assert width == 6
        assert diagonal == parse("8.29.7")

    def test_squared_coefficient_cross_check(self):
        coefficient = to_rational(AnchoredSexagesimal(parse("1.24.51.10"), 0))
        col_i, _, _ = forty_five_degree_row()
        assert to_rational(AnchoredSexagesimal(col_i, 0)) == coefficient**2

    def test_diagonal_cross_check(self):
        coefficient = to_rational(AnchoredSexagesimal(parse("1.24.51.10"), 0))
        _, width, diagonal = forty_five_degree_row()
        assert to_rational(AnchoredSexagesimal(diagonal, 0)) == width * coefficient


def test_one_angle_for_a_gradient_and_its_triangle():
    # the function values and the stretched triangle report one angle
    for line in load_dataset().lines:
        fv = from_function_values(line.tan_fv, line.sec_fv)
        assert fv.angle_deg == stretch_to_integers(fv.tan_fv, fv.sec_fv).angle_deg


def test_angle_of_sides_beyond_float_range():
    # p = 2^600 and q = 3^300 give sides near 2^1200, past the float range
    p, q = 2**600, 3**300
    fv = from_triple(p * p - q * q, p * p + q * q, 2 * p * q)
    assert fv.angle_deg == pytest.approx(math.degrees(math.atan(float(fv.tan_fv))))
    assert stretch_to_integers(fv.tan_fv, fv.sec_fv).angle_deg == fv.angle_deg


@pytest.mark.parametrize("call", [
    lambda: from_triple(10**4300 - 1, 1, 1),
    lambda: from_triple(1, 1, -(10**4300)),
    lambda: from_function_values(Fraction(10**4300 - 1), 1),
    lambda: from_function_values(1, Fraction(1, 3 * 10**5000)),
], ids=["triple", "base", "tan", "sec"])
def test_error_text_stays_short_for_any_value_size(call):
    with pytest.raises(ValueError) as exc:
        call()
    assert len(str(exc.value).encode()) <= 200


def test_error_text_of_small_values_is_exact():
    with pytest.raises(NotPythagorean, match=r"^sec\^2 - tan\^2 != 1 for 3/4, 5/3$"):
        from_function_values(Fraction(3, 4), Fraction(5, 3))
