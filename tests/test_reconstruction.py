import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plimpton
from plimpton.numerics import NotPerfectSquare
from plimpton.reconstruction import (
    ArrowValue,
    GradientTriangle,
    InconsistentTriangle,
    NotDivisible,
    OutOfDefinitionRange,
    col0_to_col_i,
    col_i_to_function_values,
    definition_range_report,
    digit_rule_agrees_with_divisibility,
    digit_rule_allows,
    in_definition_range,
    max_valid_divisor,
    reconstruct_line,
    shorten,
    stretch_to_integers,
    verify_all,
)
from plimpton.tablet import load_dataset


class TestCol0ToColI:
    def test_line_1(self):
        assert col0_to_col_i(ArrowValue(Fraction(49, 2))) == Fraction("7140.25")

    def test_flat_triangle(self):
        assert col0_to_col_i(ArrowValue(Fraction(0))) == 3600

    def test_line_11(self):
        assert col0_to_col_i(ArrowValue(Fraction(15))) == 5625

    def test_out_of_range(self):
        # two_p = 60 * (sqrt(60) - 1) is the boundary; 405 lies beyond
        with pytest.raises(OutOfDefinitionRange):
            col0_to_col_i(ArrowValue(Fraction(405)))

    def test_negative_arrow_rejected(self):
        with pytest.raises(ValueError):
            ArrowValue(Fraction(-1))

    def test_range_predicate(self):
        assert in_definition_range(ArrowValue(Fraction(49, 2)))
        assert not in_definition_range(ArrowValue(Fraction(405)))


class TestColIToFunctionValues:
    def test_line_1(self):
        tan_fv, sec_fv = col_i_to_function_values(Fraction(28561, 4))
        assert (tan_fv, sec_fv) == (Fraction(119, 120), Fraction(169, 120))

    def test_line_11(self):
        tan_fv, sec_fv = col_i_to_function_values(3600 * Fraction("1.5625"))
        assert (tan_fv, sec_fv) == (Fraction(3, 4), Fraction(5, 4))

    def test_root_two_case_rejected(self):
        with pytest.raises(NotPerfectSquare):
            col_i_to_function_values(Fraction(7200))

    def test_pythagorean_identity(self):
        tan_fv, sec_fv = col_i_to_function_values(Fraction(582015625, 82944))
        assert sec_fv**2 - tan_fv**2 == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfDefinitionRange):
            col_i_to_function_values(Fraction(3600 * 60))


class TestStretch:
    def test_line_3(self):
        tri = stretch_to_integers(Fraction(4601, 4800), Fraction(6649, 4800))
        assert tri.triple == (4601, 6649, 4800)
        assert tri.stretch == 80

    def test_line_11(self):
        tri = stretch_to_integers(Fraction(3, 4), Fraction(5, 4))
        assert tri.triple == (45, 75, 60)
        assert tri.stretch == 1

    def test_flat(self):
        tri = stretch_to_integers(Fraction(0), Fraction(1))
        assert tri.triple == (0, 60, 60)
        assert tri.stretch == 1

    def test_scale_invariance(self):
        # scaling both values by a regular factor changes nothing after
        # re-reduction: the stretched triple is canonical
        tri = stretch_to_integers(Fraction(119, 120), Fraction(169, 120))
        scaled = stretch_to_integers(Fraction(119 * 12, 120 * 12), Fraction(169 * 12, 120 * 12))
        assert tri == scaled


class TestShorten:
    def test_line_2(self):
        tri = stretch_to_integers(Fraction(16835, 17280), Fraction(24125, 17280))
        assert tri.triple == (16835, 24125, 17280)
        shortened = shorten(tri, 5)
        assert shortened.triple == (3367, 4825, 3456)
        assert shortened.shorten_divisor == 5

    def test_line_15_by_two(self):
        tri = stretch_to_integers(Fraction(112, 180), Fraction(212, 180))
        assert tri.triple == (112, 212, 180)
        assert shorten(tri, 2).triple == (56, 106, 90)

    def test_line_15_by_four_gives_alternate_triple(self):
        tri = stretch_to_integers(Fraction(112, 180), Fraction(212, 180))
        assert shorten(tri, 4).triple == (28, 53, 45)

    def test_odd_width_not_divisible(self):
        tri = stretch_to_integers(Fraction(119, 120), Fraction(169, 120))
        with pytest.raises(NotDivisible):
            shorten(tri, 2)

    def test_function_values_unchanged(self):
        tri = stretch_to_integers(Fraction(16835, 17280), Fraction(24125, 17280))
        shortened = shorten(tri, 5)
        assert (shortened.tan_fv, shortened.sec_fv) == (tri.tan_fv, tri.sec_fv)


class TestReconstructLine:
    def test_line_1_no_shortening(self):
        tri = reconstruct_line(ArrowValue(Fraction(49, 2)))
        assert tri.triple == (119, 169, 120)

    def test_line_2_as_tablet(self):
        tri = reconstruct_line(ArrowValue(Fraction(6845, 288)), shorten_by=5)
        assert tri.triple == (3367, 4825, 3456)

    def test_flat(self):
        tri = reconstruct_line(ArrowValue(Fraction(0)))
        assert tri.triple == (0, 60, 60)

    def test_max_policy_keeps_base_above_sixty(self):
        # line 15: gcd 4, but /4 would drop the base to 45
        tri = reconstruct_line(ArrowValue(Fraction(32, 3)), shorten_by="max")
        assert tri.triple == (56, 106, 90)

    def test_max_policy_reproduces_every_tablet_divisor(self):
        for line in load_dataset().lines:
            tri = reconstruct_line(ArrowValue(line.col0), shorten_by="max")
            assert tri.triple == (
                line.col_ii_corrected, line.col_iii_corrected, line.base,
            )

    def test_max_valid_divisor_line_11(self):
        # gcd(45, 75) = 15, but any shortening drops the base below 60
        tri = stretch_to_integers(Fraction(3, 4), Fraction(5, 4))
        assert max_valid_divisor(tri) == 1


class TestDigitRules:
    def test_rule_examples(self):
        assert digit_rule_allows(5, 16835, 24125)  # both end in 35 / 05
        assert digit_rule_allows(2, 112, 212)
        assert not digit_rule_allows(2, 119, 169)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**9))
    def test_even_rule_is_divisibility_by_two(self, w, c):
        assert digit_rule_allows(2, w, c) == (w % 2 == 0 and c % 2 == 0)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**9))
    def test_five_rule_is_divisibility_by_five(self, w, c):
        assert digit_rule_allows(5, w, c) == (w % 5 == 0 and c % 5 == 0)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**9))
    def test_agreement_checker_for_two_and_five(self, w, c):
        assert digit_rule_agrees_with_divisibility(2, w, c)
        assert digit_rule_agrees_with_divisibility(5, w, c)

    def test_rule_for_three_disagrees_with_divisibility(self):
        # the stated rule (places ending on 3 or 7) does not track
        # base-60 divisibility by 3; 33 and 27 are divisible, yet only
        # 33 % 10 in (3, 7) holds one side of the stated wording
        assert not digit_rule_agrees_with_divisibility(3, 60 + 30, 60 + 30)
        assert digit_rule_allows(3, 63, 67)
        assert 67 % 3 != 0


class TestVerifyAll:
    def test_corrected_dataset_reproduces(self):
        report = verify_all(load_dataset())
        assert report.all_passed
        assert len(report.checks) == 15

    def test_inscribed_flags_the_five_errata(self):
        report = verify_all(load_dataset(), use_inscribed=True)
        assert report.failed_rows == (2, 8, 9, 13, 15)

    def test_line_9_mismatch_detail(self):
        report = verify_all(load_dataset(), use_inscribed=True, rows=[9])
        (check,) = report.checks
        assert check.mismatches == (("II", "481", "541"),)

    def test_subset(self):
        report = verify_all(load_dataset(), rows=[3])
        assert report.all_passed and len(report.checks) == 1

    def test_empty_selection(self):
        report = verify_all(load_dataset(), rows=[])
        assert report.all_passed and report.checks == ()


def test_round_trip_through_the_pipeline():
    # col0 of every tablet line reproduces the stretched triple exactly
    for line in load_dataset().lines:
        col_i = col0_to_col_i(ArrowValue(line.col0))
        assert col_i == line.col_i
        tan_fv, sec_fv = col_i_to_function_values(col_i)
        tri = stretch_to_integers(tan_fv, sec_fv)
        expected = line.pre_shortening or (line.col_ii_corrected, line.col_iii_corrected)
        assert (tri.width, tri.diagonal) == expected
        tri.check()


def test_arrow_exsec_closure():
    # sec = 1 + 2p with p half the exsecant, exactly
    for line in load_dataset().lines:
        arrow = ArrowValue(line.col0)
        p = (arrow.sec_fv - 1) / 2
        assert arrow.sec_fv == 1 + 2 * p
        assert 2 * p * 60 == line.col0


def test_definition_range_report_contents():
    report = definition_range_report()
    assert report["predicate"] == "sec^2 < 60"
    assert abs(report["boundary_deg"] - 82.58244420901214) < 1e-9
    assert report["quoted_boundary_deg"] == 82.55
    assert abs(report["delta_deg"] - 0.0324442) < 1e-4


def test_gradient_triangle_check_catches_bad_triple():
    good = GradientTriangle(45, 75, 60, Fraction(3, 4), Fraction(5, 4), 1)
    good.check()
    bad = GradientTriangle(45, 76, 60, Fraction(3, 4), Fraction(5, 4), 1)
    with pytest.raises(InconsistentTriangle):
        bad.check()


def test_no_invariant_rests_on_assert():
    # python -O strips assert statements, so the package must not use them
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(plimpton.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
