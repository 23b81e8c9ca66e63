import pytest

from plimpton.scribal import (
    DigitSlip,
    HalveDigits,
    MechanismInapplicable,
    MergeAdjacentDigits,
    MisreadFinalFiveAsTwo,
    MultiplyValueInsteadOfRoot,
    ShortenWithDivisor,
    TransposeDigits,
    chain_label,
    classify,
    named_hypotheses,
    refute,
    simulate,
)
from plimpton.sexagesimal import parse
from plimpton.tablet import RowOutOfRange, load_dataset

LINE2_ACCEPTED = (MisreadFinalFiveAsTwo(), TransposeDigits(2, 3), HalveDigits())
LINE2_WRITE_TWIST = (MisreadFinalFiveAsTwo(), HalveDigits(), TransposeDigits(2, 3))
LINE2_DOUBLE_MISREAD = (DigitSlip(2, 2), MisreadFinalFiveAsTwo(), HalveDigits())
LINE2_REJECTED = (HalveDigits(),)


class TestSimulate:
    def test_line_2_accepted_chain(self):
        # 6.42.5 -> 6.42.2 -> 6.24.2 -> halved -> 3.12.1
        assert simulate(2, LINE2_ACCEPTED) == parse("3.12.1")

    def test_line_2_write_twist_chain(self):
        # 6.42.2 halved to 3.21.1, then twisted while writing
        assert simulate(2, LINE2_WRITE_TWIST) == parse("3.12.1")

    def test_line_2_double_misread_lands_on_alternate_reading(self):
        result = simulate(2, LINE2_DOUBLE_MISREAD)
        assert result == parse("3.22.1")
        alternate = load_dataset().annotations["line2_alternate_reading_col_iii"]
        assert result == parse(alternate)

    def test_line_2_rejected_direct_halving(self):
        assert simulate(2, LINE2_REJECTED) == parse("3.21.2.30")

    def test_line_8_merge(self):
        assert simulate(8, (MergeAdjacentDigits(4),)) == parse("1.41.33.59.03.45")

    def test_line_9_slip(self):
        assert simulate(9, (DigitSlip(1, 1),)) == parse("9.01")

    def test_line_13_multiply_instead_of_root(self):
        assert simulate(13, (MultiplyValueInsteadOfRoot(16),)) == parse("7.12.1")

    def test_line_15_inconsistent_shortening(self):
        assert simulate(15, (ShortenWithDivisor(4),)) == parse("53")
        assert simulate(15, (ShortenWithDivisor(2),)) == parse("1.46")

    def test_clean_row_needs_explicit_column(self):
        with pytest.raises(MechanismInapplicable):
            simulate(11, (DigitSlip(1, 1),))
        assert simulate(11, (DigitSlip(1, 1),), column="II") == parse("46")

    def test_halving_odd_value_gains_a_place(self):
        assert simulate(11, (HalveDigits(),), column="II").digits == (22, 30)

    def test_misread_requires_final_five(self):
        with pytest.raises(MechanismInapplicable):
            simulate(9, (MisreadFinalFiveAsTwo(),))

    def test_shorten_requires_divisibility(self):
        with pytest.raises(MechanismInapplicable):
            simulate(9, (ShortenWithDivisor(2),))  # 481 is odd

    def test_merge_requires_small_sum(self):
        # line 8 column I starts 1.41.33.45...: 33 + 45 overflows a place
        with pytest.raises(MechanismInapplicable):
            simulate(8, (MergeAdjacentDigits(3),))

    def test_merge_position_out_of_range(self):
        with pytest.raises(MechanismInapplicable):
            simulate(9, (MergeAdjacentDigits(5),))


class TestRefute:
    def test_rejected_hypothesis_is_refuted(self):
        assert refute(2, LINE2_REJECTED)

    def test_accepted_chain_is_not_refuted(self):
        assert not refute(2, LINE2_ACCEPTED)

    def test_wrong_delta_refuted(self):
        assert refute(9, (DigitSlip(1, 2),))

    def test_inapplicable_chain_counts_as_refuted(self):
        assert refute(9, (MisreadFinalFiveAsTwo(),))


class TestClassify:
    def test_line_9_single_minimal_chain(self):
        report = classify(9)
        assert report.column == "II"
        assert report.explanations == ((DigitSlip(1, 1),),)
        assert not report.unexplained

    def test_line_13_single_minimal_chain(self):
        report = classify(13)
        assert report.explanations == ((MultiplyValueInsteadOfRoot(16),),)

    def test_line_15_shortening_chain(self):
        report = classify(15)
        assert report.explanations == ((ShortenWithDivisor(4),),)

    def test_line_8_merge_chain(self):
        report = classify(8)
        assert report.explanations == ((MergeAdjacentDigits(4),),)

    def test_line_2_contains_both_narrative_chains(self):
        report = classify(2)
        assert LINE2_ACCEPTED in report.explanations
        assert LINE2_WRITE_TWIST in report.explanations
        assert all(len(chain) == 3 for chain in report.explanations)
        assert not report.unexplained

    def test_clean_row_empty_report(self):
        report = classify(11)
        assert report.explanations == ()
        assert report.unexplained is False
        assert report.column is None

    def test_every_erratum_has_an_explanation(self):
        for row in (2, 8, 9, 13, 15):
            report = classify(row)
            assert report.explanations, f"row {row} unexplained"
            assert not report.unexplained
            for chain in report.explanations:
                assert simulate(row, chain) == report.inscribed

    def test_row_out_of_range(self):
        with pytest.raises(RowOutOfRange):
            classify(0)
        with pytest.raises(RowOutOfRange):
            classify(16)


class TestNamedHypotheses:
    def test_line_2_registers_three_readings_plus_rejection(self):
        hypotheses = named_hypotheses(2)
        assert len(hypotheses) == 4
        by_label = {h.label: h for h in hypotheses}
        assert by_label["misread, twist, then halve"].reproduces
        assert by_label["misread, halve, then twist while writing"].reproduces
        # the double-misread reading lands on 3.22.1, not the printed 3.12.1
        assert not by_label["double misread, then halve"].reproduces
        rejected = by_label["direct halving of the unabridged value"]
        assert rejected.rejected and not rejected.reproduces

    def test_other_errata_have_one_canonical_chain(self):
        for row in (8, 9, 13, 15):
            (hypothesis,) = named_hypotheses(row)
            assert hypothesis.reproduces

    def test_clean_rows_have_none(self):
        assert named_hypotheses(11) == ()


def test_chain_label_readable():
    label = chain_label(LINE2_ACCEPTED)
    assert "misread final 5 as 2" in label
    assert "->" in label


class TestMechanismEdgeCases:
    def test_transpose_identity_swap_inapplicable(self):
        # 3.32 flattens to "332"; swapping the two 3s changes nothing
        with pytest.raises(MechanismInapplicable):
            simulate(15, (TransposeDigits(1, 2),))

    def test_transpose_out_of_range(self):
        with pytest.raises(MechanismInapplicable):
            simulate(9, (TransposeDigits(5, 6),))

    def test_slip_out_of_range_value(self):
        with pytest.raises(MechanismInapplicable):
            simulate(9, (DigitSlip(2, -2),))  # 01 - 2 is negative

    def test_multiply_needs_remainder(self):
        quantity = MultiplyValueInsteadOfRoot(16)
        line11 = load_dataset().get_line(11)
        # line 11 has a remainder (0.5625 * 3600), so this applies
        assert quantity.apply((1,), line11)


EQUAL_ARGUMENT_KINDS = [
    ((HalveDigits, ()), (MisreadFinalFiveAsTwo, ())),
    ((DigitSlip, (1, 2)), (TransposeDigits, (1, 2))),
    ((MergeAdjacentDigits, (4,)), (ShortenWithDivisor, (4,))),
]


@pytest.mark.parametrize(
    "first, second", EQUAL_ARGUMENT_KINDS,
    ids=[f"{a.__name__}-{b.__name__}" for (a, _), (b, _) in EQUAL_ARGUMENT_KINDS],
)
def test_kinds_with_equal_arguments_stay_apart(first, second):
    # classify dedupes chains through a set, so the kind must take part
    # in equality and hashing, and the same kind must still merge
    (make_a, args_a), (make_b, args_b) = first, second
    a, b = make_a(*args_a), make_b(*args_b)
    assert a != b and a.args == b.args
    assert len({a, b, make_a(*args_a), make_b(*args_b)}) == 2
    assert len({(a, b), (make_a(*args_a), make_b(*args_b)), (b, a)}) == 2
