import hashlib
import math
import string
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plimpton.reconstruction import ArrowValue, reconstruct_line, shorten
from plimpton.sexagesimal import AnchoredSexagesimal, from_rational, parse, to_rational
from plimpton.tablet import (
    DATASET_ENV_VAR,
    DatasetCorrupt,
    RowOutOfRange,
    get_line,
    load_dataset,
)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset()


# Every field of every line as the 20-cell format of the dataset stored
# them, before the loader derived them from five cells a line.
FROZEN_LINES = (
    (1, Fraction(49, 2), Fraction(28561, 4), 119, 119, 169, 169, None, 2, None, 120),
    (2, Fraction(6845, 288), Fraction(582015625, 82944), 3367, 3367, 11521, 4825, (16835, 24125), 288, 5, 3456),
    (3, Fraction(1849, 80), Fraction(44209201, 6400), 4601, 4601, 6649, 6649, None, 80, None, 4800),
    (4, Fraction(5041, 225), Fraction(343768681, 50625), 12709, 12709, 18541, 18541, None, 225, None, 13500),
    (5, Fraction(125, 6), Fraction(235225, 36), 65, 65, 97, 97, (325, 485), 6, 5, 72),
    (6, Fraction(121, 6), Fraction(231361, 36), 319, 319, 481, 481, None, 6, None, 360),
    (7, Fraction(841, 45), Fraction(12538681, 2025), 2291, 2291, 3541, 3541, None, 45, None, 2700),
    (8, Fraction(289, 16), Fraction(1560001, 256), 799, 799, 1249, 1249, None, 16, None, 960),
    (9, Fraction(169, 10), Fraction(591361, 100), 541, 481, 769, 769, None, 10, None, 600),
    (10, Fraction(1681, 108), Fraction(66601921, 11664), 4961, 4961, 8161, 8161, None, 108, None, 6480),
    (11, Fraction(15, 1), Fraction(5625, 1), 45, 45, 75, 75, None, 1, None, 60),
    (12, Fraction(529, 40), Fraction(8579041, 1600), 1679, 1679, 2929, 2929, None, 40, None, 2400),
    (13, Fraction(49, 4), Fraction(83521, 16), 25921, 161, 289, 289, None, 4, None, 240),
    (14, Fraction(529, 45), Fraction(10426441, 2025), 1771, 1771, 3229, 3229, None, 45, None, 2700),
    (15, Fraction(32, 3), Fraction(44944, 9), 56, 56, 53, 106, (112, 212), 3, 2, 90),
)


def test_every_field_of_every_line_is_frozen(dataset):
    assert [tuple(line) for line in dataset.lines] == list(FROZEN_LINES)
    for line, frozen in zip(dataset.lines, FROZEN_LINES):
        assert [type(v) for v in line] == [type(v) for v in frozen]


def test_loads_fifteen_lines_and_registry(dataset):
    assert len(dataset.lines) == 15
    assert len(dataset.errata) == 5
    assert {(e.row, e.column) for e in dataset.errata} == {
        (2, "III"), (8, "I"), (9, "II"), (13, "II"), (15, "III"),
    }
    # the contested line-2 reading is an annotation, not a sixth erratum
    assert dataset.annotations["line2_alternate_reading_col_iii"] == "3.22.01"
    assert dataset.annotations["line15_alternate_triple"] == "28;53;45"


def test_line_1_values(dataset):
    line = dataset.get_line(1)
    assert line.col0 == Fraction(49, 2)
    assert line.col_i == Fraction(28561, 4)
    assert (line.col_ii_corrected, line.col_iii_corrected) == (119, 169)
    assert line.base == 120
    assert from_rational(line.col0).numeral == parse("24.30")
    assert from_rational(line.col_i).numeral == parse("1.59.00.15")


def test_line_5_pre_shortening(dataset):
    line = dataset.get_line(5)
    assert line.pre_shortening == (325, 485)
    assert (line.col_ii_corrected, line.col_iii_corrected) == (65, 97)
    assert line.base == 72
    assert line.shorten_divisor == 5


def test_line_15_alternate_triple(dataset):
    line = dataset.get_line(15)
    assert line.col_iii_inscribed == 53
    assert line.col_iii_corrected == 106
    alt = tuple(int(v) for v in dataset.annotations["line15_alternate_triple"].split(";"))
    assert alt == (28, 53, 45)
    assert alt[0] ** 2 + alt[2] ** 2 == alt[1] ** 2


def test_line_15_alternate_triple_is_the_unshortened_triple_over_4(dataset):
    line = dataset.get_line(15)
    unshortened = (*line.pre_shortening, 60 * line.stretch)
    assert unshortened == (112, 212, 180)
    alt = tuple(int(v) for v in dataset.annotations["line15_alternate_triple"].split(";"))
    assert alt == shorten(reconstruct_line(ArrowValue(line.col0)), 4).triple
    assert alt == tuple(v // 4 for v in unshortened)


def test_get_line_bounds(dataset):
    assert dataset.get_line(11).col_i == 5625
    with pytest.raises(RowOutOfRange):
        dataset.get_line(0)
    with pytest.raises(RowOutOfRange):
        dataset.get_line(16)


def test_module_level_accessor():
    line = get_line(3)
    assert (line.col_ii_corrected, line.col_iii_corrected) == (4601, 6649)
    assert line.base == 4800


def test_pythagorean_closure_every_line(dataset):
    for line in dataset.lines:
        assert line.col_ii_corrected**2 + line.base**2 == line.col_iii_corrected**2
        reduced = math.gcd(line.col_ii_corrected, math.gcd(line.base, line.col_iii_corrected))
        w, b, c = (v // reduced for v in (line.col_ii_corrected, line.base, line.col_iii_corrected))
        assert w * w + b * b == c * c


def test_takiltum_is_squared_secant_at_power(dataset):
    for line in dataset.lines:
        pre_iii = line.pre_shortening[1] if line.pre_shortening else line.col_iii_corrected
        assert line.col_i == Fraction(pre_iii, line.stretch) ** 2
        assert line.col_i == 3600 * line.sec_fv**2


def test_column_i_strictly_descending(dataset):
    values = [line.col_i for line in dataset.lines]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_erratum_values_read_correctly(dataset):
    by_row = {e.row: e for e in dataset.errata}
    assert to_rational(AnchoredSexagesimal(by_row[9].inscribed, 1)) == 541
    assert to_rational(AnchoredSexagesimal(by_row[9].corrected, 1)) == 481
    assert by_row[2].inscribed == parse("3.12.1")
    assert by_row[8].inscribed == parse("1.41.33.59.03.45")
    assert by_row[13].inscribed == parse("7.12.1")
    assert by_row[15].inscribed == parse("53")


def test_sexagesimal_mirrors_match_rationals(dataset):
    # column 0 and column I read back from their base-60 digits exactly
    for line in dataset.lines:
        assert to_rational(from_rational(line.col0)) == line.col0
        assert to_rational(from_rational(line.col_i)) == line.col_i


def test_function_values(dataset):
    line = dataset.get_line(11)
    assert line.tan_fv == Fraction(3, 4)
    assert line.sec_fv == Fraction(5, 4)
    line2 = dataset.get_line(2)
    assert line2.tan_fv == Fraction(16835, 17280)
    assert line2.sec_fv == Fraction(24125, 17280)


def _packaged_text() -> str:
    return resources.files("plimpton").joinpath("data/plimpton322.txt").read_text("utf-8")


def _rechecksummed(text: str) -> str:
    marker = text.index("# sha256=")
    end = text.index("\n", marker) + 1
    body = text[end:]
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return text[:marker] + f"# sha256={digest}\n" + body


def test_corrupted_dataset_rejected(tmp_path, dataset):
    original = _packaged_text()
    # break a value but keep the checksum valid: the invariants trip
    tampered = _rechecksummed(original.replace("|1.59|", "|1.58|", 1))
    bad = tmp_path / "bad.txt"
    bad.write_text(tampered, encoding="utf-8")
    with pytest.raises(DatasetCorrupt):
        load_dataset(bad)


@pytest.mark.parametrize("cell, message", [
    pytest.param("|1.5_9|", "non-numeric token", id="underscore"),
    pytest.param("|1.\u0665\u0669|", "non-numeric token", id="arabic-indic"),
    pytest.param("|1." + "9" * 5000 + "|", "exceeds 59", id="5000-digits"),
])
def test_integer_cell_needs_ascii_digits(tmp_path, cell, message):
    # int() reads both spellings of the digit as 59, which would load
    # unchanged, and past its digit limit gives advice about an
    # interpreter setting
    tampered = _rechecksummed(_packaged_text().replace("|1.59|", cell, 1))
    bad = tmp_path / "bad.txt"
    bad.write_text(tampered, encoding="utf-8")
    with pytest.raises(DatasetCorrupt, match=message):
        load_dataset(bad)


def test_checksum_guard(tmp_path):
    original = _packaged_text()
    # change a value and keep the stated checksum: the checksum trips first
    tampered = original.replace("24.30", "24.31", 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(tampered, encoding="utf-8")
    with pytest.raises(DatasetCorrupt, match="checksum"):
        load_dataset(bad)


def test_env_var_override(tmp_path, monkeypatch):
    copy = tmp_path / "copy.txt"
    copy.write_text(_packaged_text(), encoding="utf-8")
    monkeypatch.setenv(DATASET_ENV_VAR, str(copy))
    dataset = load_dataset()
    assert len(dataset.lines) == 15


def _record_offsets(text: str) -> list[int]:
    """Offsets of the characters of every [lines] and [errata] record."""
    offsets = []
    start = 0
    section = None
    for raw in text.splitlines(keepends=True):
        record = raw.rstrip("\n")
        if record.startswith("["):
            section = record
        elif section in ("[lines]", "[errata]"):
            offsets += range(start, start + len(record))
        start += len(raw)
    return offsets


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_record_is_rejected_or_unchanged(tmp_path_factory, dataset, data):
    # one character of one record replaced, checksum re-signed: the load
    # either refuses the file as corrupt or yields the packaged dataset
    original = _packaged_text()
    offset = data.draw(st.sampled_from(_record_offsets(original)), label="offset")
    char = data.draw(st.sampled_from(string.printable), label="char")
    mutated = _rechecksummed(original[:offset] + char + original[offset + 1:])
    path = tmp_path_factory.mktemp("mutated") / "plimpton322.txt"
    path.write_text(mutated, encoding="utf-8")
    try:
        loaded = load_dataset(path)
    except DatasetCorrupt:
        return
    assert loaded == dataset
