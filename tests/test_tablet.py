import hashlib
import math
import string
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert line.col0_sexagesimal.numeral == parse("24.30")
    assert line.col_i_sexagesimal.numeral == parse("1.59.00.15")


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
    # every dotted cell in the file equals its exact fraction twin
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
    tampered = _rechecksummed(original.replace("|119|", "|118|", 1))
    bad = tmp_path / "bad.txt"
    bad.write_text(tampered, encoding="utf-8")
    with pytest.raises(DatasetCorrupt):
        load_dataset(bad)


@pytest.mark.parametrize("cell", [
    "|1_19|", "|\u0661\u0661\u0669|", pytest.param("|" + "9" * 5000 + "|", id="5000-digits"),
])
def test_integer_cell_needs_ascii_digits(tmp_path, cell):
    # int() reads both spellings as 119, which would load unchanged, and
    # past its digit limit gives advice about an interpreter setting
    tampered = _rechecksummed(_packaged_text().replace("|119|", cell, 1))
    bad = tmp_path / "bad.txt"
    bad.write_text(tampered, encoding="utf-8")
    with pytest.raises(DatasetCorrupt, match="ASCII digits"):
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
    """Offsets of the characters of every [lines] and [errata] record.

    Row 8's inscribed column I, the first numeral of its erratum, is left
    out: it is the only cell in the file with no second copy, so a changed
    digit there loads as a different but self-consistent dataset.  The
    scribal tests pin its value.
    """
    offsets = []
    start = 0
    section = None
    for raw in text.splitlines(keepends=True):
        record = raw.rstrip("\n")
        if record.startswith("["):
            section = record
        elif section in ("[lines]", "[errata]"):
            skip = range(4, record.index("|", 4)) if record.startswith("8|I|") else ()
            offsets += [start + i for i in range(len(record)) if i not in skip]
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
