import csv
import io
from fractions import Fraction

import pytest

from plimpton import formats, sexagesimal
from plimpton.enumeration import EnumerationConfig, generate, tablet_positions
from plimpton.numerics import fraction_text
from plimpton.sexagesimal import from_rational
from plimpton.tablet import load_dataset


class TestDecimalWithPeriod:
    def test_line_1_takiltum(self):
        assert formats.decimal_with_period(Fraction(28561, 14400)) == "1.983402p7"

    def test_line_10_column_0(self):
        assert formats.decimal_with_period(Fraction(1681, 108)) == "15.56p481"

    def test_terminating(self):
        assert formats.decimal_with_period(Fraction(169, 10)) == "16.9"

    def test_integer(self):
        assert formats.decimal_with_period(Fraction(15)) == "15"

    def test_line_12_takiltum(self):
        value = Fraction(8579041, 5760000)
        assert formats.decimal_with_period(value) == "1.4894168402p7"

    def test_one_third(self):
        assert formats.decimal_with_period(Fraction(1, 3)) == "0.p3"

    def test_negative(self):
        assert formats.decimal_with_period(Fraction(-1, 2)) == "-0.5"

    def test_period_is_cut_after_the_shown_digits(self):
        # 10 has order 3^(k - 2) modulo 3^k: 1/3^9 repeats every 2187 digits
        text = formats.decimal_with_period(Fraction(1, 4 * 3**9))
        head, _, cycle = text.partition("p")
        assert head == "0.00"
        assert cycle == str(10**1002 // (4 * 3**9) % 10**1000).zfill(1000) + "...(period 2187)"

    def test_longest_shown_period_is_whole(self):
        # 3^8 gives 729 repeating digits, the longest of the tablet's values
        cycle = formats.decimal_with_period(Fraction(1, 3**8)).partition("p")[2]
        assert len(cycle) == 729 and cycle == str(10**729 // 3**8).zfill(729)

    def test_period_of_a_non_regular_denominator_is_bounded(self):
        # 1/1019 repeats every 1018 digits, past the digits shown
        assert formats.decimal_with_period(Fraction(1, 1019)).endswith("...(period > 1000)")
        assert formats.decimal_with_period(Fraction(1, 7)) == "0.p142857"


@pytest.fixture(scope="module")
def sample_rows():
    return generate(EnumerationConfig(max_generator=30))


@pytest.fixture(scope="module")
def sample_records(sample_rows):
    return [formats.enumeration_record(r, i + 1) for i, r in enumerate(sample_rows)]


class TestEnumerationRoundTrip:
    def test_csv(self, sample_rows, sample_records):
        text = formats.to_csv(sample_records, formats.ENUMERATION_COLUMNS)
        parsed = formats.from_csv(text)
        assert [formats.enumeration_from_record(r) for r in parsed] == sample_rows

    def test_json(self, sample_rows, sample_records):
        text = formats.to_json(sample_records)
        parsed = formats.from_json(text)
        assert [formats.enumeration_from_record(r) for r in parsed] == sample_rows

    def test_markdown(self, sample_rows, sample_records):
        text = formats.to_markdown(sample_records, formats.ENUMERATION_COLUMNS)
        parsed = formats.from_markdown(text)
        assert [formats.enumeration_from_record(r) for r in parsed] == sample_rows

    def test_angle_floats_survive_exactly(self, sample_rows, sample_records):
        text = formats.to_csv(sample_records, formats.ENUMERATION_COLUMNS)
        parsed = formats.from_csv(text)
        for row, record in zip(sample_rows, parsed):
            assert float(record["angle_deg"]) == row.angle_deg


@pytest.fixture(scope="module")
def lines():
    return list(load_dataset().lines)


@pytest.fixture(scope="module")
def records(lines):
    return [formats.tablet_record(line) for line in lines]


class TestTabletRoundTrip:
    def test_csv(self, records):
        text = formats.to_csv(records, formats.TABLET_COLUMNS)
        assert formats.from_csv(text) == records

    def test_json(self, records):
        text = formats.to_json(records)
        assert formats.from_json(text) == records

    def test_markdown(self, records):
        text = formats.to_markdown(records, formats.TABLET_COLUMNS)
        assert formats.from_markdown(text) == records


def test_render_and_parse_dispatch(sample_records):
    for fmt in ("csv", "json", "md"):
        text = formats.render(sample_records, formats.ENUMERATION_COLUMNS, fmt)
        assert formats.parse_table(text, fmt)
    with pytest.raises(ValueError):
        formats.render(sample_records, formats.ENUMERATION_COLUMNS, "xml")
    with pytest.raises(ValueError):
        formats.parse_table("", "xml")


def test_enumeration_record_fields(sample_rows):
    record = formats.enumeration_record(sample_rows[0], 1, tablet_line=None)
    assert list(record) == formats.ENUMERATION_COLUMNS
    assert record["row"] == "1"
    assert "/" in record["bab_tan"] and "/" in record["colI_frac"]


@pytest.mark.parametrize("cell", ["٤٥", "4_5", " 45", "+45"])
def test_record_integers_are_ascii_digits(sample_records, cell):
    with pytest.raises(ValueError, match="ASCII digits"):
        formats.enumeration_from_record(dict(sample_records[0], width=cell))


def reference_record(row, position, tablet_line=None):
    """An enumeration record built through from_rational and Fraction products."""
    tri = row.triangle
    return {
        "row": str(position),
        "col0": str(from_rational(60 * (tri.sec_fv - 1)).numeral),
        "colI_sex": str(from_rational(row.col_i).numeral),
        "colI_frac": fraction_text(row.col_i),
        "width": str(tri.width),
        "diagonal": str(tri.diagonal),
        "base": str(tri.base),
        "X": str(tri.stretch),
        "shorten_d": str(tri.shorten_divisor) if tri.shorten_divisor else "",
        "bab_tan": fraction_text(60 * tri.tan_fv),
        "bab_sec": fraction_text(60 * tri.sec_fv),
        "angle_deg": repr(row.angle_deg),
        "colI_places": str(row.col_i_places),
        "tablet_line": str(tablet_line) if tablet_line is not None else "",
    }


RECORD_CONFIGS = {
    "1e12-uncapped-degenerate": EnumerationConfig(
        max_generator=10**12, max_col_i_places=1000, include_degenerate=True),
    "1e12-places-9": EnumerationConfig(max_generator=10**12, max_col_i_places=9),
    "1e12-places-11": EnumerationConfig(max_generator=10**12, max_col_i_places=11),
    "1e12-window-44.5-45": EnumerationConfig(
        max_generator=10**12, max_col_i_places=1000, range_min_deg=44.5, range_max_deg=45.0),
}


@pytest.mark.parametrize("config", RECORD_CONFIGS.values(), ids=RECORD_CONFIGS)
def test_integer_records_equal_the_fraction_records(config):
    # col0 and colI_sex are written by sexagesimal.ratio_dotted and compared
    # here with from_rational's numerals, every row of the 10^12 table among them
    rows = generate(config)
    assert rows
    marks = {p: line for line, p in enumerate(tablet_positions(rows), start=1) if p is not None}
    for i, row in enumerate(rows):
        assert formats.enumeration_record(row, i + 1, marks.get(i)) == reference_record(
            row, i + 1, marks.get(i))
    back = [formats.enumeration_from_record(formats.enumeration_record(r, 1)) for r in rows]
    assert back == rows


def test_records_build_no_numeral_objects(monkeypatch):
    def refuse(*args):
        raise AssertionError("the record took the Fraction path")

    for module in (formats, sexagesimal):
        monkeypatch.setattr(module, "from_rational", refuse, raising=False)
    monkeypatch.setattr(sexagesimal.Sexagesimal, "_validate", refuse)
    rows = generate(EnumerationConfig(max_generator=10**9, max_col_i_places=1000,
                                      include_degenerate=True))
    records = [formats.enumeration_record(r, i + 1) for i, r in enumerate(rows)]
    text = formats.render(records, formats.ENUMERATION_COLUMNS, "csv")
    assert len(formats.parse_table(text, "csv")) == len(rows) == 2636


def dict_writer_csv(records, columns):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    return buffer.getvalue()


def test_csv_bytes_equal_dict_writer(records):
    rows = generate(EnumerationConfig(max_generator=10**6, max_col_i_places=1000))
    table = [formats.enumeration_record(r, i + 1) for i, r in enumerate(rows)]
    quoted = dict(table[0], shorten_d='a,"b"\nc', tablet_line=" ")
    for recs, columns in [(table, formats.ENUMERATION_COLUMNS), ([quoted], formats.ENUMERATION_COLUMNS),
                          (records, formats.TABLET_COLUMNS), ([], formats.TABLET_COLUMNS)]:
        assert formats.to_csv(recs, columns) == dict_writer_csv(recs, columns)
