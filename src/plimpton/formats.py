"""Deterministic table serialization: CSV, JSON and Markdown.

Machine formats carry rationals as exact "num/den" strings and
sexagesimal values as dotted text, so every format round-trips the full
row losslessly.  Human-facing decimal output may use the p-marker
convention for repeating decimals ("1.983402p7" repeats the 7); machine
fields never do.

Records are built from integers.  Each dotted cell is written by
sexagesimal.ratio_dotted, two places per divmod; each "num/den" cell is 60 * value reduced
through gcd(60, den), so no Fraction and no numeral object is made per
cell.  Reading a record back makes one Fraction per function value.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from .enumeration import EnumeratedRow
from .numerics import fraction_text, parse_float, parse_fraction, parse_int, parse_ratio, strip_regular
from .reconstruction import GradientTriangle
from .sexagesimal import ratio_dotted
from .tablet import TabletLine

PERIOD_DIGITS_SHOWN = 1000  # at least 729, the longest period of any tablet line's decimals

ENUMERATION_COLUMNS = [
    "row", "col0", "colI_sex", "colI_frac", "width", "diagonal", "base",
    "X", "shorten_d", "bab_tan", "bab_sec", "angle_deg", "colI_places",
    "tablet_line",
]

TABLET_COLUMNS = [
    "row", "col0_sex", "col0_frac", "colI_sex", "colI_frac",
    "colII_inscribed", "colII_corrected", "colIII_inscribed", "colIII_corrected",
    "pre_II", "pre_III", "stretch", "shorten_d", "base",
]


def decimal_with_period(value: Fraction) -> str:
    """Decimal text with a p marker where the digits start repeating.

    1681/108 renders as "15.56p481": the block after p repeats forever.
    Terminating values come out plain.  A period longer than PERIOD_DIGITS_SHOWN is cut
    there and marked "...(period 6561)", or "...(period > 1000)" for a non-regular denominator.
    """
    value = Fraction(value)
    if value < 0:
        return "-" + decimal_with_period(-value)
    integer, remainder = divmod(value.numerator, value.denominator)
    if remainder == 0:
        return str(integer)
    e2, e3, e5, rest = strip_regular(value.denominator)
    digits, start = [], remainder
    for _ in range(max(e2, e5)):  # the pre-period, a digit per divmod: str() of it may pass int's digit limit
        digit, start = divmod(start * 10, value.denominator)
        digits.append(str(digit))
    text = f"{integer}." + "".join(digits)
    if start == 0:
        return text
    digits, remainder = [], start
    while len(digits) < PERIOD_DIGITS_SHOWN:
        digit, remainder = divmod(remainder * 10, value.denominator)
        digits.append(str(digit))
        if remainder == start:
            return f"{text}p{''.join(digits)}"
    period = 3 ** (e3 - 2) if rest == 1 else f"> {PERIOD_DIGITS_SHOWN}"  # 10 has order 3^(k-2) mod 3^k
    return f"{text}p{''.join(digits)}...(period {period})"


def _times_60(num: int, den: int) -> tuple[int, int]:
    """60 * num/den in lowest terms, for num/den in lowest terms."""
    g = math.gcd(60, den)
    return 60 // g * num, den // g


def enumeration_record(row: EnumeratedRow, position: int, tablet_line: int | None = None) -> dict[str, str]:
    tri = row.triangle
    tn, td = _times_60(tri.tan_fv.numerator, tri.tan_fv.denominator)
    sn, sd = _times_60(tri.sec_fv.numerator, tri.sec_fv.denominator)
    col_i = row.col_i
    return {
        "row": str(position),
        "col0": ratio_dotted(sn - 60 * sd, sd),
        "colI_sex": ratio_dotted(col_i.numerator, col_i.denominator),
        "colI_frac": fraction_text(col_i),
        "width": str(tri.width),
        "diagonal": str(tri.diagonal),
        "base": str(tri.base),
        "X": str(tri.stretch),
        "shorten_d": str(tri.shorten_divisor) if tri.shorten_divisor else "",
        "bab_tan": f"{tn}/{td}",
        "bab_sec": f"{sn}/{sd}",
        "angle_deg": repr(row.angle_deg),
        "colI_places": str(row.col_i_places),
        "tablet_line": str(tablet_line) if tablet_line is not None else "",
    }


def enumeration_from_record(record: dict[str, str]) -> EnumeratedRow:
    tn, td = parse_ratio(record["bab_tan"])
    sn, sd = parse_ratio(record["bab_sec"])
    tri = GradientTriangle(
        width=parse_int(record["width"]),
        diagonal=parse_int(record["diagonal"]),
        base=parse_int(record["base"]),
        tan_fv=Fraction(tn, 60 * td),
        sec_fv=Fraction(sn, 60 * sd),
        stretch=parse_int(record["X"]),
        shorten_divisor=parse_int(record["shorten_d"]) if record["shorten_d"] else None,
    )
    return EnumeratedRow(
        triangle=tri,
        col_i=parse_fraction(record["colI_frac"]),
        angle_deg=parse_float(record["angle_deg"]),
        col_i_places=parse_int(record["colI_places"]),
    )


def tablet_record(line: TabletLine) -> dict[str, str]:
    pre_ii = str(line.pre_shortening[0]) if line.pre_shortening else ""
    pre_iii = str(line.pre_shortening[1]) if line.pre_shortening else ""
    return {
        "row": str(line.row),
        "col0_sex": ratio_dotted(line.col0.numerator, line.col0.denominator),
        "col0_frac": fraction_text(line.col0),
        "colI_sex": ratio_dotted(line.col_i.numerator, line.col_i.denominator),
        "colI_frac": fraction_text(line.col_i),
        "colII_inscribed": str(line.col_ii_inscribed),
        "colII_corrected": str(line.col_ii_corrected),
        "colIII_inscribed": str(line.col_iii_inscribed),
        "colIII_corrected": str(line.col_iii_corrected),
        "pre_II": pre_ii,
        "pre_III": pre_iii,
        "stretch": str(line.stretch),
        "shorten_d": str(line.shorten_divisor) if line.shorten_divisor else "",
        "base": str(line.base),
    }


def to_csv(records: list[dict[str, str]], columns: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")  # DictWriter's bytes, without its per-row key check
    writer.writerow(columns)
    writer.writerows([record[c] for c in columns] for record in records)
    return buffer.getvalue()


def from_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def to_json(records: list[dict[str, str]]) -> str:
    return json.dumps(records, indent=2) + "\n"


def from_json(text: str) -> list[dict[str, str]]:
    return json.loads(text)


def to_markdown(records: list[dict[str, str]], columns: list[str]) -> str:
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for record in records:
        lines.append("| " + " | ".join(record[c] for c in columns) + " |")
    return "\n".join(lines) + "\n"


def from_markdown(text: str) -> list[dict[str, str]]:
    lines = [l for l in text.splitlines() if l.strip().startswith("|")]
    if len(lines) < 2:
        return []
    def cells(line: str) -> list[str]:
        return [c.strip() for c in line.strip().strip("|").split("|")]
    columns = cells(lines[0])
    return [dict(zip(columns, cells(line))) for line in lines[2:]]


def render(records: list[dict[str, str]], columns: list[str], fmt: str) -> str:
    if fmt == "csv":
        return to_csv(records, columns)
    if fmt == "json":
        return to_json(records)
    if fmt == "md":
        return to_markdown(records, columns)
    raise ValueError(f"unknown format {fmt!r}")


def parse_table(text: str, fmt: str) -> list[dict[str, str]]:
    if fmt == "csv":
        return from_csv(text)
    if fmt == "json":
        return from_json(text)
    if fmt == "md":
        return from_markdown(text)
    raise ValueError(f"unknown format {fmt!r}")
