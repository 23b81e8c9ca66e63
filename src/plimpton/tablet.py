"""The embedded Plimpton 322 dataset.

The dataset ships as a human-auditable text file (data/plimpton322.txt)
holding all fifteen lines with inscribed and corrected values, the
pre-shortening pairs, the erratum registry and the alternate-reading
annotations.  Loading verifies a checksum, every mirror and every
cross-column invariant; any defect in the file is a DatasetCorrupt.

The file path can be overridden with the PLIMPTON322_DATASET
environment variable or an explicit argument to load_dataset.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .numerics import parse_fraction
from .sexagesimal import AnchoredSexagesimal, Sexagesimal, from_rational, parse

DATASET_ENV_VAR = "PLIMPTON322_DATASET"

ERRATUM_MECHANISMS = (
    "misread_5_as_2_then_transposed_halving",
    "digit_merge_adjacent",
    "digit_slip_plus_one",
    "multiplied_value_instead_of_root",
    "inconsistent_shortening",
)


class DatasetCorrupt(ValueError):
    """The dataset file failed its checksum or an invariant."""


class RowOutOfRange(ValueError):
    """Tablet rows are numbered 1 through 15."""


@dataclass(frozen=True)
class TabletLine:
    """One tablet line: reconstructed column 0 through column III.

    col0 is the doubled arrow value at the tablet's x60 scale; col_i is
    the takiltum carried at the 60^2 power, so col_i = 3600 * sec^2.
    Inscribed values are what the scribe wrote; corrected values are the
    arithmetically consistent ones.
    """

    row: int
    col0: Fraction
    col_i: Fraction
    col_ii_inscribed: int
    col_ii_corrected: int
    col_iii_inscribed: int
    col_iii_corrected: int
    pre_shortening: tuple[int, int] | None
    stretch: int
    shorten_divisor: int | None
    base: int

    @property
    def unshortened(self) -> tuple[int, int]:
        """Columns II and III before any shortening (width, diagonal)."""
        return self.pre_shortening or (self.col_ii_corrected, self.col_iii_corrected)

    @property
    def tan_fv(self) -> Fraction:
        """Exact tangent of the line's gradient (width / unit base)."""
        return Fraction(self.unshortened[0], 60 * self.stretch)

    @property
    def sec_fv(self) -> Fraction:
        """Exact secant of the line's gradient (diagonal / unit base)."""
        return Fraction(self.unshortened[1], 60 * self.stretch)

    @property
    def col0_sexagesimal(self) -> AnchoredSexagesimal:
        return from_rational(self.col0)

    @property
    def col_i_sexagesimal(self) -> AnchoredSexagesimal:
        return from_rational(self.col_i)


@dataclass(frozen=True)
class ErratumRecord:
    """An inscribed-vs-corrected discrepancy and its mechanism label."""

    row: int
    column: str  # "I", "II" or "III"
    inscribed: Sexagesimal
    corrected: Sexagesimal
    mechanism: str

    def __post_init__(self):
        if self.inscribed == self.corrected:
            raise DatasetCorrupt(f"erratum row {self.row} has no discrepancy")
        if self.mechanism not in ERRATUM_MECHANISMS:
            raise DatasetCorrupt(f"unknown mechanism {self.mechanism!r}")


@dataclass(frozen=True)
class TabletDataset:
    """All fifteen lines plus the erratum registry and annotations."""

    lines: tuple[TabletLine, ...]
    errata: tuple[ErratumRecord, ...]
    annotations: dict[str, str]

    def get_line(self, row: int) -> TabletLine:
        if not 1 <= row <= len(self.lines):
            raise RowOutOfRange(f"row {row} outside 1..{len(self.lines)}")
        return self.lines[row - 1]

    def errata_for(self, row: int) -> tuple[ErratumRecord, ...]:
        self.get_line(row)  # the same 1..15 bounds check
        return tuple(e for e in self.errata if e.row == row)


def _mirrored(
    row: str, mirror: str, text: str, parse_value: Callable[[str], Fraction | int]
) -> Fraction | int | None:
    """A value cell checked against its dotted-sexagesimal mirror; None when both are "-"."""
    if mirror == text == "-":
        return None
    value = parse_value(text)
    if parse(mirror) != from_rational(value).numeral:
        raise DatasetCorrupt(f"row {row}: mirror {mirror!r} does not match {value}")
    return value


def _parse_line_record(fields: list[str]) -> TabletLine:
    if len(fields) != 20:
        raise DatasetCorrupt(f"line record has {len(fields)} fields, expected 20")
    row, stretch, shorten_d, base = fields[0], fields[17], fields[18], fields[19]
    cells = [
        _mirrored(row, fields[k], fields[k + 1], parse_fraction if k < 5 else int)
        for k in range(1, 17, 2)
    ]
    col0, col_i, ii_ins, ii_cor, iii_ins, iii_cor, pre_ii, pre_iii = cells
    if None in cells[:6]:
        raise DatasetCorrupt(f"row {row}: a required cell is '-'")
    if not (pre_ii is None) == (pre_iii is None) == (shorten_d == "-"):
        raise DatasetCorrupt(f"row {row}: pre-shortening pair and divisor not all present or all absent")
    return TabletLine(
        row=int(row),
        col0=col0,
        col_i=col_i,
        col_ii_inscribed=ii_ins,
        col_ii_corrected=ii_cor,
        col_iii_inscribed=iii_ins,
        col_iii_corrected=iii_cor,
        pre_shortening=None if pre_ii is None else (pre_ii, pre_iii),
        stretch=int(stretch),
        shorten_divisor=None if shorten_d == "-" else int(shorten_d),
        base=int(base),
    )


def _verify_line(line: TabletLine) -> None:
    r = line.row
    # Pythagorean closure on the corrected triple
    if line.col_ii_corrected**2 + line.base**2 != line.col_iii_corrected**2:
        raise DatasetCorrupt(f"row {r}: corrected triple is not Pythagorean")
    # takiltum is the squared stretched secant at the 60^2 power
    if line.col_i != Fraction(line.unshortened[1], line.stretch) ** 2:
        raise DatasetCorrupt(f"row {r}: column I is not the squared diagonal")
    # column 0 feeds column I by add-60-and-square
    if (line.col0 + 60) ** 2 != line.col_i:
        raise DatasetCorrupt(f"row {r}: column 0 does not square to column I")
    if line.pre_shortening is not None:
        pre_ii, pre_iii = line.pre_shortening
        d = line.shorten_divisor
        if pre_ii != line.col_ii_corrected * d or pre_iii != line.col_iii_corrected * d:
            raise DatasetCorrupt(f"row {r}: shortening divisor inconsistent")
        if pre_ii**2 + (60 * line.stretch) ** 2 != pre_iii**2:
            raise DatasetCorrupt(f"row {r}: pre-shortening triple is not Pythagorean")
        if line.base * d != 60 * line.stretch:
            raise DatasetCorrupt(f"row {r}: base inconsistent with shortening")
    elif line.base != 60 * line.stretch:
        raise DatasetCorrupt(f"row {r}: base is not 60 * stretch")


def _verify_dataset(dataset: TabletDataset) -> None:
    if [line.row for line in dataset.lines] != list(range(1, 16)):
        raise DatasetCorrupt("line rows are not 1..15 in order")
    col_i_values = [line.col_i for line in dataset.lines]
    if any(a <= b for a, b in zip(col_i_values, col_i_values[1:])):
        raise DatasetCorrupt("column I values are not strictly descending")
    expected = {(2, "III"), (8, "I"), (9, "II"), (13, "II"), (15, "III")}
    by_cell = {(e.row, e.column): e for e in dataset.errata}
    if by_cell.keys() != expected or len(dataset.errata) != 5:
        raise DatasetCorrupt(f"erratum registry mismatch: {sorted(by_cell)}")
    for line in dataset.lines:
        columns = {
            "I": (None, line.col_i),
            "II": (line.col_ii_inscribed, line.col_ii_corrected),
            "III": (line.col_iii_inscribed, line.col_iii_corrected),
        }
        for column, (inscribed, corrected) in columns.items():
            erratum = by_cell.get((line.row, column))
            if erratum is None:
                if inscribed not in (None, corrected):
                    raise DatasetCorrupt(f"row {line.row}: column {column} miswritten with no erratum")
            elif erratum.corrected != from_rational(corrected).numeral or (
                inscribed is not None and erratum.inscribed != from_rational(inscribed).numeral
            ):
                raise DatasetCorrupt(f"row {line.row}: column {column} erratum does not match the line")
    for key in ("line2_alternate_reading_col_iii", "line15_alternate_triple"):
        if key not in dataset.annotations:
            raise DatasetCorrupt(f"annotation {key} missing")


def _read_text(path: str | None) -> str:
    if path is not None:
        return Path(path).read_text(encoding="utf-8")
    return resources.files("plimpton").joinpath("data/plimpton322.txt").read_text("utf-8")


def _parse_dataset(text: str) -> TabletDataset:
    _, marker, signed = text.partition("\n# sha256=")
    if not marker:
        raise DatasetCorrupt("checksum header missing")
    stated, _, body = signed.partition("\n")
    stated = stated.strip()
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != stated:
        raise DatasetCorrupt(f"checksum mismatch: {digest} != {stated}")

    section = None
    tablet_lines: list[TabletLine] = []
    errata: list[ErratumRecord] = []
    annotations: dict[str, str] = {}
    for raw in body.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            section = stripped
            continue
        if section == "[lines]":
            tablet_lines.append(_parse_line_record(stripped.split("|")))
        elif section == "[errata]":
            fields = stripped.split("|")
            if len(fields) != 5:
                raise DatasetCorrupt(f"erratum record has {len(fields)} fields")
            errata.append(
                ErratumRecord(
                    row=int(fields[0]),
                    column=fields[1],
                    inscribed=parse(fields[2]),
                    corrected=parse(fields[3]),
                    mechanism=fields[4],
                )
            )
        elif section == "[annotations]":
            key, _, value = stripped.partition("=")
            annotations[key] = value
        else:
            raise DatasetCorrupt(f"record outside any section: {stripped!r}")

    dataset = TabletDataset(tuple(tablet_lines), tuple(errata), annotations)
    for line in dataset.lines:
        _verify_line(line)
    _verify_dataset(dataset)
    return dataset


@lru_cache(maxsize=4)
def _load_cached(path: str | None) -> TabletDataset:
    """The loader's one error boundary: any malformed cell is a DatasetCorrupt."""
    try:
        return _parse_dataset(_read_text(path))
    except DatasetCorrupt:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise DatasetCorrupt(f"malformed dataset: {exc}") from exc


def load_dataset(path: str | os.PathLike | None = None) -> TabletDataset:
    """Load and self-verify the dataset (cached per path).

    Resolution order: explicit path, then the PLIMPTON322_DATASET
    environment variable, then the packaged file.
    """
    if path is None:
        path = os.environ.get(DATASET_ENV_VAR) or None
    return _load_cached(os.fspath(path) if path is not None else None)


def get_line(row: int) -> TabletLine:
    """Convenience accessor on the default dataset."""
    return load_dataset().get_line(row)
