"""The embedded Plimpton 322 dataset.

The dataset ships as a human-auditable text file (data/plimpton322.txt)
holding the tablet as transliterated: per line the row, the
reconstructed column 0 and the inscribed columns I, II and III, plus
the erratum registry and the alternate-reading annotations.  Every
other field of a TabletLine (corrected columns, stretch, shortening
divisor, pre-shortening pair, base) is derived by one pipeline run from
column 0.  Loading verifies a checksum and that the evidence agrees
with the derivation; any defect in the file is a DatasetCorrupt.

The file path can be overridden with the PLIMPTON322_DATASET
environment variable or an explicit argument to load_dataset.
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .numerics import Validated, parse_int
from .reconstruction import ArrowValue, NotDivisible, reconstruct_line, shorten
from .sexagesimal import AnchoredSexagesimal, Sexagesimal, digits_to_int, parse, to_rational

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


class TabletLine(NamedTuple):
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


class _Erratum(NamedTuple):
    row: int
    column: str  # "I", "II" or "III"
    inscribed: Sexagesimal
    corrected: Sexagesimal
    mechanism: str


class ErratumRecord(Validated, _Erratum):
    """An inscribed-vs-corrected discrepancy and its mechanism label."""

    __slots__ = ()

    def _validate(self):
        if self.inscribed == self.corrected:
            raise DatasetCorrupt(f"erratum row {self.row} has no discrepancy")
        if self.mechanism not in ERRATUM_MECHANISMS:
            raise DatasetCorrupt(f"unknown mechanism {self.mechanism!r}")


class TabletDataset(NamedTuple):
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


def _registry(errata: list[ErratumRecord]) -> dict[tuple[int, str], ErratumRecord]:
    """The five erratum records keyed by (row, column); any other set is a DatasetCorrupt."""
    by_cell = {(e.row, e.column): e for e in errata}
    if by_cell.keys() != {(2, "III"), (8, "I"), (9, "II"), (13, "II"), (15, "III")} or len(errata) != 5:
        raise DatasetCorrupt(f"erratum registry mismatch: {sorted(by_cell)}")
    return by_cell


def _derive_line(cells: list[str], by_cell: dict[tuple[int, str], ErratumRecord]) -> TabletLine:
    """A full line from row | col0 | I | II | III, the errata and one pipeline run."""
    if len(cells) != 5:
        raise DatasetCorrupt(f"line record has {len(cells)} cells, expected 5")
    row = parse_int(cells[0])
    inscribed = dict(zip(("I", "II", "III"), map(parse, cells[2:])))
    corrected = dict(inscribed)
    for column, numeral in inscribed.items():
        erratum = by_cell.get((row, column))
        if erratum is not None:
            if erratum.inscribed != numeral:
                raise DatasetCorrupt(f"row {row}: column {column} erratum does not match the line")
            corrected[column] = erratum.corrected
    col0 = to_rational(AnchoredSexagesimal(parse(cells[1]), 0))
    col_i = to_rational(AnchoredSexagesimal(corrected["I"], 2))
    if (col0 + 60) ** 2 != col_i:
        raise DatasetCorrupt(f"row {row}: column 0 does not square to column I")
    ii, iii = (digits_to_int(corrected[c].digits) for c in ("II", "III"))
    tri = reconstruct_line(ArrowValue(col0))
    if ii == 0 or tri.width % ii:
        raise DatasetCorrupt(f"row {row}: column II does not divide the width {tri.width}")
    try:
        short = shorten(tri, tri.width // ii)
    except NotDivisible as exc:
        raise DatasetCorrupt(f"row {row}: {exc}") from exc
    if short.diagonal != iii:
        raise DatasetCorrupt(f"row {row}: the diagonal {tri.diagonal} does not divide down to column III")
    return TabletLine(
        row=row,
        col0=col0,
        col_i=col_i,
        col_ii_inscribed=digits_to_int(inscribed["II"].digits),
        col_ii_corrected=ii,
        col_iii_inscribed=digits_to_int(inscribed["III"].digits),
        col_iii_corrected=iii,
        pre_shortening=(tri.width, tri.diagonal) if short.shorten_divisor else None,
        stretch=tri.stretch,
        shorten_divisor=short.shorten_divisor,
        base=short.base,
    )


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
    records: list[list[str]] = []
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
            records.append(stripped.split("|"))
        elif section == "[errata]":
            fields = stripped.split("|")
            if len(fields) != 5:
                raise DatasetCorrupt(f"erratum record has {len(fields)} fields")
            row, column, inscribed, corrected, mechanism = fields
            errata.append(ErratumRecord(parse_int(row), column, parse(inscribed), parse(corrected), mechanism))
        elif section == "[annotations]":
            key, _, value = stripped.partition("=")
            annotations[key] = value
        else:
            raise DatasetCorrupt(f"record outside any section: {stripped!r}")

    by_cell = _registry(errata)
    lines = tuple(_derive_line(cells, by_cell) for cells in records)
    if [line.row for line in lines] != list(range(1, 16)):
        raise DatasetCorrupt("line rows are not 1..15 in order")
    if any(a.col_i <= b.col_i for a, b in zip(lines, lines[1:])):
        raise DatasetCorrupt("column I values are not strictly descending")
    for key in ("line2_alternate_reading_col_iii", "line15_alternate_triple"):
        if key not in annotations:
            raise DatasetCorrupt(f"annotation {key} missing")
    return TabletDataset(lines, tuple(errata), annotations)


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
