"""Exhaustive generation of the system's valid gradient triangles.

Generation walks coprime pairs (p, q) of regular integers, p > q >= 1,
taking width = p^2 - q^2, diagonal = p^2 + q^2, base = 2pq.  Because p
and q are regular the base is regular, so the function values terminate
in base 60; because the pairs are coprime no two rows share a function
value.  Pairs with p, q both odd are kept: they cover the gradients
whose primitive triple has its odd leg as the base (the tablet's line
15 is one), which opposite-parity pairs cannot reach.

Rows are filtered to the definition range (sec^2 < 60, checked exactly)
and to a cap on the digit count of column I, then sorted descending by
column I like the tablet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numerics import regular_numbers
from .reconstruction import SEC_SQUARED_LIMIT, GradientTriangle, stretch_to_integers
from .sexagesimal import from_rational
from .tablet import load_dataset

DEFAULT_MAX_GENERATOR = 1000
DEFAULT_MAX_COL_I_PLACES = 11


class EmptyInput(ValueError):
    """An operation needs at least one row."""


@dataclass(frozen=True)
class EnumerationConfig:
    """Caps and filters for the exhaustive table."""

    max_generator: int = DEFAULT_MAX_GENERATOR
    max_col_i_places: int = DEFAULT_MAX_COL_I_PLACES
    range_min_deg: float = 0.0
    range_max_deg: float | None = None  # None: the exact sec^2 < 60 bound
    include_degenerate: bool = False

    def __post_init__(self):
        if self.max_generator < 2:
            raise ValueError("max_generator must be at least 2")
        if self.max_col_i_places < 4:
            raise ValueError("max_col_i_places must be at least 4")
        hi = 90.0 if self.range_max_deg is None else self.range_max_deg
        if not 0 <= self.range_min_deg < hi <= 90:
            raise ValueError(f"angle window {self.range_min_deg}:{hi} is not inside 0 <= lo < hi <= 90")


@dataclass(frozen=True)
class EnumeratedRow:
    """One table row: the triangle plus its column-I bookkeeping."""

    triangle: GradientTriangle
    col_i: Fraction
    angle_deg: float
    col_i_places: int


def col_i_of(sec_fv: Fraction) -> Fraction:
    """The takiltum at the 60^2 power: (60 * sec)^2."""
    return (60 * Fraction(sec_fv)) ** 2


def col_i_places_of(col_i: Fraction) -> int:
    """Digit count of the terminating column-I numeral."""
    return len(from_rational(col_i).numeral)


def _tan_bound(deg: float) -> Fraction | None:
    """Exact-comparison bound for an angle filter, None for no bound."""
    if deg <= 0:
        return None
    return Fraction(math.tan(math.radians(deg)))


def generate(config: EnumerationConfig = EnumerationConfig()) -> list[EnumeratedRow]:
    """All valid rows under the config, sorted descending by column I."""
    regs = regular_numbers(config.max_generator)
    lower = _tan_bound(config.range_min_deg)
    upper = _tan_bound(config.range_max_deg) if config.range_max_deg is not None else None
    rows = []
    for i, q in enumerate(regs):
        for p in regs[i + 1 :]:
            if math.gcd(p, q) != 1:
                continue
            tan_fv = Fraction(p * p - q * q, 2 * p * q)
            sec_fv = Fraction(p * p + q * q, 2 * p * q)
            if sec_fv * sec_fv >= SEC_SQUARED_LIMIT:
                continue
            if lower is not None and tan_fv <= lower:
                continue
            if upper is not None and tan_fv >= upper:
                continue
            col_i = col_i_of(sec_fv)
            places = col_i_places_of(col_i)
            if places > config.max_col_i_places:
                continue
            tri = stretch_to_integers(tan_fv, sec_fv)
            rows.append(
                EnumeratedRow(tri, col_i, tri.angle_deg, places)
            )
    if config.include_degenerate:
        flat = GradientTriangle(0, 60, 60, Fraction(0), Fraction(1), 1)
        rows.append(EnumeratedRow(flat, Fraction(3600), 0.0, col_i_places_of(Fraction(3600))))
    rows.sort(key=lambda r: r.col_i, reverse=True)
    return rows


@dataclass(frozen=True)
class GapSummary:
    """Spacing statistics over consecutive rows, in arc-minutes."""

    count: int
    mean_arcmin: float
    max_arcmin: float
    tablet_span_mean_arcmin: float | None
    tablet_span_count: int


def gap_analysis(
    rows: list[EnumeratedRow],
) -> tuple[list[tuple[EnumeratedRow, EnumeratedRow, float]], GapSummary]:
    """Consecutive angle differences, with mean/max and the tablet-span mean.

    Rows must already be in table order (descending column I).  The
    tablet-span figures restrict to rows whose column I lies within the
    tablet's first..last range.
    """
    if not rows:
        raise EmptyInput("gap analysis needs at least one row")
    gaps = [
        (a, b, (a.angle_deg - b.angle_deg) * 60) for a, b in zip(rows, rows[1:])
    ]
    dataset = load_dataset()
    hi = dataset.lines[0].col_i
    lo = dataset.lines[-1].col_i
    span = [r for r in rows if lo <= r.col_i <= hi]
    span_gaps = [
        (a.angle_deg - b.angle_deg) * 60 for a, b in zip(span, span[1:])
    ]
    summary = GapSummary(
        count=len(gaps),
        mean_arcmin=sum(g for _, _, g in gaps) / len(gaps) if gaps else 0.0,
        max_arcmin=max((g for _, _, g in gaps), default=0.0),
        tablet_span_mean_arcmin=(sum(span_gaps) / len(span_gaps)) if span_gaps else None,
        tablet_span_count=len(span),
    )
    return gaps, summary


@dataclass(frozen=True)
class CadenceMap:
    """Rows against a steady observation clock."""

    entries: tuple[tuple[int, float], ...]  # (row position, elapsed seconds)
    seconds_per_step: float

    @property
    def total_seconds(self) -> float:
        return self.entries[-1][1] if self.entries else 0.0


def cadence_map(count: int, seconds_per_step: float) -> CadenceMap:
    """Elapsed time k * seconds_per_step for the k-th of count rows."""
    if count < 1:
        raise EmptyInput("cadence needs at least one row")
    if not 0 < seconds_per_step < math.inf:
        raise ValueError(f"seconds_per_step must be positive and finite, got {seconds_per_step}")
    entries = tuple((k + 1, k * seconds_per_step) for k in range(count))
    return CadenceMap(entries, seconds_per_step)


def tablet_positions(rows: list[EnumeratedRow]) -> list[int | None]:
    """Index of each tablet line's gradient inside an enumeration."""
    dataset = load_dataset()
    pairs = [(r.triangle.tan_fv, r.triangle.sec_fv) for r in rows]
    index = {pair: i for i, pair in enumerate(pairs)}
    return [index.get((line.tan_fv, line.sec_fv)) for line in dataset.lines]
