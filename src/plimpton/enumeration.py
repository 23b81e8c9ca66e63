"""Exhaustive generation of the system's valid gradient triangles.

Generation walks coprime pairs (p, q) of regular integers, p > q >= 1,
taking width = p^2 - q^2, diagonal = p^2 + q^2, base = 2pq.  Because p
and q are regular the base is regular, so the function values terminate
in base 60; because the pairs are coprime no two rows share a function
value.  Pairs with p, q both odd are kept: they cover the gradients
whose primitive triple has its odd leg as the base (the tablet's line
15 is one), which opposite-parity pairs cannot reach.

The walk runs over the exponent lattice of Robson's reciprocal pair
x = p/q (tan = (x - 1/x)/2, sec = (x + 1/x)/2), not over the regulars.
Coprime regular p > q match one-to-one the triples (a, j, k) with
p/q = 2^a 3^j 5^k, positive exponents going to p and negative ones to
q, so no gcd is taken.  j and k run over the powers of 3 and 5 up to
the cap, keeping the cells whose p-part and q-part are both within it.
sec^2 < 60 holds exactly when 1 < p/q < sqrt(60) + sqrt(59) (about
15.43), and p/q = tan + sec rises with the angle, so an angle window is
a ratio window too: in log2 units it gives each cell a float interval
for a, widened by a fixed slack so rounding never drops a pair.  Each a
gives one pair, tested exactly on integers: p > q, p <= cap, sec^2 < 60
as (p^2 + q^2)^2 < 60 (2pq)^2, and the angle bounds by cross-multiplying
with the bound's numerator and denominator.

Each pair that passes becomes a row from its primitive triple (w, d, b),
the sides halved when p and q are both odd.  Column I = 3600 d^2 / b^2
has 1 + max(e2, 2 e3, 2 e5) places for b = 2^e2 3^e3 5^e5, and the cell
gives them: e3 = |j|, e5 = |k|, e2 = |a| + 1, or 0 for the both-odd a = 0.
So a places cap P bounds the walk: |j|, |k| <= (P - 1) // 2, |a| <= P - 2.
A row has X = b / gcd(b, 60) and sides (w, d, b) * 60 / gcd(b, 60).
Rows are sorted descending by column I like the tablet.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .numerics import Validated
from .reconstruction import SEC_SQUARED_LIMIT, GradientTriangle, col_i_of
from .sexagesimal import from_rational
from .tablet import load_dataset

DEFAULT_MAX_GENERATOR = 1000
DEFAULT_MAX_COL_I_PLACES = 11

TAN_LIMIT = math.sqrt(SEC_SQUARED_LIMIT - 1)  # tan at sec^2 = 60, where p/q is about 15.43
# widening of the float log2 ratio window; the exact tests decide
LOG2_SLACK = 1e-9


class EmptyInput(ValueError):
    """An operation needs at least one row."""


class _Config(NamedTuple):
    max_generator: int = DEFAULT_MAX_GENERATOR
    max_col_i_places: int = DEFAULT_MAX_COL_I_PLACES
    range_min_deg: float = 0.0
    range_max_deg: float | None = None  # None: the exact sec^2 < 60 bound
    include_degenerate: bool = False


class EnumerationConfig(Validated, _Config):
    """Caps and filters for the exhaustive table."""

    __slots__ = ()

    def _validate(self):
        if self.max_generator < 2:
            raise ValueError("max_generator must be at least 2")
        if self.max_col_i_places < 4:
            raise ValueError("max_col_i_places must be at least 4")
        hi = 90.0 if self.range_max_deg is None else self.range_max_deg
        if not 0 <= self.range_min_deg < hi <= 90:
            raise ValueError(f"angle window {self.range_min_deg}:{hi} is not inside 0 <= lo < hi <= 90")


class EnumeratedRow(NamedTuple):
    """One table row: the triangle plus its column-I bookkeeping."""

    triangle: GradientTriangle
    col_i: Fraction
    angle_deg: float
    col_i_places: int


def col_i_places_of(col_i: Fraction) -> int:
    """Digit count of the terminating column-I numeral."""
    return len(from_rational(col_i).numeral)


def _tan_bound(deg: float) -> Fraction | None:
    """Exact-comparison bound for an angle filter, None for no bound."""
    if deg <= 0:
        return None
    return Fraction(math.tan(math.radians(deg)))


def _col_i_places(e2: int, e3: int, e5: int) -> int:
    """Column-I places of a row whose reduced base is 2^e2 3^e3 5^e5."""
    return 1 + max(e2, 2 * e3, 2 * e5)


def _signed_powers(base: int, cap: int, max_e: int) -> list[tuple[float, int, int, int]]:
    """(e * log2(base), p-part, q-part, |e|) of base^e for every |e| <= max_e with base^|e| <= cap."""
    powers, n, e = [(0.0, 1, 1, 0)], base, 1
    while n <= cap and e <= max_e:
        powers += [(e * math.log2(base), n, 1, e), (-e * math.log2(base), 1, n, e)]
        n, e = n * base, e + 1
    return powers


def _pair_sides(cap: int, max_places: int, lower: Fraction | None, upper: Fraction | None) -> list[tuple]:
    """(width, diagonal, base, places) of the rows from coprime regular p > q, p <= cap, within max_places."""
    # log2(p/q) = log2(tan + sec) = asinh(tan) / ln 2 rises with the angle
    low = math.asinh(lower or 0) / math.log(2) - LOG2_SLACK
    high = math.asinh(TAN_LIMIT if upper is None else min(upper, TAN_LIMIT)) / math.log(2) + LOG2_SLACK
    max_e, max_a = (max_places - 1) // 2, max_places - 2
    fives = _signed_powers(5, cap, max_e)
    sides = []
    for shift3, p3, q3, j in _signed_powers(3, cap, max_e):
        low3, high3 = low - shift3, high - shift3
        for shift5, p5, q5, k in fives:
            # p / q = 2^a p0 / q0 inside the window, with log2(p0 / q0) = shift3 + shift5
            a, top = math.ceil(low3 - shift5), high3 - shift5
            if a > top:
                continue
            p0, q0 = p3 * p5, q3 * q5
            if p0 > cap or q0 > cap:
                continue
            for a in range(max(a, -max_a), min(math.floor(top), max_a) + 1):
                p, q = (p0 << a, q0) if a >= 0 else (p0, q0 << -a)
                if p <= q or p > cap:
                    continue
                width, diagonal, base = p * p - q * q, p * p + q * q, 2 * p * q
                if diagonal * diagonal >= SEC_SQUARED_LIMIT * base * base:
                    continue
                if lower is not None and width * lower.denominator <= lower.numerator * base:
                    continue
                if upper is not None and width * upper.denominator >= upper.numerator * base:
                    continue
                g = 1 + (p & q & 1)  # p, q both odd (a = 0): every side is even and b // 2 is odd
                sides.append((width // g, diagonal // g, base // g, _col_i_places(a and abs(a) + 1, j, k)))
    return sides


def _row(w: int, d: int, b: int, places: int) -> EnumeratedRow:
    """Row of the primitive triple (w, d, b), whose column I has the given places."""
    k = 60 // math.gcd(b, 60)
    sec_fv = Fraction(d, b)
    tri = GradientTriangle(w * k, d * k, b * k, Fraction(w, b), sec_fv, b * k // 60)
    return EnumeratedRow(tri, col_i_of(sec_fv), tri.angle_deg, places)


def generate(config: EnumerationConfig = EnumerationConfig()) -> list[EnumeratedRow]:
    """All valid rows under the config, sorted descending by column I."""
    lower = _tan_bound(config.range_min_deg)
    upper = _tan_bound(config.range_max_deg) if config.range_max_deg is not None else None
    triples = _pair_sides(config.max_generator, config.max_col_i_places, lower, upper)
    if config.include_degenerate:
        triples.append((0, 1, 1, _col_i_places(0, 0, 0)))
    rows = [_row(*t) for t in triples]
    # float rounding never reverses an order, so only float ties compare Fractions
    rows.sort(key=lambda r: (float(r.col_i), r.col_i), reverse=True)
    return rows


class GapSummary(NamedTuple):
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


class CadenceMap(NamedTuple):
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
    def key(tan: Fraction, sec: Fraction) -> tuple[int, int, int, int]:
        # integer keys: hashing a Fraction costs a modular inverse
        return tan.numerator, tan.denominator, sec.numerator, sec.denominator

    index = {key(r.triangle.tan_fv, r.triangle.sec_fv): i for i, r in enumerate(rows)}
    return [index.get(key(line.tan_fv, line.sec_fv)) for line in load_dataset().lines]
