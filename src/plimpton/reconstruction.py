"""The diagonal-calculation pipeline: column 0 to a full tablet line.

The stages mirror the tablet's columns.  A doubled arrow value (column
0) plus 60, squared, gives the takiltum (column I, carried at the 60^2
power).  Square roots of column I minus one and of column I directly
give the exact tangent and secant function values; the least integer
stretching factor X turns them into the integer width and diagonal of
columns II and III with base 60*X; an optional common divisor shortens
the triple afterwards.

Everything is exact rationals.  Floating point appears only in the
reported angle, never in the pipeline itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .numerics import Validated, brief, least_integer_multiplier, rational_sqrt_exact
from .sexagesimal import AnchoredSexagesimal, to_rational
from .trig import gradient_angle_deg

SEC_SQUARED_LIMIT = 60  # definition range: sec^2 < 60

# The usual quoted boundary is a touch below the exact one because the
# steepest realizable row sits at ~82.55 degrees; see definition_range_report.
QUOTED_BOUNDARY_DEG = 82.55


class OutOfDefinitionRange(ValueError):
    """Gradient outside the range where the column-I heading works."""


class NotDivisible(ValueError):
    """A shortening divisor that does not divide every side."""


class InconsistentTriangle(ValueError):
    """A gradient triangle whose sides and function values disagree."""


class ArrowValue(Validated, NamedTuple("ArrowValue", [("two_p", Fraction)])):
    """The doubled arrow (exsecant) at the tablet's x60 scale."""

    __slots__ = ()

    def _validate(self):
        if self.two_p < 0:
            raise ValueError(f"arrow value must be non-negative, got {self.two_p}")

    @property
    def sec_fv(self) -> Fraction:
        return 1 + Fraction(self.two_p) / 60


class GradientTriangle(NamedTuple):
    """An integer gradient triangle with its exact function values."""

    width: int
    diagonal: int
    base: int
    tan_fv: Fraction
    sec_fv: Fraction
    stretch: int
    shorten_divisor: int | None = None

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.width, self.diagonal, self.base)

    @property
    def angle_deg(self) -> float:
        """Modern angle in degrees; reporting only, never fed back in."""
        return gradient_angle_deg(self.width, self.base)

    def check(self) -> None:
        """Raise InconsistentTriangle unless every structural invariant holds exactly."""
        d = self.shorten_divisor or 1
        if not (
            self.width**2 + self.base**2 == self.diagonal**2
            and self.sec_fv**2 - self.tan_fv**2 == 1
            and self.width * d == 60 * self.tan_fv * self.stretch
            and self.diagonal * d == 60 * self.sec_fv * self.stretch
            and self.base * d == 60 * self.stretch
        ):
            raise InconsistentTriangle(f"{self} breaks a structural invariant")


def in_definition_range(arrow: ArrowValue) -> bool:
    """Exact predicate sec^2 < 60 on the arrow's implied secant."""
    return arrow.sec_fv**2 < SEC_SQUARED_LIMIT


def col_i_of(sec_fv: Fraction) -> Fraction:
    """The takiltum at the 60^2 power: (60 * sec)^2."""
    return Fraction((60 * sec_fv.numerator) ** 2, sec_fv.denominator**2)


def col0_to_col_i(arrow: ArrowValue) -> Fraction:
    """Add 60 to the doubled arrow and square: the takiltum at 60^2."""
    if not in_definition_range(arrow):
        raise OutOfDefinitionRange(f"sec^2 = {brief(arrow.sec_fv**2)} is not below {SEC_SQUARED_LIMIT}")
    return col_i_of(arrow.sec_fv)


def col_i_to_function_values(col_i: Fraction) -> tuple[Fraction, Fraction]:
    """Square roots of column I minus one and of column I directly.

    Returns (tan_fv, sec_fv) with sec^2 - tan^2 = 1 exactly.  Raises
    NotPerfectSquare for a malformed takiltum and OutOfDefinitionRange
    beyond sec^2 >= 60.
    """
    col_i = Fraction(col_i)
    sec_squared = col_i / 3600
    if sec_squared < 1:
        raise ValueError(f"column I below the flat triangle: {col_i}")
    if sec_squared >= SEC_SQUARED_LIMIT:
        raise OutOfDefinitionRange(f"sec^2 = {sec_squared} is not below 60")
    sec_fv = rational_sqrt_exact(sec_squared)
    tan_fv = rational_sqrt_exact(sec_squared - 1)
    return tan_fv, sec_fv


def stretch_to_integers(tan_fv: Fraction, sec_fv: Fraction) -> GradientTriangle:
    """Scale the function values to the least integer triple.

    X is the least integer making 60*tan and 60*sec integral (the
    reciprocal of their common fractional factor); the sides come out as
    width = 60*tan*X, diagonal = 60*sec*X, base = 60*X.
    """
    bab_tan = 60 * Fraction(tan_fv)
    bab_sec = 60 * Fraction(sec_fv)
    x = least_integer_multiplier([bab_tan, bab_sec])
    return GradientTriangle(
        width=int(bab_tan * x),
        diagonal=int(bab_sec * x),
        base=60 * x,
        tan_fv=Fraction(tan_fv),
        sec_fv=Fraction(sec_fv),
        stretch=x,
    )


def shorten(tri: GradientTriangle, d: int) -> GradientTriangle:
    """Divide width, diagonal and base by a common divisor d.

    NotDivisible is exactly the line-15 failure mode.  Function values
    are untouched.
    """
    if d < 1:
        raise ValueError(f"divisor must be positive, got {d}")
    if tri.width % d or tri.diagonal % d or tri.base % d:
        raise NotDivisible(f"{d} does not divide all of {tri.triple}")
    return tri._replace(
        width=tri.width // d,
        diagonal=tri.diagonal // d,
        base=tri.base // d,
        shorten_divisor=d * (tri.shorten_divisor or 1) if d > 1 else tri.shorten_divisor,
    )


def max_valid_divisor(tri: GradientTriangle) -> int:
    """Largest common divisor keeping the shortened base at >= 60."""
    g = math.gcd(tri.width, tri.diagonal)
    best = 1
    for d in range(1, g + 1):
        if g % d == 0 and tri.base // d >= 60 and tri.base % d == 0:
            best = max(best, d)
    return best


def reconstruct_line(
    arrow: ArrowValue, shorten_by: int | str | None = None
) -> GradientTriangle:
    """Full pipeline from a column-0 arrow value to a gradient triangle.

    shorten_by: None leaves the stretched triple alone; an integer
    applies that historical divisor; "max" applies the largest divisor
    that keeps the base at or above 60, when one exists.
    """
    tri = stretch_to_integers(*col_i_to_function_values(col0_to_col_i(arrow)))
    if shorten_by == "max":
        shorten_by = max_valid_divisor(tri)
    return tri if shorten_by is None else shorten(tri, int(shorten_by))


def last_digit(n: int) -> int:
    """Last base-60 digit of a non-negative integer."""
    return n % 60


def digit_rule_allows(d: int, width: int, diagonal: int) -> bool:
    """The last-place shortening rules, taken at face value.

    By 2 or 4: both last base-60 digits even.  By 5 (or a multiple of
    5): both last digits at 5 or full tens, i.e. divisible by 5.  By 3:
    both last digits ending on 3 or 7 -- stated that way historically
    even though it does not coincide with base-60 divisibility by 3;
    digit_rule_agrees_with_divisibility exposes the mismatch.
    """
    w, c = last_digit(width), last_digit(diagonal)
    if d in (2, 4):
        return w % 2 == 0 and c % 2 == 0
    if d % 5 == 0:
        return w % 5 == 0 and c % 5 == 0
    if d == 3:
        return w % 10 in (3, 7) and c % 10 in (3, 7)
    raise ValueError(f"no digit rule stated for divisor {d}")


def digit_rule_agrees_with_divisibility(d: int, width: int, diagonal: int) -> bool:
    """True when the digit rule and plain divisibility give one verdict."""
    divisible = width % d == 0 and diagonal % d == 0
    if d == 4:
        # necessary-condition view: divisibility implies the rule
        return not divisible or digit_rule_allows(d, width, diagonal)
    return digit_rule_allows(d, width, diagonal) == divisible


def definition_range_report() -> dict:
    """The range boundary, exact and in degrees, with the quoted figure.

    The exact predicate is sec^2 < 60; in degrees that is
    arccos(1/sqrt(60)) ~= 82.58.  The commonly quoted ~82.55 matches the
    steepest realizable row rather than the analytic bound; the delta is
    reported, not hidden.
    """
    exact_deg = math.degrees(math.acos(1 / math.sqrt(60)))
    return {
        "predicate": "sec^2 < 60",
        "boundary_deg": exact_deg,
        "quoted_boundary_deg": QUOTED_BOUNDARY_DEG,
        "delta_deg": exact_deg - QUOTED_BOUNDARY_DEG,
    }


class LineCheck(NamedTuple):
    """Recomputation result for one tablet line."""

    row: int
    mismatches: tuple[tuple[str, str, str], ...]  # (column, computed, expected)

    @property
    def passed(self) -> bool:
        return not self.mismatches


class VerificationReport(NamedTuple):
    """Per-line pass/fail for the whole tablet."""

    checks: tuple[LineCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_rows(self) -> tuple[int, ...]:
        return tuple(c.row for c in self.checks if not c.passed)


def _expected_values(dataset, line, use_inscribed: bool) -> tuple[Fraction, int, int]:
    col_i = line.col_i
    if use_inscribed:
        for erratum in dataset.errata_for(line.row):
            if erratum.column == "I":
                col_i = to_rational(AnchoredSexagesimal(erratum.inscribed, 2))
        return col_i, line.col_ii_inscribed, line.col_iii_inscribed
    return col_i, line.col_ii_corrected, line.col_iii_corrected


def verify_line(dataset, line, use_inscribed: bool = False) -> LineCheck:
    """Recompute columns I-III of a tablet line from column 0 in one pipeline run and compare.

    dataset is a tablet.TabletDataset and line one of its lines.
    """
    expected_i, expected_ii, expected_iii = _expected_values(dataset, line, use_inscribed)
    tri = reconstruct_line(ArrowValue(line.col0), line.shorten_divisor)
    compared = (
        ("I", col_i_of(tri.sec_fv), expected_i),
        ("II", tri.width, expected_ii),
        ("III", tri.diagonal, expected_iii),
    )
    return LineCheck(
        line.row, tuple((col, str(got), str(want)) for col, got, want in compared if got != want)
    )


def verify_all(dataset, use_inscribed: bool = False, rows: list[int] | None = None) -> VerificationReport:
    """Golden-test driver: recompute every requested line and compare."""
    selected = dataset.lines if rows is None else [dataset.get_line(r) for r in rows]
    return VerificationReport(
        tuple(verify_line(dataset, line, use_inscribed) for line in selected)
    )
