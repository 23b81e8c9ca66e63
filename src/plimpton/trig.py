"""Between gradient triangles and modern function values.

The tablet works with the diagonal (secant) and width (tangent) of a
triangle on a unit base of 60.  This module converts integer triples to
exact function-value sets, checks the circle identities that hold on
them, and covers the two special cases worth keeping around: the root-2
coefficient of the YBC 7289 square and the 45-degree row the tablet
never recorded.

Angles in degrees are derived floats for reporting only; every identity
is stated on exact rationals (sin = tan/sec and cos = 1/sec as exact
pairs).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .numerics import brief
from .sexagesimal import AnchoredSexagesimal, Sexagesimal, from_rational, parse, to_rational


class NotPythagorean(ValueError):
    """width^2 + base^2 != diagonal^2."""


def gradient_angle_deg(rise: int, run: int) -> float:
    """Every reported angle: atan2 of the sides, in degrees.

    Sides beyond float range are first cut down alike by a power of two.
    """
    excess = max(rise.bit_length(), run.bit_length()) - 1000
    if excess > 0:
        rise, run = rise >> excess, run >> excess
    return math.degrees(math.atan2(rise, run))


class FunctionValueSet(NamedTuple):
    """Exact function values of one gradient, plus the reported angle."""

    tan_fv: Fraction
    sec_fv: Fraction

    @property
    def bab_tan(self) -> Fraction:
        return 60 * self.tan_fv

    @property
    def bab_sec(self) -> Fraction:
        return 60 * self.sec_fv

    @property
    def arrow_p(self) -> Fraction:
        return (self.sec_fv - 1) / 2

    @property
    def exsec(self) -> Fraction:
        return self.sec_fv - 1

    @property
    def sine(self) -> Fraction:
        return self.tan_fv / self.sec_fv

    @property
    def cosine(self) -> Fraction:
        return 1 / self.sec_fv

    @property
    def angle_deg(self) -> float:
        return gradient_angle_deg(self.tan_fv.numerator, self.tan_fv.denominator)


def from_function_values(tan_fv: Fraction, sec_fv: Fraction) -> FunctionValueSet:
    fv = FunctionValueSet(Fraction(tan_fv), Fraction(sec_fv))
    if fv.sec_fv**2 - fv.tan_fv**2 != 1:
        raise NotPythagorean(f"sec^2 - tan^2 != 1 for {brief(tan_fv)}, {brief(sec_fv)}")
    return fv


def from_triple(width: int, diagonal: int, base: int) -> FunctionValueSet:
    """Function values of an integer triangle; scale-invariant."""
    if base <= 0:
        raise ValueError(f"base must be positive, got {brief(base)}")
    if width**2 + base**2 != diagonal**2:
        raise NotPythagorean(f"({brief(width)}, {brief(diagonal)}, {brief(base)}) is not a right triangle")
    return FunctionValueSet(Fraction(width, base), Fraction(diagonal, base))


def sine_ratio(width: int, diagonal: int) -> Fraction:
    """width/diagonal in lowest terms, the modern sine of the gradient."""
    if not 0 < width < diagonal:
        raise ValueError(f"need 0 < width < diagonal, got {width}, {diagonal}")
    return Fraction(width, diagonal)


def cos_arrow_identity_check(fv: FunctionValueSet) -> bool:
    """(1 + 2p) * cos = 1, exactly: the arrow splits the diameter."""
    return (1 + fv.exsec) * fv.cosine == 1


def double_angle_check(fv: FunctionValueSet, tol: float = 1e-12) -> bool:
    """sin(2a) = 2 sin(a) cos(a), evaluated in floating point.

    The right side uses the exact rational sin and cos; the left side
    the library sine of the doubled angle.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    angle = math.radians(fv.angle_deg)
    return abs(math.sin(2 * angle) - float(2 * fv.sine * fv.cosine)) < tol


def approx_diagonal(base: Fraction, width: Fraction) -> Fraction:
    """The rough old approximation: base + width^2 / (2 * base)."""
    base = Fraction(base)
    width = Fraction(width)
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    return base + width**2 / (2 * base)


ROOT2_COEFFICIENT = "1.24.51.10"  # the classic root-2 approximation
YBC7289_DIAGONAL = "42.25.35"
YBC7289_SIDE = 30


def ybc7289_check(coefficient_text: str = ROOT2_COEFFICIENT) -> bool:
    """Side 30 times the root-2 coefficient gives the inscribed diagonal.

    The identity 30 x 1;24,51,10 = 42;25,35 is exact at matched anchors
    (and therefore at any anchor pair shifted together -- a bare numeral
    carries no fixed power of 60).  The approximation lives in the
    coefficient, not in this arithmetic.
    """
    coefficient = to_rational(AnchoredSexagesimal(parse(coefficient_text), 0))
    diagonal = to_rational(AnchoredSexagesimal(parse(YBC7289_DIAGONAL), 1))
    return YBC7289_SIDE * (60 * coefficient) == diagonal


def ybc7289_exsec_extraction() -> AnchoredSexagesimal:
    """Strip the base from the diagonal and undo the stretching.

    42;25,35 minus the side 30 leaves the stretched exsecant 12;25,35;
    dividing by 30 anchors the doubled arrow 24.51.10 below unity.
    """
    diagonal = to_rational(AnchoredSexagesimal(parse(YBC7289_DIAGONAL), 0))
    return from_rational((diagonal - YBC7289_SIDE) / YBC7289_SIDE)


def forty_five_degree_row() -> tuple[Sexagesimal, int, Sexagesimal]:
    """The 45-degree row the tablet never recorded, built exactly.

    Column I is the squared root-2 coefficient; with width 6 the
    diagonal is 6 times the coefficient.  Both products terminate, so
    the digits are exact even though the coefficient itself is an
    approximation of root 2.
    """
    coefficient = to_rational(AnchoredSexagesimal(parse(ROOT2_COEFFICIENT), 0))
    col_i = from_rational(coefficient**2)
    width = 6
    diagonal = from_rational(width * coefficient)
    return col_i.numeral, width, diagonal.numeral
