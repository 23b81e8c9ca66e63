"""Base-60 numerals with floating place value.

A bare `Sexagesimal` is just a digit sequence: like the cuneiform
originals it carries no radix point, so it stands for a whole family of
values differing by powers of 60.  `AnchoredSexagesimal` pins the
leading digit to a weight 60**exponent, which makes the value unique.

Text form is dotted notation ("1.59.00.15").  Canonical formatting
leaves the leading digit bare and zero-pads the rest to two characters;
a strict mode pads everything for machine output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import factor_regular, is_regular

Digits = tuple[int, ...]


class ParseError(ValueError):
    """Malformed dotted-sexagesimal text."""


class NonTerminating(ValueError):
    """The value has no terminating base-60 expansion."""


def int_to_digits(n: int) -> Digits:
    """Base-60 digits of a non-negative integer, most significant first."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    digits = []
    while n:
        n, d = divmod(n, 60)
        digits.append(d)
    return tuple(reversed(digits)) or (0,)


def digits_to_int(digits: Digits) -> int:
    """Integer value of a digit sequence, last digit at weight 60^0."""
    value = 0
    for d in digits:
        value = value * 60 + d
    return value


def trim_digits(digits: Digits) -> Digits:
    """Floating form: drop trailing zero places, keeping at least one digit."""
    end = len(digits)
    while end > 1 and digits[end - 1] == 0:
        end -= 1
    return digits[:end]


@dataclass(frozen=True)
class Sexagesimal:
    """A base-60 digit sequence, most significant digit first."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if not self.digits:
            raise ParseError("a numeral needs at least one digit")
        if any(not 0 <= d <= 59 for d in self.digits):
            raise ParseError(f"digit out of range in {self.digits}")
        if self.digits[0] == 0 and len(self.digits) > 1:
            raise ParseError("leading zero digit (only the zero numeral starts with 0)")

    @classmethod
    def from_int(cls, n: int) -> "Sexagesimal":
        """Digits of a non-negative integer, last digit at weight 60^0."""
        return cls(int_to_digits(n))

    def to_int(self) -> int:
        """Integer value with the last digit at weight 60^0."""
        return digits_to_int(self.digits)

    def formatted(self, strict: bool = False) -> str:
        """Dotted text; strict pads every digit to two characters."""
        if strict:
            return ".".join(f"{d:02d}" for d in self.digits)
        head, *tail = self.digits
        return ".".join([str(head)] + [f"{d:02d}" for d in tail])

    def __str__(self) -> str:
        return self.formatted()

    def __len__(self) -> int:
        return len(self.digits)


@dataclass(frozen=True)
class AnchoredSexagesimal:
    """A numeral whose leading digit sits at weight 60**exponent."""

    numeral: Sexagesimal
    exponent: int

    @property
    def value(self) -> Fraction:
        return to_rational(self)

    def formatted(self, strict: bool = False) -> str:
        return self.numeral.formatted(strict)

    def __str__(self) -> str:
        return f"{self.numeral} @60^{self.exponent}"


def parse(text: str) -> Sexagesimal:
    """Parse dotted-sexagesimal text such as "1.59.00.15"."""
    if not text:
        raise ParseError("empty input")
    tokens = text.split(".")
    digits = []
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ParseError(f"non-numeric token {token!r} in {text!r}")
        value = int(token)
        if value > 59:
            raise ParseError(f"token {token!r} exceeds 59 in {text!r}")
        digits.append(value)
    return Sexagesimal(tuple(digits))


def to_rational(anchored: AnchoredSexagesimal) -> Fraction:
    """Exact value: sum of digit_i * 60^(exponent - i)."""
    digits = anchored.numeral.digits
    return digits_to_int(digits) * Fraction(60) ** (anchored.exponent - len(digits) + 1)


def from_rational(r: Fraction) -> AnchoredSexagesimal:
    """Anchored numeral of a non-negative rational with regular denominator.

    Trailing zero digits are trimmed, so the round trip through
    to_rational is exact and the representation is canonical.
    """
    r = Fraction(r)
    if r < 0:
        raise ValueError(f"negative values are not representable: {r}")
    if r == 0:
        return AnchoredSexagesimal(Sexagesimal((0,)), 0)
    if not is_regular(r.denominator):
        raise NonTerminating(f"denominator of {r} is not regular")
    f = factor_regular(r.denominator)
    frac_places = max((f.e2 + 1) // 2, f.e3, f.e5)
    scaled = r.numerator * 60**frac_places // r.denominator
    digits = int_to_digits(scaled)
    exponent = len(digits) - 1 - frac_places
    return AnchoredSexagesimal(Sexagesimal(trim_digits(digits)), exponent)


def reciprocal(numeral: Sexagesimal, exponent: int) -> AnchoredSexagesimal:
    """Anchored reciprocal: the product with the input is exactly 1.

    Only regular values have one (a non-regular numerator would make the
    reciprocal non-terminating).
    """
    v = to_rational(AnchoredSexagesimal(numeral, exponent))
    if v <= 0:
        raise ValueError("reciprocal needs a positive value")
    if not is_regular(v.numerator):
        raise NonTerminating(f"{numeral} has a non-regular reciprocal")
    return from_rational(1 / v)
