"""Base-60 numerals with floating place value.

A bare `Sexagesimal` is just a digit sequence: like the cuneiform
originals it carries no radix point, so it stands for a whole family of
values differing by powers of 60.  `AnchoredSexagesimal` pins the
leading digit to a weight 60**exponent, which makes the value unique.

Text form is dotted notation ("1.59.00.15").  Canonical formatting
leaves the leading digit bare and zero-pads the rest to two characters;
a strict mode pads everything for machine output.  ratio_digits and
dotted are the one codec: from_rational and Sexagesimal.formatted go
through them, and ratio_dotted, which the table records use, writes the
same text from the same scaled integer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .numerics import NotRegular, Validated, factor_regular

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
    digits.reverse()
    return tuple(digits) or (0,)


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


def ratio_digits(num: int, den: int) -> tuple[Digits, int]:
    """Trimmed base-60 digits of num/den >= 0 and the exponent of the first digit.

    den must be regular (NonTerminating otherwise); num/den need not be
    reduced.  Digits come out 0..59 by construction.
    """
    if num == 0:
        return (0,), 0
    scaled, frac_places = ratio_scaled(num, den)
    digits = int_to_digits(scaled)
    return trim_digits(digits), len(digits) - 1 - frac_places


def ratio_scaled(num: int, den: int) -> tuple[int, int]:
    """(num/den * 60^f, f) for the fewest places f after the point that num/den needs."""
    try:
        f = factor_regular(den)
    except NotRegular as exc:
        raise NonTerminating(f"denominator of {num}/{den} is not regular") from exc
    frac_places = max((f.e2 + 1) // 2, f.e3, f.e5)
    return num * 60**frac_places // den, frac_places


_DOT_DIGIT = tuple(f".{d:02d}" for d in range(60))
_DOT_PAIR = tuple([a + b for a in _DOT_DIGIT for b in _DOT_DIGIT])  # ".hh.ll" of n < 3600, by concatenation


def dotted(digits: Digits, strict: bool = False) -> str:
    """Dotted text of digits 0..59; strict pads every digit to two characters."""
    if strict:
        return "".join([_DOT_DIGIT[d] for d in digits])[1:]
    return str(digits[0]) + "".join([_DOT_DIGIT[d] for d in digits[1:]])


def ratio_dotted(num: int, den: int) -> str:
    """dotted(ratio_digits(num, den)[0]), written two places per divmod without the digit tuple."""
    if num == 0:
        return "0"
    n, pairs = ratio_scaled(num, den)[0], []
    while not n % 60:  # trailing zero places
        n //= 60
    while n >= 3600:
        n, low = divmod(n, 3600)
        pairs.append(_DOT_PAIR[low])
    pairs.append(_DOT_PAIR[n].lstrip(".0"))  # the leading digit bare
    return "".join(reversed(pairs))


class Sexagesimal(Validated, NamedTuple("Sexagesimal", [("digits", Digits)])):
    """A base-60 digit sequence, most significant digit first."""

    __slots__ = ()

    def _validate(self):
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

    def formatted(self, strict: bool = False) -> str:
        """Dotted text; strict pads every digit to two characters."""
        return dotted(self.digits, strict)

    def __str__(self) -> str:
        return self.formatted()

    def __len__(self) -> int:
        return len(self.digits)


class AnchoredSexagesimal(NamedTuple):
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


def _quoted(text: str) -> str:
    """repr of text, cut to its head and length past 40 characters: error text at any size."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def parse(text: str) -> Sexagesimal:
    """Parse dotted-sexagesimal text such as "1.59.00.15"; a digit may carry leading zeros."""
    if not text:
        raise ParseError("empty input")
    digits = []
    for token in text.split("."):
        if not (token.isascii() and token.isdigit()):
            raise ParseError(f"non-numeric token {_quoted(token)} in {_quoted(text)}")
        # int() sees at most two significant figures: past its length limit its error names a setting
        significant = token.lstrip("0") or "0"
        if len(significant) > 2 or int(significant) > 59:
            raise ParseError(f"token {_quoted(token)} exceeds 59 in {_quoted(text)}")
        digits.append(int(significant))
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
    digits, exponent = ratio_digits(r.numerator, r.denominator)
    return AnchoredSexagesimal(Sexagesimal(digits), exponent)


def reciprocal(numeral: Sexagesimal, exponent: int) -> AnchoredSexagesimal:
    """Anchored reciprocal: the product with the input is exactly 1.

    Only regular values have one: the reduced denominator of 1/v is v's
    numerator, so from_rational raises NonTerminating for the others.
    """
    v = to_rational(AnchoredSexagesimal(numeral, exponent))
    if v <= 0:
        raise ValueError("reciprocal needs a positive value")
    return from_rational(1 / v)
