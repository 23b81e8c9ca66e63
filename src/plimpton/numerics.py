"""Exact integer and rational helpers underneath the base-60 pipeline.

Everything here is exact: rationals are `fractions.Fraction`, square roots
are integer square roots with a re-multiplication check, and "regular"
means 5-smooth (no prime factor outside {2, 3, 5}) -- exactly the
integers whose reciprocals terminate in base 60.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple


class NotRegular(ValueError):
    """A value has a prime factor outside {2, 3, 5}."""


class NotPerfectSquare(ValueError):
    """An exact square root was requested of a non-square."""


class Validated:
    """Base for a NamedTuple subclass whose instances pass self._validate() when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    @classmethod
    def _make(cls, fields):  # NamedTuple's own, which _replace calls, skips __new__
        return cls(*fields)


class RegularFactorization(NamedTuple):
    """Exponents of 2, 3 and 5 for a regular integer."""

    e2: int
    e3: int
    e5: int

    @property
    def value(self) -> int:
        return 2**self.e2 * 3**self.e3 * 5**self.e5


def fraction_text(value: Fraction) -> str:
    """Exact "num/den" text of a rational; parse_fraction reads it back."""
    return f"{value.numerator}/{value.denominator}"


def brief(value: int | Fraction) -> str:
    """Exact text of a value up to 2^64 a side, else ~m.mme+N: error text at any size."""
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    if abs(num) < 2**64 and den < 2**64:
        return str(value)
    exponent = math.log10(abs(num)) - math.log10(den)
    mantissa, shift = f"{10 ** (exponent % 1):.2e}".split("e")  # shift is 1 when it rounds to 10
    return f"~{'-' if num < 0 else ''}{mantissa}e{math.floor(exponent) + int(shift):+d}"


def parse_int(text: str) -> int:
    """Read a non-negative integer written in ASCII digits only.

    Bare int() also takes other scripts' digits, underscores, signs and
    surrounding spaces; no number cell of the system is spelled that way.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past the digit limit, whose own message names an interpreter setting
        raise ValueError(f"expected at most {sys.get_int_max_str_digits()} ASCII digits, got {len(text)}") from None


def parse_signed_int(text: str) -> int:
    """parse_int with an optional leading minus sign."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected ASCII digits with an optional leading minus, got {text!r}")
    return sign * parse_int(digits)


def parse_float(text: str) -> float:
    """float() of ASCII text without underscores or surrounding spaces."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"expected an ASCII number, got {text!r}")
    return float(text)


def parse_ratio(text: str) -> tuple[int, int]:
    """The two integers of "num/den" text; the slash is required, even for integers."""
    num, slash, den = text.partition("/")
    if not slash:
        raise ValueError(f"expected num/den, got {text!r}")
    num, den = parse_int(num), parse_int(den)
    if den == 0:
        raise ValueError(f"expected num/den with a non-zero denominator, got {text!r}")
    return num, den


def parse_fraction(text: str) -> Fraction:
    """Read "num/den" text as a Fraction."""
    return Fraction(*parse_ratio(text))


def strip_regular(n: int) -> tuple[int, int, int, int]:
    """Divide out all factors 2, 3, 5 of n >= 1; return (e2, e3, e5, leftover)."""
    e2 = (n & -n).bit_length() - 1  # trailing zero bits
    n >>= e2
    e3 = e5 = 0
    while n % 3 == 0:
        n, e3 = n // 3, e3 + 1
    while n % 5 == 0:
        n, e5 = n // 5, e5 + 1
    return e2, e3, e5, n


def is_regular(n: int) -> bool:
    """True iff n = 2^a * 3^b * 5^c for non-negative a, b, c."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return strip_regular(n)[3] == 1


def factor_regular(n: int) -> RegularFactorization:
    """Exponent triple of a regular integer; NotRegular otherwise."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    e2, e3, e5, rest = strip_regular(n)
    if rest != 1:
        raise NotRegular(f"{n} has the non-regular factor {rest}")
    return RegularFactorization(e2, e3, e5)


def regular_numbers(limit: int) -> list[int]:
    """All regular integers <= limit, ascending."""
    out = []
    p2 = 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                out.append(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    out.sort()
    return out


def isqrt_exact(n: int) -> int:
    """Integer square root of a perfect square.

    Uses math.isqrt plus an exact re-multiplication check, so there are
    no false positives no matter how large n gets.
    """
    if n < 0:
        raise NotPerfectSquare(f"{brief(n)} is negative")
    root = math.isqrt(n)
    if root * root != n:
        raise NotPerfectSquare(f"{brief(n)} is not a perfect square")
    return root


def rational_sqrt_exact(r: Fraction) -> Fraction:
    """Exact square root of a non-negative rational with square parts.

    The result squared equals r with no tolerance; NotPerfectSquare if
    either the reduced numerator or denominator is not a square.
    """
    if r < 0:
        raise NotPerfectSquare(f"{brief(r)} is negative")
    return Fraction(isqrt_exact(r.numerator), isqrt_exact(r.denominator))


def least_integer_multiplier(values: Iterable[Fraction]) -> int:
    """Smallest positive X with X*v integral for every v.

    This is the lcm of the reduced denominators.  Denominators must be
    regular; a non-regular denominator would mean a non-terminating
    sexagesimal value, which has no place in the system.  The lcm is
    regular exactly when every denominator is.
    """
    values = list(values)
    if not values:
        raise ValueError("need at least one value")
    for v in values:
        if v < 0:
            raise ValueError(f"expected non-negative values, got {brief(v)}")
    x = math.lcm(*(v.denominator for v in values))
    if not is_regular(x):
        raise NotRegular(f"a denominator of {', '.join(map(brief, values))} is not regular")
    return x
