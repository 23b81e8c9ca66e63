"""Mechanical simulation of the tablet's scribal errors.

Each mechanism is a small total function on a digit sequence: misread a
final 5 as 2, twist two neighbouring written digits, halve the value,
merge two adjacent places, slip one place by a small amount, multiply
the un-rooted column-I remainder by the stretching factor, or shorten
by a divisor.  Chains of mechanisms applied to a line's corrected value
either reproduce the inscribed value exactly or they do not -- there is
no scoring, only exact digit equality.

classify searches all chains up to length three for a row's erratum and
reports every minimal chain that works; the competing narrative
hypotheses for line 2 are also registered by name, including the one
that fails to reproduce the inscription and the rejected direct-halving
chain.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .sexagesimal import Digits, Sexagesimal, digits_to_int, from_rational, int_to_digits, trim_digits
from .tablet import RowOutOfRange, TabletLine, load_dataset


class MechanismInapplicable(ValueError):
    """The mechanism's precondition fails on this digit sequence."""


def _misread_final_five(digits: Digits, line: TabletLine) -> Digits:
    """A final 5 taken for a 2 (both signs drawn with two verticals)."""
    if digits[-1] != 5:
        raise MechanismInapplicable("last digit is not 5")
    return digits[:-1] + (2,)


def _transpose(digits: Digits, line: TabletLine, i: int, j: int) -> Digits:
    """Swap two adjacent written decimal digits (e.g. 42 read as 24).

    Positions index the concatenated decimal rendering of the numeral
    ("6.42.2" flattens to 6422); after the swap the string is re-split
    with the original token lengths.
    """
    tokens = [str(d) for d in digits]
    flat = "".join(tokens)
    if not (1 <= i < j <= len(flat)) or j != i + 1:
        raise MechanismInapplicable(f"positions {i},{j} out of range")
    chars = list(flat)
    chars[i - 1], chars[j - 1] = chars[j - 1], chars[i - 1]
    out = []
    pos = 0
    for token in tokens:
        piece = "".join(chars[pos : pos + len(token)])
        pos += len(token)
        value = int(piece)
        if value > 59:
            raise MechanismInapplicable(f"twisted place {piece} exceeds 59")
        out.append(value)
    if tuple(out) == digits:
        raise MechanismInapplicable("swap changes nothing")
    if out[0] == 0 and len(out) > 1:
        raise MechanismInapplicable("twist would create a leading zero")
    return tuple(out)


def _halve(digits: Digits, line: TabletLine) -> Digits:
    """Halve the value in floating form (an odd value gains a place)."""
    value = digits_to_int(digits)
    if value % 2 == 0:
        return trim_digits(int_to_digits(value // 2))
    return trim_digits(int_to_digits(value * 30))


def _merge(digits: Digits, line: TabletLine, p: int) -> Digits:
    """Add two neighbouring places into one (45,14 collapsing to 59)."""
    if not 1 <= p < len(digits):
        raise MechanismInapplicable(f"no adjacent pair at {p}")
    merged = digits[p - 1] + digits[p]
    if merged > 59:
        raise MechanismInapplicable(f"merged place {merged} exceeds 59")
    return digits[: p - 1] + (merged,) + digits[p + 1 :]


def _slip(digits: Digits, line: TabletLine, p: int, delta: int) -> Digits:
    """One place written off by a small amount (8 noted as 9)."""
    if not 1 <= p <= len(digits):
        raise MechanismInapplicable(f"no place {p}")
    slipped = digits[p - 1] + delta
    if not 0 <= slipped <= 59:
        raise MechanismInapplicable(f"slipped place {slipped} out of range")
    if p == 1 and slipped == 0 and len(digits) > 1:
        raise MechanismInapplicable("slip would create a leading zero")
    return digits[: p - 1] + (slipped,) + digits[p:]


def _multiply_unrooted(digits: Digits, line: TabletLine, factor: int) -> Digits:
    """Stretch column I minus one itself, skipping the square root.

    The line-13 blunder: the scribe extended the takiltum remainder
    27.00.03.45 by the reciprocal 16 instead of rooting it first.
    Ignores the incoming digits; the input is the line's column I.
    """
    remainder = line.col_i - 3600
    if remainder <= 0:
        raise MechanismInapplicable("column I has no remainder above 1")
    return from_rational(Fraction(remainder * factor)).numeral.digits


def _shorten(digits: Digits, line: TabletLine, divisor: int) -> Digits:
    """Divide the written value by the divisor; fails unless it divides it."""
    value = digits_to_int(digits)
    if divisor < 1 or value % divisor:
        raise MechanismInapplicable(f"{divisor} does not divide {value}")
    return trim_digits(int_to_digits(value // divisor))


# kind: (apply, label); apply takes the digits, the line and then the
# mechanism's arguments, label the arguments alone
_KINDS = {
    "MisreadFinalFiveAsTwo": (_misread_final_five, "misread final 5 as 2".format),
    "TransposeDigits": (_transpose, "transpose written digits {},{}".format),
    "HalveDigits": (_halve, "halve".format),
    "MergeAdjacentDigits": (_merge, lambda p: f"merge places {p},{p + 1}"),
    "DigitSlip": (_slip, "slip place {} by {:+d}".format),
    "MultiplyValueInsteadOfRoot": (_multiply_unrooted, "multiply un-rooted column I by {}".format),
    "ShortenWithDivisor": (_shorten, "shorten by {}".format),
}


class Mechanism(NamedTuple):
    """One scribal mechanism: its kind, named after the constructor below, and its arguments.

    The kind takes part in equality, so two kinds with equal arguments
    stay apart in a set.
    """

    kind: str
    args: tuple[int, ...]

    def apply(self, digits: Digits, line: TabletLine) -> Digits:
        """The digits after the mechanism; MechanismInapplicable if it cannot act."""
        return _KINDS[self.kind][0](digits, line, *self.args)

    def label(self) -> str:
        return _KINDS[self.kind][1](*self.args)


def MisreadFinalFiveAsTwo() -> Mechanism:
    return Mechanism("MisreadFinalFiveAsTwo", ())


def TransposeDigits(i: int, j: int) -> Mechanism:
    return Mechanism("TransposeDigits", (i, j))


def HalveDigits() -> Mechanism:
    return Mechanism("HalveDigits", ())


def MergeAdjacentDigits(position: int) -> Mechanism:
    return Mechanism("MergeAdjacentDigits", (position,))


def DigitSlip(position: int, delta: int) -> Mechanism:
    return Mechanism("DigitSlip", (position, delta))


def MultiplyValueInsteadOfRoot(factor: int) -> Mechanism:
    return Mechanism("MultiplyValueInsteadOfRoot", (factor,))


def ShortenWithDivisor(divisor: int) -> Mechanism:
    return Mechanism("ShortenWithDivisor", (divisor,))


Chain = tuple[Mechanism, ...]

MAX_CHAIN_LENGTH = 3
_SLIP_DELTAS = (-2, -1, 1, 2)
_SHORTEN_DIVISORS = (2, 3, 4, 5)


def chain_label(chain: Chain) -> str:
    return " -> ".join(m.label() for m in chain)


def _start_digits(line: TabletLine, column: str) -> Digits:
    """The corrected pipeline value a chain perturbs.

    For shortened lines the scribe worked from the pre-shortening pair,
    so that is the start for columns II/III; column I starts from the
    corrected takiltum digits.
    """
    if column == "I":
        return from_rational(line.col_i).numeral.digits
    if column == "II":
        return int_to_digits(line.unshortened[0])
    if column == "III":
        return int_to_digits(line.unshortened[1])
    raise ValueError(f"unknown column {column!r}")


def simulate(row: int, chain: Chain, column: str | None = None) -> Sexagesimal:
    """Apply a mechanism chain to a row's corrected value.

    column defaults to the row's registered erratum column; pass one
    explicitly to perturb an error-free row.
    """
    dataset = load_dataset()
    line = dataset.get_line(row)
    if column is None:
        errata = dataset.errata_for(row)
        if not errata:
            raise MechanismInapplicable(f"row {row} has no erratum; pass a column to perturb")
        column = errata[0].column
    digits = _start_digits(line, column)
    for mechanism in chain:
        digits = mechanism.apply(digits, line)
    return Sexagesimal(digits)


def refute(row: int, chain: Chain, column: str | None = None) -> bool:
    """True iff the chain does NOT reproduce the inscribed value."""
    dataset = load_dataset()
    errata = dataset.errata_for(row)
    if not errata:
        raise MechanismInapplicable(f"row {row} has no erratum to refute against")
    target = errata[0].inscribed
    try:
        return simulate(row, chain, column) != target
    except MechanismInapplicable:
        return True


def _candidate_mechanisms(places: int, flat_len: int, line: TabletLine) -> list[Mechanism]:
    """Every mechanism to try on digits with this many places and written digits."""
    out: list[Mechanism] = [MisreadFinalFiveAsTwo(), HalveDigits()]
    out.extend(TransposeDigits(i, i + 1) for i in range(1, flat_len))
    out.extend(MergeAdjacentDigits(p) for p in range(1, places))
    out.extend(
        DigitSlip(p, delta)
        for p in range(1, places + 1)
        for delta in _SLIP_DELTAS
    )
    # the factor a scribe would reach for: the reciprocal of the common
    # factor visible in the un-rooted column-I remainder itself
    remainder = line.col_i - 3600
    if 0 < remainder and remainder.denominator > 1:
        out.append(MultiplyValueInsteadOfRoot(remainder.denominator))
    out.extend(ShortenWithDivisor(d) for d in _SHORTEN_DIVISORS)
    return out


class NamedHypothesis(NamedTuple):
    """A narrative chain registered for a row, with its outcome."""

    label: str
    chain: Chain
    reproduces: bool
    rejected: bool = False  # registered specifically as a ruled-out path


class ErrorReport(NamedTuple):
    """Everything known about one row's inscribed-vs-corrected gap."""

    row: int
    column: str | None
    inscribed: Sexagesimal | None
    corrected: Sexagesimal | None
    explanations: tuple[Chain, ...]
    hypotheses: tuple[NamedHypothesis, ...]
    unexplained: bool


# Narrative hypotheses per row: (label, chain, rejected).  Line 2's
# three-way reading comes with the chain the analysis rules out; the
# double-misread variant lands on 3.22.1, which matches the alternate
# reading of the inscription, not the printed one.
_NAMED_HYPOTHESES: dict[int, tuple[tuple[str, Chain, bool], ...]] = {
    2: (
        ("misread, twist, then halve",
         (MisreadFinalFiveAsTwo(), TransposeDigits(2, 3), HalveDigits()), False),
        ("misread, halve, then twist while writing",
         (MisreadFinalFiveAsTwo(), HalveDigits(), TransposeDigits(2, 3)), False),
        ("double misread, then halve",
         (DigitSlip(2, 2), MisreadFinalFiveAsTwo(), HalveDigits()), False),
        ("direct halving of the unabridged value",
         (HalveDigits(),), True),
    ),
    8: (("adjacent places merged while copying", (MergeAdjacentDigits(4),), False),),
    9: (("first place slipped by one", (DigitSlip(1, 1),), False),),
    13: (("stretched the un-rooted value", (MultiplyValueInsteadOfRoot(16),), False),),
    15: (("diagonal shortened by 4 against the width's 2", (ShortenWithDivisor(4),), False),),
}


def named_hypotheses(row: int) -> tuple[NamedHypothesis, ...]:
    """The registered narrative chains for a row, evaluated exactly."""
    return tuple(
        NamedHypothesis(label, chain, not refute(row, chain), rejected)
        for label, chain, rejected in _NAMED_HYPOTHESES.get(row, ())
    )


def classify(row: int) -> ErrorReport:
    """Search chains of length <= 3 that map corrected to inscribed.

    Only chains of the minimal working length are reported (longer ones
    always exist by padding with mutually cancelling slips).  Rows
    without errata come back empty and explained.
    """
    dataset = load_dataset()
    if not 1 <= row <= len(dataset.lines):
        raise RowOutOfRange(f"row {row} outside 1..{len(dataset.lines)}")
    errata = dataset.errata_for(row)
    if not errata:
        return ErrorReport(row, None, None, None, (), (), unexplained=False)
    erratum = errata[0]
    line = dataset.get_line(row)
    start = _start_digits(line, erratum.column)
    target = erratum.inscribed.digits

    frontier: list[tuple[Digits, Chain]] = [(start, ())]
    found: list[Chain] = []
    candidates: dict[tuple[int, int], list[Mechanism]] = {}
    for _ in range(MAX_CHAIN_LENGTH):
        next_frontier = []
        for digits, chain in frontier:
            shape = (len(digits), sum(len(str(d)) for d in digits))
            if shape not in candidates:
                candidates[shape] = _candidate_mechanisms(*shape, line)
            for mechanism in candidates[shape]:
                try:
                    result = mechanism.apply(digits, line)
                except MechanismInapplicable:
                    continue
                new_chain = chain + (mechanism,)
                if result == target:
                    found.append(new_chain)
                next_frontier.append((result, new_chain))
        if found:
            break
        frontier = next_frontier
    explanations = tuple(sorted(set(found), key=chain_label))
    return ErrorReport(
        row=row,
        column=erratum.column,
        inscribed=erratum.inscribed,
        corrected=erratum.corrected,
        explanations=explanations,
        hypotheses=named_hypotheses(row),
        unexplained=not explanations,
    )
