"""The references every timed output is checked against.

None of this imports plimpton.  Enumeration references come from
scripts/oracle_counts.py, loaded standalone from its file; tablet values
are the published corrected triples, frozen here; the scribal
mechanisms have a small model of their own; CLI output is parsed with
the standard csv and json modules and a local Markdown reader.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

FROZEN_DEFAULT_DIGEST = "0c52cf06297e4c98f718c452c013b24a4113ceac5792fb86ae8f60fadaf10bb8"
DEFAULT_CAPS = (1000, 11)  # the CLI's default generator and places caps

# Corrected (col II, col III, base) of the 15 lines, and the pre-shortening
# (II, III) pairs of the three shortened lines.
TABLET = (
    (119, 169, 120), (3367, 4825, 3456), (4601, 6649, 4800), (12709, 18541, 13500),
    (65, 97, 72), (319, 481, 360), (2291, 3541, 2700), (799, 1249, 960),
    (481, 769, 600), (4961, 8161, 6480), (45, 75, 60), (1679, 2929, 2400),
    (161, 289, 240), (1771, 3229, 2700), (56, 106, 90),
)
PRE_SHORTENING = {2: (16835, 24125), 5: (325, 485), 15: (112, 212)}
ERRATA = {  # row: (column, inscribed)
    2: ("III", "3.12.01"), 8: ("I", "1.41.33.59.03.45"), 9: ("II", "9.01"),
    13: ("II", "7.12.01"), 15: ("III", "53"),
}
ERRATUM_ROWS = tuple(ERRATA)
CANONICAL_CHAINS = {
    8: ["merge places 4,5"],
    9: ["slip place 1 by +1"],
    13: ["multiply un-rooted column I by 16"],
    15: ["shorten by 4"],
}
LINE2_REQUIRED_CHAINS = (
    "misread final 5 as 2 -> transpose written digits 2,3 -> halve",
    "misread final 5 as 2 -> halve -> transpose written digits 2,3",
)
HYPOTHESES = {  # (label, reproduces, rejected)
    2: [("misread, twist, then halve", True, False),
        ("misread, halve, then twist while writing", True, False),
        ("double misread, then halve", False, False),
        ("direct halving of the unabridged value", False, True)],
    8: [("adjacent places merged while copying", True, False)],
    9: [("first place slipped by one", True, False)],
    13: [("stretched the un-rooted value", True, False)],
    15: [("diagonal shortened by 4 against the width's 2", True, False)],
}


def load_oracle(root: Path):
    """scripts/oracle_counts.py as a module of its own, never via the package."""
    path = root / "scripts" / "oracle_counts.py"
    spec = importlib.util.spec_from_file_location("plimpton_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- base 60 -----------------------------------------------------------------

def int_digits(n: int) -> tuple[int, ...]:
    digits = []
    while n:
        n, d = divmod(n, 60)
        digits.append(d)
    return tuple(reversed(digits)) or (0,)


def trim(digits) -> tuple[int, ...]:
    digits = list(digits)
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def sexagesimal(value: Fraction) -> tuple[tuple[int, ...], int]:
    """Trimmed digits of a positive regular rational and its leading digit's power of 60."""
    places = 0
    while (value * 60**places).denominator != 1:
        places += 1
        if places > 500:
            raise ValueError(f"{value} does not terminate in base 60")
    digits = int_digits(int(value * 60**places))
    return trim(digits), len(digits) - 1 - places


def dotted(digits) -> str:
    return ".".join([str(digits[0])] + [f"{d:02d}" for d in digits[1:]])


def parse_dotted(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split("."))


# --- the scribal mechanisms --------------------------------------------------

class Inapplicable(Exception):
    """The model's counterpart of scribal.MechanismInapplicable."""


def col_i(row: int) -> Fraction:
    _, diagonal, base = TABLET[row - 1]
    return (60 * Fraction(diagonal, base)) ** 2


def _start(row: int, column: str) -> tuple[int, ...]:
    if column == "I":
        return sexagesimal(col_i(row))[0]
    width, diagonal, _ = TABLET[row - 1]
    width, diagonal = PRE_SHORTENING.get(row, (width, diagonal))
    return int_digits(width if column == "II" else diagonal)


def _value(digits) -> int:
    out = 0
    for d in digits:
        out = out * 60 + d
    return out


def _apply(mechanism: list, digits: tuple, row: int) -> tuple:
    name, *args = mechanism
    if name == "MisreadFinalFiveAsTwo":
        if digits[-1] != 5:
            raise Inapplicable
        return digits[:-1] + (2,)
    if name == "HalveDigits":
        value = _value(digits)
        return trim(int_digits(value // 2 if value % 2 == 0 else value * 30))
    if name == "TransposeDigits":
        i, j = args
        tokens = [str(d) for d in digits]
        chars = list("".join(tokens))
        if not (1 <= i < j <= len(chars)) or j != i + 1:
            raise Inapplicable
        chars[i - 1], chars[j - 1] = chars[j - 1], chars[i - 1]
        out, pos = [], 0
        for token in tokens:
            value = int("".join(chars[pos:pos + len(token)]))
            pos += len(token)
            if value > 59:
                raise Inapplicable
            out.append(value)
        if tuple(out) == digits or (out[0] == 0 and len(out) > 1):
            raise Inapplicable
        return tuple(out)
    if name == "MergeAdjacentDigits":
        (p,) = args
        if not 1 <= p < len(digits) or digits[p - 1] + digits[p] > 59:
            raise Inapplicable
        return digits[:p - 1] + (digits[p - 1] + digits[p],) + digits[p + 1:]
    if name == "DigitSlip":
        p, delta = args
        if not 1 <= p <= len(digits):
            raise Inapplicable
        slipped = digits[p - 1] + delta
        if not 0 <= slipped <= 59 or (p == 1 and slipped == 0 and len(digits) > 1):
            raise Inapplicable
        return digits[:p - 1] + (slipped,) + digits[p:]
    if name == "MultiplyValueInsteadOfRoot":
        remainder = col_i(row) - 3600
        if remainder <= 0:
            raise Inapplicable
        return sexagesimal(remainder * args[0])[0]
    if name == "ShortenWithDivisor":
        value = _value(digits)
        if args[0] < 1 or value % args[0]:
            raise Inapplicable
        return trim(int_digits(value // args[0]))
    raise ValueError(f"unknown mechanism {name!r}")


def _simulate(row: int, chain: list, column: str):
    digits = _start(row, column)
    try:
        for mechanism in chain:
            digits = _apply(mechanism, digits, row)
    except Inapplicable:
        return None
    if digits[0] == 0 and len(digits) > 1:
        raise ValueError("not a valid numeral")
    return list(digits)


def scribal_model_outcome(item: dict):
    """Expected simulate digits (None: a mechanism did not apply) and refute verdict.

    Returns None for a chain that would end on an invalid numeral.
    """
    try:
        simulated = _simulate(item["row"], item["chain"], item["column"])
        column, inscribed = ERRATA[item["erratum_row"]]
        against = _simulate(item["erratum_row"], item["chain"], column)
    except ValueError:
        return None
    return {"simulate": simulated, "refute": against != list(parse_dotted(inscribed))}


def check_error_report(row: int, report: dict) -> str | None:
    """report: {"column", "explanations", "hypotheses": [[label, reproduces, rejected]], "unexplained"}."""
    hypotheses = [tuple(h) for h in report["hypotheses"]]
    if row not in ERRATA:
        if report["explanations"] or hypotheses or report["unexplained"]:
            return f"row {row} has no erratum but reports one"
        return None
    if report["unexplained"]:
        return f"row {row} unexplained"
    if report.get("column", ERRATA[row][0]) != ERRATA[row][0]:
        return f"row {row}: column {report['column']}"
    chains = report["explanations"]
    if row == 2:
        if not set(LINE2_REQUIRED_CHAINS) <= set(chains) or any(c.count(" -> ") != 2 for c in chains):
            return f"row 2 chains {chains}"
    elif chains != CANONICAL_CHAINS[row]:
        return f"row {row} chains {chains}"
    if hypotheses != HYPOTHESES[row]:
        return f"row {row} hypotheses {hypotheses}"
    return None


def check_scribal(op: dict, out: dict) -> str | None:
    """One scribal-search op: classify of all 15 rows, then the chain batch."""
    rows = [row for row, _ in out["reports"]]
    if rows != op["rows"]:
        return f"classify answered rows {rows}"
    for row, report in out["reports"]:
        problem = check_error_report(row, report)
        if problem:
            return problem
    for item, simulated, verdict in zip(op["chains"], out["simulate"], out["refute"], strict=True):
        want = scribal_model_outcome(item)
        if simulated != want["simulate"] or verdict != want["refute"]:
            return (f"chain {item['chain']} on row {item['row']}: simulate {simulated}, "
                    f"refute {verdict}; the model gives {want}")
    return None


# --- enumeration -------------------------------------------------------------

def canonical_rows_digest(rows) -> str:
    """rows: (width, diagonal, base, col_i, places) tuples in table order."""
    text = "\n".join(f"{w},{d},{b},{c.numerator}/{c.denominator},{p}" for w, d, b, c, p in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def triple_digest(triples) -> str:
    return hashlib.sha256("\n".join(f"{w},{d},{b}" for w, d, b in triples).encode()).hexdigest()


class Enumerations:
    """Oracle rows at the largest cap a run uses; every smaller cap is a filter of them."""

    def __init__(self, oracle, max_generator: int, max_places: int):
        self.oracle = oracle
        self.rows = oracle.enumerate_rows(max_generator, max_places)
        self.span = (oracle.TABLET_PAIRS[-1][1] ** 2 * 3600, oracle.TABLET_PAIRS[0][1] ** 2 * 3600)

    def select(self, cap: int, places: int, lo_deg: float, hi_deg):
        # the same exact bounds generate() derives from the window
        lower = Fraction(math.tan(math.radians(lo_deg))) if lo_deg > 0 else None
        upper = Fraction(math.tan(math.radians(hi_deg))) if hi_deg is not None else None
        return [
            r for r in self.rows
            if r["p"] <= cap and r["places"] <= places
            and (lower is None or r["tan"] > lower) and (upper is None or r["tan"] < upper)
        ]

    def expected(self, cap: int, places: int, lo_deg: float, hi_deg) -> dict:
        rows = self.select(cap, places, lo_deg, hi_deg)
        pairs = {(r["tan"], r["sec"]): i for i, r in enumerate(rows)}
        angles = [r["angle_deg"] for r in rows]
        gaps = [(a - b) * 60 for a, b in zip(angles, angles[1:])]
        lo, hi = self.span
        in_span = [r["angle_deg"] for r in rows if lo <= r["col_i"] <= hi]
        span_gaps = [(a - b) * 60 for a, b in zip(in_span, in_span[1:])]
        return {
            "digest": canonical_rows_digest(
                (r["width"], r["diagonal"], r["base"], r["col_i"], r["places"]) for r in rows),
            "rows": len(rows),
            "positions": [pairs.get(t) for t in self.oracle.TABLET_PAIRS],
            "gaps": None if not rows else [
                len(gaps), sum(gaps) / len(gaps) if gaps else 0.0, max(gaps, default=0.0),
                len(in_span), sum(span_gaps) / len(span_gaps) if span_gaps else None],
        }


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_enumeration(out: dict, want: dict) -> str | None:
    """out: the worker's digest, positions, gap summary and round-trip verdict for one op."""
    if out["digest"] != want["digest"]:
        return f"rows differ from the oracle ({out['rows']} rows, oracle {want['rows']})"
    if out["positions"] != want["positions"]:
        return f"tablet positions {out['positions']} != {want['positions']}"
    got, ref = out["gaps"], want["gaps"]
    if got is None or ref is None:
        same = got is ref
    else:  # counts exact; means and maximum up to float rounding of the angles
        same = got[0] == ref[0] and got[3] == ref[3] and all(close(got[i], ref[i]) for i in (1, 2, 4))
    if not same:
        return f"gap summary {got} != {ref}"
    if not out["round_trip"]:
        return f"{out['fmt']} render -> parse changed the rows"
    return None


# --- the CLI -----------------------------------------------------------------

def max_shortening(width: int, diagonal: int, base: int) -> int:
    """Largest common divisor of the triple that keeps the base at 60 or more."""
    g = math.gcd(width, diagonal, base)
    return max(d for d in range(1, g + 1) if g % d == 0 and base // d >= 60)


def _parse_table(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    if fmt == "md":
        lines = [line.strip() for line in text.splitlines() if line.startswith("|")]
        cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines]
        return [dict(zip(cells[0], row)) for row in cells[2:]]
    return list(csv.DictReader(io.StringIO(text)))


def _key_values(text: str, fmt: str) -> dict:
    if fmt == "json":
        (record,) = json.loads(text)
        return record
    pairs = (line.partition(" ") for line in text.splitlines() if line.strip())
    return {key: value.strip() for key, _, value in pairs}


class CliReference:
    """argv for each planned CLI op and the check of what it printed."""

    def __init__(self, oracle):
        table = Enumerations(oracle, *DEFAULT_CAPS)
        self.rows = table.rows
        if triple_digest((r["width"], r["diagonal"], r["base"]) for r in self.rows) != FROZEN_DEFAULT_DIGEST:
            raise ValueError("the oracle no longer gives the frozen default-cap digest")
        pairs = {(r["tan"], r["sec"]): i for i, r in enumerate(self.rows)}
        self.marks = {pairs[t]: line for line, t in enumerate(oracle.TABLET_PAIRS, start=1)}
        for (w, d, b), (tan, sec) in zip(TABLET, oracle.TABLET_PAIRS):
            if w * w + b * b != d * d or (Fraction(w, b), Fraction(d, b)) != (tan, sec):
                raise ValueError("frozen tablet triples disagree with the oracle")
        self.gaps = table.expected(*DEFAULT_CAPS, 0.0, None)["gaps"]

    def argv(self, op: dict) -> list[str]:
        cmd = op["cmd"]
        args = ["--format", op["fmt"], cmd]
        if cmd == "verify":
            args += ["--use-inscribed"] * op["inscribed"]
            args += ["--line", str(op["line"])] if op["line"] else []
        elif cmd == "reconstruct":
            row = self.rows[op["row"]]
            digits, power = sexagesimal(60 * (row["sec"] - 1))
            args += [dotted(digits), f"--anchor={power}"] + ["--shorten", "max"] * op["shorten"]
        elif cmd == "convert":
            row = self.rows[op["row"]]
            args += ["triple", str(row["width"]), str(row["diagonal"]), str(row["base"])]
        elif cmd == "errors":
            args += [str(op["row"])] if op["row"] else []
        elif cmd == "enumerate":
            args += ["--mark-tablet", "--gaps"] * op["mark"]
        elif cmd == "cadence" and op["steps"]:
            args += ["--steps", str(op["steps"]), "--seconds", str(op["seconds"])]
        return args

    def check(self, op: dict, returncode: int, out: str) -> str | None:
        try:
            return getattr(self, "_check_" + op["cmd"])(op, returncode, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable {op['cmd']} output: {exc!r}"

    def _check_verify(self, op, returncode, out):
        rows = [op["line"]] if op["line"] else list(range(1, 16))
        flagged = [r for r in rows if op["inscribed"] and r in ERRATA]
        if returncode != (1 if flagged else 0):
            return f"exit code {returncode}"
        if op["fmt"] == "text":
            got = [int(m.group(1)) for m in re.finditer(r"^line\s+(\d+): ", out, re.M)]
            bad = [int(m.group(1)) for m in re.finditer(r"^line\s+(\d+): MISMATCH", out, re.M)]
            tally = f"{len(rows) - len(bad)}/{len(rows)} lines reproduced"
            if got != rows or bad != flagged or tally not in out:
                return f"verify text lines {got}, mismatches {bad}"
            return None
        records = _parse_table(out, op["fmt"])
        if [int(r["row"]) for r in records] != rows:
            return "verify rows differ"
        for r in records:
            row = int(r["row"])
            triple = (int(r["colII_corrected"]), int(r["colIII_corrected"]), int(r["base"]))
            if triple != TABLET[row - 1]:
                return f"line {row} triple {triple}"
            if r["status"] != ("mismatch" if row in flagged else "ok"):
                return f"line {row} status {r['status']}"
        return None

    def _check_reconstruct(self, op, returncode, out):
        row = self.rows[op["row"]]
        triple = (row["width"], row["diagonal"], row["base"])
        d = max_shortening(*triple) if op["shorten"] else 1
        record = _key_values(out, "json" if op["fmt"] == "json" else "text")
        got = (int(record["colII"]), int(record["colIII"]), int(record["base"]))
        if returncode or got != tuple(v // d for v in triple):
            return f"reconstruct gave {got} for {triple} shortened by {d}"
        if record["col0"] != self.argv(op)[3]:
            return f"col0 echoed as {record['col0']}"
        return None

    def _check_convert(self, op, returncode, out):
        row = self.rows[op["row"]]
        record = _key_values(out, "json" if op["fmt"] == "json" else "text")
        got = (int(record["width"]), int(record["diagonal"]), int(record["base"]))
        if returncode or got != (row["width"], row["diagonal"], row["base"]):
            return f"convert gave {got}"
        return None

    def _check_errors(self, op, returncode, out):
        rows = [op["row"]] if op["row"] else list(ERRATUM_ROWS)
        reports = errors_from_json(out) if op["fmt"] == "json" else errors_from_text(out)
        if returncode or list(reports) != rows:
            return f"errors listed rows {list(reports)}"
        for row, report in reports.items():
            problem = check_error_report(row, report)
            if problem:
                return problem
        return None

    def _check_enumerate(self, op, returncode, out):
        body, _, trailer = out.partition("# gaps:")
        records = _parse_table(body, "csv" if op["fmt"] == "text" else op["fmt"])
        triples = [(int(r["width"]), int(r["diagonal"]), int(r["base"])) for r in records]
        if returncode or triple_digest(triples) != FROZEN_DEFAULT_DIGEST:
            return "default-cap table differs from the frozen oracle digest"
        for r, want in zip(records, self.rows):
            if r["colI_frac"] != f"{want['col_i'].numerator}/{want['col_i'].denominator}" \
                    or int(r["colI_places"]) != want["places"]:
                return f"row {r['row']} column I differs from the oracle"
        marks = {i: int(r["tablet_line"]) for i, r in enumerate(records) if r["tablet_line"]}
        if marks != (self.marks if op["mark"] else {}):
            return f"tablet marks {marks}"
        if op["mark"]:
            fields = dict(kv.split("=") for kv in trailer.split())
            count, mean, biggest, span_rows, span_mean = self.gaps
            counts_ok = int(fields["count"]) == count and int(fields["tablet_span_rows"]) == span_rows
            means = (("mean_arcmin", mean), ("max_arcmin", biggest), ("tablet_span_mean_arcmin", span_mean))
            # the CLI prints four decimals
            if not counts_ok or any(abs(float(fields[key]) - want) > 1e-4 for key, want in means):
                return f"gap line {trailer.strip()}"
        elif trailer:
            return "gap line without --gaps"
        return None

    def _check_cadence(self, op, returncode, out):
        steps, seconds = op["steps"] or 25, op["seconds"] or 150.0
        want = [(k + 1, round(k * seconds, 1)) for k in range(steps)]
        if op["fmt"] == "json":
            payload = json.loads(out)
            got = [(e["step"], e["elapsed_seconds"]) for e in payload[:-1]]
            total = payload[-1]["total_seconds"]
        else:
            got = [(int(a), float(b)) for a, b in re.findall(r"^step\s+(\d+):\s+([\d.]+) s$", out, re.M)]
            total = float(re.search(r"^total span: ([\d.]+) s over", out, re.M).group(1))
        if returncode or got != want or total != want[-1][1]:
            return f"cadence gave {len(got)} steps, total {total}"
        return None


def errors_from_json(text: str) -> dict:
    return {
        r["row"]: {
            "column": r["column"],
            "explanations": r["explanations"],
            "hypotheses": [[h["label"], h["reproduces"], h["rejected"]] for h in r["hypotheses"]],
            "unexplained": r["unexplained"],
        }
        for r in json.loads(text)
    }


def errors_from_text(text: str) -> dict:
    reports: dict = {}
    report = None
    for line in text.splitlines():
        head = re.match(r"line (\d+)", line)
        if head:
            report = {"explanations": [], "hypotheses": [], "unexplained": False}
            reports[int(head.group(1))] = report
        elif line.startswith("  reproduces: "):
            report["explanations"].append(line[len("  reproduces: "):])
        elif line.startswith("  hypothesis: "):
            label, _, status = line[len("  hypothesis: "):].rpartition(" -> ")
            report["hypotheses"].append(
                [label, status.startswith("reproduces"), status.endswith("(ruled out)")])
        elif line.startswith("  UNEXPLAINED"):
            report["unexplained"] = True
    return reports
