"""Seeded inputs for the four workloads, one pass at a time.

Every pass is drawn from random.Random(f"{workload}:{seed}:{pass}"), so a
seed fixes every input of a run and a later pass never repeats an
earlier one (a result cache cannot turn the loop into lookups).  A pass
is balanced by construction: it holds the same kinds of operation in the
same proportions whatever the seed, and the seed moves only values
inside each kind.  That keeps the median latency and the throughput of a
run steady across seeds while every input still varies.

This module imports nothing from plimpton.
"""

from __future__ import annotations

import math
import random

from reference import ERRATUM_ROWS, scribal_model_outcome

WORKLOADS = ("cli-cold", "enumerate-table", "enumerate-window", "scribal-search")

ROADMAP_CAP = 10**12  # the ROADMAP's "generators <= 10^12, places uncapped" case
LOG_CAP_RANGE = (6.0, 12.0)  # generator caps are log-uniform over 10^6 .. 10^12
PLACES = (9, 11, 15, None)  # None: places uncapped
UNCAPPED_PLACES = 1000  # no row under 10^12 comes near this many column-I places
MACHINE_FORMATS = ("json", "csv", "md")
CLI_FORMATS = ("text", "csv", "json", "md")
BOUNDARY_DEG = math.degrees(math.acos(1 / math.sqrt(60)))  # sec^2 < 60
WINDOW_DEG = 0.5
TABLE_STRATA = 16
WINDOW_STRATA = 16
SCRIBAL_OPS_PER_PASS = 8
SCRIBAL_CHAINS_PER_OP = 24


def _rng(workload: str, seed: int, number: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{number}")


def _stratified_caps(workload: str, seed: int, number: int, strata: int) -> list[int]:
    """One log-uniform cap inside each of `strata` equal slices of the range.

    All caps of a pass sit at the same seeded offset u inside their slices
    (a systematic sample), and passes come in antithetic pairs: pass 2m
    takes u, pass 2m+1 takes 1 - u.  Over a pair, each slice's two ops
    balance out in cost, so the run's median op and throughput hardly
    depend on u.
    """
    u = _rng(workload + "/caps", seed, number // 2).random()
    if number % 2:
        u = 1 - u
    lo, hi = LOG_CAP_RANGE
    width = (hi - lo) / strata
    return [int(10 ** (lo + width * (k + u))) for k in range(strata)]


def table_pass(seed: int, number: int) -> list[dict]:
    """The ROADMAP's 10^12 uncapped case, then 16 stratified caps in seeded order.

    Places caps repeat (9, 11, 15, uncapped) along the strata, so every
    pass gives each places cap one cap in each quarter of the range and
    every pass costs about the same; the seed picks the caps inside their
    strata, the machine format of each stratified op and the order.  The
    10^12 op comes first and takes the formats in turn, JSON first: its
    JSON output is the largest of the workload and sets peak memory, in
    every run the same way.
    """
    rng = _rng("enumerate-table", seed, number)
    ops = []
    for k, cap in enumerate(_stratified_caps("enumerate-table", seed, number, TABLE_STRATA)):
        ops.append({"cap": cap, "places": PLACES[k % len(PLACES)],
                    "fmt": rng.choice(MACHINE_FORMATS), "lo": 0.0, "hi": None})
    rng.shuffle(ops)
    first = {"cap": ROADMAP_CAP, "places": None, "lo": 0.0, "hi": None,
             "fmt": MACHINE_FORMATS[number % len(MACHINE_FORMATS)]}
    return [first] + ops


def window_pass(seed: int, number: int) -> list[dict]:
    """The 10^12 case plus 16 stratified caps, each with a 0.5-degree window."""
    rng = _rng("enumerate-window", seed, number)
    ops = []
    for cap in [ROADMAP_CAP] + _stratified_caps("enumerate-window", seed, number, WINDOW_STRATA):
        lo = rng.uniform(0.0, BOUNDARY_DEG - WINDOW_DEG)
        ops.append({"cap": cap, "places": None, "fmt": rng.choice(MACHINE_FORMATS),
                    "lo": lo, "hi": lo + WINDOW_DEG})
    rng.shuffle(ops)
    return ops


def _mechanism(rng: random.Random) -> list:
    """One public mechanism, as [class name, constructor args...]."""
    kind = rng.randrange(7)
    if kind == 0:
        return ["MisreadFinalFiveAsTwo"]
    if kind == 1:
        return ["HalveDigits"]
    if kind == 2:
        i = rng.randint(1, 6)
        return ["TransposeDigits", i, i + 1]
    if kind == 3:
        return ["MergeAdjacentDigits", rng.randint(1, 6)]
    if kind == 4:
        return ["DigitSlip", rng.randint(1, 6), rng.choice((-2, -1, 1, 2))]
    if kind == 5:
        return ["MultiplyValueInsteadOfRoot", rng.choice((2, 4, 16, 45))]
    return ["ShortenWithDivisor", rng.randint(2, 5)]


def _chain_item(rng: random.Random) -> dict:
    """A 1-3 mechanism chain to simulate on a row and column, and refute on an erratum row.

    Chains the mechanisms would turn into an invalid numeral are redrawn,
    so no op of the workload can fail by construction.
    """
    while True:
        item = {
            "row": rng.randint(1, 15),
            "column": rng.choice(("I", "II", "III")),
            "erratum_row": rng.choice(ERRATUM_ROWS),
            "chain": [_mechanism(rng) for _ in range(rng.randint(1, 3))],
        }
        if scribal_model_outcome(item) is not None:
            return item


def scribal_pass(seed: int, number: int) -> list[dict]:
    """Ops of classify-all-15-rows in seeded order plus a seeded chain batch."""
    rng = _rng("scribal-search", seed, number)
    ops = []
    for _ in range(SCRIBAL_OPS_PER_PASS):
        rows = list(range(1, 16))
        rng.shuffle(rows)
        ops.append({"rows": rows,
                    "chains": [_chain_item(rng) for _ in range(SCRIBAL_CHAINS_PER_OP)]})
    return ops


def cli_pass(seed: int, number: int, oracle_rows: int) -> list[dict]:
    """Twelve cold CLI invocations: two of each subcommand, three of each format.

    Each pair covers the subcommand's cheap and dear variants (errors of
    one row and of all rows; enumerate plain and with --mark-tablet
    --gaps), so every pass costs about the same.  Rows of reconstruct and
    convert index the oracle's default-cap table.
    """
    rng = _rng("cli-cold", seed, number)
    ops = [
        {"cmd": "verify", "inscribed": rng.random() < 0.5, "line": None},
        {"cmd": "verify", "inscribed": rng.random() < 0.5, "line": rng.randint(1, 15)},
        {"cmd": "reconstruct", "row": rng.randrange(oracle_rows), "shorten": rng.random() < 0.5},
        {"cmd": "reconstruct", "row": rng.randrange(oracle_rows), "shorten": rng.random() < 0.5},
        {"cmd": "convert", "row": rng.randrange(oracle_rows)},
        {"cmd": "convert", "row": rng.randrange(oracle_rows)},
        {"cmd": "errors", "row": None},
        {"cmd": "errors", "row": rng.randint(1, 15)},
        {"cmd": "enumerate", "mark": False},
        {"cmd": "enumerate", "mark": True},
        {"cmd": "cadence", "steps": None, "seconds": None},
        {"cmd": "cadence", "steps": rng.randint(1, 60), "seconds": rng.choice((60.0, 90.0, 150.0))},
    ]
    formats = list(CLI_FORMATS) * 3
    rng.shuffle(formats)
    for op, fmt in zip(ops, formats):
        op["fmt"] = fmt
    rng.shuffle(ops)
    return ops


def make_pass(workload: str, seed: int, number: int, oracle_rows: int = 0) -> list[dict]:
    if workload == "cli-cold":
        return cli_pass(seed, number, oracle_rows)
    if workload == "enumerate-table":
        return table_pass(seed, number)
    if workload == "enumerate-window":
        return window_pass(seed, number)
    if workload == "scribal-search":
        return scribal_pass(seed, number)
    raise ValueError(f"unknown workload {workload!r}")


def probe_ops(workload: str, seed: int) -> list[dict]:
    """Small traced ops giving values for the layers `workload` never calls."""
    rng = _rng("probe", seed, 0)
    ops = []
    if not workload.startswith("enumerate-"):
        ops.append({"kind": "enumerate", "cap": 10**6, "places": 11,
                    "fmt": rng.choice(MACHINE_FORMATS), "lo": 0.0, "hi": None})
    if workload != "scribal-search":
        ops.append({"kind": "scribal", **scribal_pass(seed, 10**6)[0]})
    return ops
