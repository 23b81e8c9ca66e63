"""Smoke test of the benchmark itself: schema and output checks, no timing bounds.

Run from the repository root:  python3 perfbench/smoke.py

It checks BENCHMARK.json against the benchmark contract, runs every
workload for one pair of passes (--seconds 0) and two workloads traced, and
requires each result line to be well formed, correct and to carry
exactly the metrics BENCHMARK.json lists.  It then feeds wrong answers
to the output checks, which must reject them, and runs the benchmark in
a directory holding only BENCHMARK.json and perfbench/, where it must
fail without printing a result.  Nothing here compares a time with a
bound, so it cannot flake on a slow machine.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import plan
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           f"BENCHMARK.json keys {sorted(spec)}")
    expect({w["name"] for w in spec["workloads"]} <= set(plan.WORKLOADS), "workload names")
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    expect(len(names) == len(set(names)), "a name is used twice")
    for name in names:
        expect(bool(NAME.match(name)), f"bad name {name!r}")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"end_to_end {m}")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per_layer {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(bool(UNIT.match(m["unit"])) and m["better"] in ("lower", "higher"), f"metric {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}],
           "setup_s must be in seconds, lower-better, with the largest bound")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(done: subprocess.CompletedProcess, metrics: list[dict], label: str) -> None:
    expect(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{label} failed: {done.stdout[-3000:]}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label} attempted")
    expect(list(result["metrics"]) == [m["name"] for m in metrics], f"{label} metric names")
    for m in metrics:
        entry = result["metrics"][m["name"]]
        expect(entry["unit"] == m["unit"], f"{label} {m['name']} unit")
        expect(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
               f"{label} {m['name']} value {entry['value']!r}")
    meta = [line for line in done.stdout.splitlines() if line.startswith("# meta ")]
    expect(len(meta) == 1, f"{label} meta line")
    meta = json.loads(meta[0][len("# meta "):])
    for key in ("seed", "python", "nproc", "commit", "src_sha256", "samples"):
        expect(key in meta, f"{label} meta lacks {key}")


def check_checks(oracle) -> None:
    """Every output check must reject a wrong answer."""
    cli = reference.CliReference(oracle)
    op = {"cmd": "verify", "inscribed": True, "line": None, "fmt": "text"}
    expect(cli.check(op, 0, "line  1: ok\n") is not None, "verify check let a wrong answer through")
    op = {"cmd": "convert", "row": 0, "fmt": "text"}
    expect(cli.check(op, 0, "width  1\ndiagonal  1\nbase  1\n") is not None, "convert check")

    table = reference.Enumerations(oracle, 1000, 11)
    want = table.expected(1000, 11, 0.0, None)
    got = dict(want, fmt="csv", round_trip=True)
    expect(reference.check_enumeration(got, want) is None, "enumeration check rejects a right answer")
    for wrong in ({"digest": "0" * 64}, {"positions": want["positions"][::-1]}, {"round_trip": False},
                  {"gaps": [want["gaps"][0] + 1] + want["gaps"][1:]}):
        expect(reference.check_enumeration(dict(got, **wrong), want) is not None,
               f"enumeration check let {sorted(wrong)} through")

    report = {"column": "II", "explanations": ["slip place 1 by -1"],
              "hypotheses": [["first place slipped by one", True, False]], "unexplained": False}
    expect(reference.check_error_report(9, report) is not None, "error report check")
    op = plan.scribal_pass(7, 0)[0]
    item = op["chains"][0]
    want = reference.scribal_model_outcome(item)
    out = {"reports": [], "simulate": [want["simulate"]], "refute": [not want["refute"]]}
    op = dict(op, rows=[], chains=[item])
    expect(reference.check_scribal(op, out) is not None, "scribal check let a wrong refute through")


def check_bare_directory(spec: dict) -> None:
    """Without the program's sources the benchmark fails and prints no result."""
    bare = ROOT / ".perfbench-smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench(spec["workloads"][0]["name"], 0, cwd=bare)
        expect(done.returncode != 0, "the benchmark ran without the program's sources")
        expect('"correct"' not in done.stdout, "a result was printed without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_checks(reference.load_oracle(ROOT))
    check_bare_directory(spec)
    for workload in plan.WORKLOADS:
        check_result(run_bench(workload, 0), spec["end_to_end"], workload)
        print(f"smoke: {workload} ok", flush=True)
    for workload in ("cli-cold", "scribal-search"):
        check_result(run_bench(workload, 1), spec["per_layer"], f"{workload} --trace 1")
        print(f"smoke: {workload} traced ok", flush=True)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
