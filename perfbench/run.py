"""plimpton's benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 15 --trace 0

Workloads are cli-cold, enumerate-table, enumerate-window and
scribal-search; BENCHMARK.json lists the first three, and NOTES.md says
what each measures and why scribal-search is left out.  The program
is run from src/ as checked out, with nothing installed.  Every op's
output is checked against a reference that does not import plimpton
(reference.py).  The last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics": the end_to_end metrics
of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
Lines before it give every metric by name and unit and one "# meta"
line (seed, Python, nproc, commit, sample counts).  A traced run also
writes its spans to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import harness
import plan
import reference
from child import MARKER
from harness import COUNT, NAME, OP, PARENT, TAG, median, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 20  # half before the workload and half after it
PYTHON_START_RUNS = 7
IMPORTTIME_RUNS = 5
MODULES = ("cli", "enumeration", "formats", "numerics", "reconstruction",
           "scribal", "sexagesimal", "tablet", "trig")
CLI_COMMANDS = ("verify", "reconstruct", "convert", "errors", "enumerate", "cadence")
CHILD_OP_SPANS = ("plimpton.cli:import", "tablet.load_dataset", "cli.main")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PLIMPTON322_DATASET", None)
    return env


class Child(NamedTuple):
    start: float
    end: float
    code: int
    out: str
    err: str
    rss_kb: int


def spawn(cmd: list[str], stdin: str | None = None) -> Child:
    """Run a child to completion; it is reaped with wait4 so its own ru_maxrss can be read."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), text=True,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(start, end, proc.returncode, out, err, usage.ru_maxrss)


def child_spans(err: str) -> list:
    for line in err.splitlines():
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    raise RuntimeError(f"child printed no spans: {err[-2000:]}")


def add_child_spans(tracer, spans, parent=None) -> float:
    """Attach a child's spans to the tracer; returns the time spent in replays."""
    replay = 0.0
    for name, start, end, count, tag in spans:
        tracer.add(name, start, end, parent=parent, count=count, tag=tag)
        if name not in CHILD_OP_SPANS:
            replay += end - start
    return replay


def setup_probes(tracer, count: int, first: int = 0) -> list[float]:
    """Fresh processes that import plimpton.cli and load the dataset, timed inside."""
    times = []
    for index in range(first, first + count):
        child = spawn([sys.executable, str(HERE / "child.py")])
        if child.code:
            raise RuntimeError(f"set-up probe failed: {child.err[-2000:]}")
        spans = child_spans(child.err)
        tracer.op = ["setup", index]
        add_child_spans(tracer, spans)
        times.append(sum(end - start for _, start, end, _, _ in spans))
    return times


def cli_op_runner(cli_ref: reference.CliReference, tracer):
    def run_op(op, traced, op_id):
        argv = cli_ref.argv(op)
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "plimpton", *argv]
        child = spawn(cmd)
        record = {"latency": child.end - child.start, "rss_kb": child.rss_kb}
        problem = cli_ref.check(op, child.code, child.out)
        if problem:
            record["error"] = f"{' '.join(argv)}: {problem}"
        if traced:
            tracer.op = list(op_id)
            process = tracer.add("process", child.start, child.end, tag=op["cmd"])
            record["latency"] -= add_child_spans(tracer, child_spans(child.err), parent=process)
        return record
    return run_op


def run_worker(job: dict, tracer) -> tuple[list, int]:
    """In-process results of worker.py; its spans join the tracer's."""
    child = spawn([sys.executable, str(HERE / "worker.py")], json.dumps(job))
    if child.code:
        raise RuntimeError(f"worker exited {child.code}: {child.err[-4000:]}")
    *results, last = [json.loads(line) for line in child.out.splitlines()]
    merge_spans(tracer, last["spans"])
    return results, child.rss_kb


def merge_spans(tracer, spans: list) -> None:
    offset = len(tracer.spans)
    for span in spans:
        span = list(span)
        if span[PARENT] is not None:
            span[PARENT] += offset
        tracer.spans.append(span)


def check_in_process(workload: str, seed: int, results: list, oracle) -> None:
    """Mark each in-process result that disagrees with its reference."""
    passes: dict = {}
    probes = plan.probe_ops(workload, seed)
    ops = []
    for r in results:
        if r.get("probe"):
            ops.append(probes[r["index"]])
        else:
            if r["pass_no"] not in passes:
                passes[r["pass_no"]] = plan.make_pass(workload, seed, r["pass_no"])
            ops.append(passes[r["pass_no"]][r["index"]])
    caps = [op["cap"] for op in ops if "cap" in op]
    table = reference.Enumerations(oracle, max(caps), plan.UNCAPPED_PLACES) if caps else None
    for r, op in zip(results, ops):
        if "error" in r:
            continue
        if "cap" in op:
            want = table.expected(op["cap"], op["places"] or plan.UNCAPPED_PLACES, op["lo"], op["hi"])
            problem = reference.check_enumeration(r["out"], want)
        else:
            problem = reference.check_scribal(op, r["out"])
        if problem:
            r["error"] = problem


def python_start_and_imports() -> dict:
    """Bare interpreter start, and -X importtime self time of each plimpton module."""
    starts = []
    for _ in range(PYTHON_START_RUNS):
        child = spawn([sys.executable, "-c", "pass"])
        starts.append(child.end - child.start)
    selfs = defaultdict(list)
    for _ in range(IMPORTTIME_RUNS):
        err = spawn([sys.executable, "-X", "importtime", "-c", "import plimpton.cli"]).err
        for us, name in re.findall(r"^import time:\s+(\d+) \|\s+\d+ \| \s*plimpton\.(\w+)$", err, re.M):
            selfs[name].append(int(us) / 1e6)
    return {"python_start": starts, "import_self": selfs}


def layer_metrics(spans: list, results: list, extras: dict) -> dict:
    own = self_times(spans)
    by_name = defaultdict(list)
    for span, self_time in zip(spans, own):
        by_name[span[NAME]].append((span, self_time))

    def per_op(name, keep=lambda span: True):
        totals = defaultdict(float)
        for span, self_time in by_name[name]:
            if keep(span):
                totals[json.dumps(span[OP])] += self_time
        return totals

    def median_ms(totals):
        return median(list(totals.values())) * 1e3 if totals else None

    def per_call_us(name):
        calls = by_name[name]
        count = sum(span[COUNT] for span, _ in calls)
        return sum(t for _, t in calls) / count * 1e6 if count else None

    traced = [r for r in results if r.get("traced") and "counters" in r]

    def counter(key):
        values = [r["counters"][key] for r in traced if key in r["counters"]]
        return median(values)

    generate, emit = per_op("enumeration.generate"), per_op("enumeration.emit_replay")
    parse = per_op("formats.parse_table")
    for op, t in per_op("formats.enumeration_from_record").items():
        parse[op] += t
    rest = per_op("scribal.classify", lambda s: s[TAG] != 2)
    enumerated = [r["counters"] for r in traced if "pairs_computed" in r["counters"]]
    scribal = [r["counters"] for r in traced if "chains" in r["counters"]]
    workload_runs = [r for r in results if not r.get("probe")]

    def ops_per_s(rows):
        return len(rows) / sum(r["latency"] for r in rows) if rows else None

    plain = ops_per_s([r for r in workload_runs if not r["traced"]])
    with_spans = ops_per_s([r for r in workload_runs if r["traced"]])
    metrics = {
        "python.start_ms": median(extras["python_start"]) * 1e3,
        "cli.import_ms": median_ms(per_op("plimpton.cli:import")),
        "cli.process_overhead_ms": median_ms(per_op("process")),
        "tablet.load_dataset_ms": median_ms(per_op("tablet.load_dataset")),
        "reconstruction.verify_all_ms": per_call_us("reconstruction.verify_all") / 1e3,
        "reconstruction.reconstruct_line_us": per_call_us("reconstruction.reconstruct_line"),
        "trig.from_triple_us": per_call_us("trig.from_triple"),
        "reconstruction.stretch_to_integers_us": per_call_us("reconstruction.stretch_to_integers"),
        "sexagesimal.from_rational_us": per_call_us("sexagesimal.from_rational"),
        "numerics.regular_numbers_ms": median_ms(per_op("numerics.regular_numbers")),
        "numerics.regulars": counter("regulars"),
        "enumeration.generate_ms": median_ms(generate),
        "enumeration.rows": counter("rows"),
        "enumeration.pairs_computed": counter("pairs_computed"),
        "enumeration.rows_per_pair": median(
            [c["rows"] / c["pairs_computed"] for c in enumerated if c["pairs_computed"]]),
        "enumeration.emit_replay_ms": median_ms(emit),
        "enumeration.walk_ms": median_ms({op: t - emit[op] for op, t in generate.items()}),
        "enumeration.gap_analysis_ms": median_ms(per_op("enumeration.gap_analysis")),
        "enumeration.tablet_positions_ms": median_ms(per_op("enumeration.tablet_positions")),
        "formats.record_ms": median_ms(per_op("formats.enumeration_record")),
        "formats.render_ms": median_ms(per_op("formats.render")),
        "formats.parse_ms": median_ms(parse),
        "scribal.classify_row2_ms": median_ms(per_op("scribal.classify", lambda s: s[TAG] == 2)),
        "scribal.classify_rest_ms": median_ms(rest),
        "scribal.explanations": counter("explanations"),
        "scribal.refute_us": per_call_us("scribal.refute"),
        "scribal.applicable_ratio": (sum(c["applicable"] for c in scribal)
                                     / sum(c["chains"] for c in scribal)) if scribal else None,
        "trace.overhead_pct": (plain / with_spans - 1) * 100 if plain and with_spans else None,
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_ms"] = median_ms(per_op("cli.main", lambda s, c=command: s[TAG] == c))
    for module in MODULES:
        values = extras["import_self"].get(module)
        metrics[f"{module}.import_self_ms"] = median(values) * 1e3 if values else None
    return metrics


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/plimpton, for runs from a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "plimpton").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(args, tracer, cli_ref, run_cli, oracle) -> tuple[list, int]:
    """The closed loop itself: checked results and the peak RSS in KiB."""
    if args.workload == "cli-cold":
        results = list(harness.run_passes(
            lambda number: plan.make_pass("cli-cold", args.seed, number, len(cli_ref.rows)),
            run_cli, args.seconds, bool(args.trace)))
        return results, max(r["rss_kb"] for r in results)
    results, rss_kb = run_worker({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                                  "trace": bool(args.trace), "probe_only": False}, tracer)
    check_in_process(args.workload, args.seed, results, oracle)
    return results, rss_kb


def probe_other_layers(args, tracer, cli_ref, run_cli, oracle) -> list:
    """Traced, checked probe ops for the layers the workload never calls."""
    if args.workload == "cli-cold":
        results, _ = run_worker({"workload": args.workload, "seed": args.seed, "seconds": 0,
                                 "trace": True, "probe_only": True}, tracer)
        check_in_process(args.workload, args.seed, results, oracle)
        return results
    first = {}
    for op in plan.make_pass("cli-cold", args.seed, 0, len(cli_ref.rows)):
        first.setdefault(op["cmd"], op)  # one cold op of each subcommand
    results = []
    for index, op in enumerate(first.values()):
        record = run_cli(op, True, ("cli-probe", index))
        record.update(probe=True, traced=True)
        results.append(record)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure; whole passes run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "plimpton" / "cli.py", ROOT / "scripts" / "oracle_counts.py",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a plimpton checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    began = time.perf_counter()
    tracer = harness.Tracer()
    oracle = reference.load_oracle(ROOT)
    cli_ref = reference.CliReference(oracle)
    spawn([sys.executable, "-c", "import plimpton.cli"])  # writes bytecode; not timed
    # set-up is sampled on both sides of the workload, so its median spans the run
    half = SETUP_PROBES // 2
    setups = setup_probes(tracer, half)
    run_cli = cli_op_runner(cli_ref, tracer)
    results, rss_kb = run_workload(args, tracer, cli_ref, run_cli, oracle)
    setups += setup_probes(tracer, half, first=half)
    latencies = [r["latency"] for r in results if not r["traced"]]
    ok = sum("error" not in r for r in results if not r["traced"])
    extra = {}
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        extra["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    if args.trace:
        results += probe_other_layers(args, tracer, cli_ref, run_cli, oracle)
        group, computed = "per_layer", layer_metrics(tracer.spans, results, python_start_and_imports())
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "count", "tag"], "spans": tracer.spans}))
    else:
        group, computed = "end_to_end", {
            "setup_s": median(setups),
            "ops_per_s": ok / sum(latencies),
            "latency_p50_ms": median(latencies) * 1e3,
            "peak_rss_mb": rss_kb / 1024,
        }
    metrics = {}
    for metric in spec[group]:
        value = computed.get(metric["name"])
        if value is None:
            raise RuntimeError(f"{metric['name']}: this run measured no value for it")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    failures = [r["error"] for r in results if "error" in r]
    extra["fail_ratio"] = len(failures) / len(results)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "src_sha256": source_digest(),
        "passes": 1 + max((r["pass_no"] for r in results if "pass_no" in r), default=0),
        "samples": {"latency_ms": len(latencies), "setup_s": len(setups)},
        "wall_s": time.perf_counter() - began,
        **extra,
    }
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in extra.items():
        print(f"{name:<40} {value:>14.6g} {'ms' if name.endswith('_ms') else 'ratio'}")
    for problem in failures[:10]:
        print(f"# failed: {problem}")
    print("# meta " + json.dumps(meta))
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
