"""In-process workloads: one fresh interpreter runs the closed loop.

Reads a job as JSON on stdin ({"workload", "seed", "seconds", "trace",
"probe_only"}) and writes one JSON line per op to stdout as the op ends,
then one line {"spans": [...]}.  Each op line holds the op's latency and
a digest of its outputs; run.py checks those against the references.
Streaming them keeps the worker's memory, and so its peak RSS, free of
the run's length.  Set-up (import plimpton.cli and the first dataset
load) happens before the first op.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import plan  # noqa: E402
from reference import canonical_rows_digest  # noqa: E402

import plimpton.cli  # noqa: E402,F401  (set-up, as a user's process pays it)
from plimpton import (  # noqa: E402
    enumeration, formats, numerics, reconstruction, scribal, sexagesimal, tablet,
)


def enumerate_op(op: dict, tr):
    config = enumeration.EnumerationConfig(
        max_generator=op["cap"],
        max_col_i_places=op["places"] or plan.UNCAPPED_PLACES,
        range_min_deg=op["lo"],
        range_max_deg=op["hi"],
    )
    with tr.span("enumeration.generate"):
        rows = enumeration.generate(config)
    summary = None
    if rows:  # as the CLI does: gap analysis needs a row
        with tr.span("enumeration.gap_analysis"):
            _, summary = enumeration.gap_analysis(rows)
    with tr.span("enumeration.tablet_positions"):
        positions = enumeration.tablet_positions(rows)
    marks = {p: line for line, p in enumerate(positions, start=1) if p is not None}
    with tr.span("formats.enumeration_record", count=len(rows)):
        records = [formats.enumeration_record(r, i + 1, marks.get(i)) for i, r in enumerate(rows)]
    with tr.span("formats.render"):
        text = formats.render(records, formats.ENUMERATION_COLUMNS, op["fmt"])
    with tr.span("formats.parse_table"):
        parsed = formats.parse_table(text, op["fmt"])
    with tr.span("formats.enumeration_from_record", count=len(parsed)):
        back = [formats.enumeration_from_record(r) for r in parsed]
    return rows, summary, positions, back


def enumerate_outcome(op: dict, result) -> dict:
    rows, summary, positions, back = result
    return {
        "digest": canonical_rows_digest(
            (r.triangle.width, r.triangle.diagonal, r.triangle.base, r.col_i, r.col_i_places)
            for r in rows),
        "rows": len(rows),
        "positions": positions,
        "gaps": None if summary is None else [
            summary.count, summary.mean_arcmin, summary.max_arcmin,
            summary.tablet_span_count, summary.tablet_span_mean_arcmin],
        "round_trip": back == rows,
        "fmt": op["fmt"],
    }


def enumerate_replay(op: dict, result, tr) -> dict:
    """Per-layer calls replayed after a traced op, outside its latency."""
    rows = result[0]
    with tr.span("numerics.regular_numbers"):
        regulars = len(numerics.regular_numbers(op["cap"]))
    with tr.span("enumeration.emit_replay", count=len(rows)):
        for r in rows:
            col_i = enumeration.col_i_of(r.triangle.sec_fv)
            places = enumeration.col_i_places_of(col_i)
            tri = reconstruction.stretch_to_integers(r.triangle.tan_fv, r.triangle.sec_fv)
            enumeration.EnumeratedRow(tri, col_i, tri.angle_deg, places)
    with tr.span("reconstruction.stretch_to_integers", count=len(rows)):
        for r in rows:
            reconstruction.stretch_to_integers(r.triangle.tan_fv, r.triangle.sec_fv)
    with tr.span("sexagesimal.from_rational", count=len(rows)):
        for r in rows:
            sexagesimal.from_rational(r.col_i)
    return {"regulars": regulars, "pairs_computed": regulars * (regulars - 1) // 2,
            "rows": len(rows)}


def scribal_inputs(op: dict) -> dict:
    """Mechanism objects built from the public classes, before the op is timed."""
    def chain(specs):
        return tuple(getattr(scribal, name)(*args) for name, *args in specs)
    return {"rows": op["rows"],
            "chains": [(c["row"], c["column"], c["erratum_row"], chain(c["chain"])) for c in op["chains"]]}


def scribal_op(inputs: dict, tr):
    reports = []
    for row in inputs["rows"]:
        with tr.span("scribal.classify", tag=row):
            reports.append(scribal.classify(row))
    outcomes = []
    for row, column, erratum_row, chain in inputs["chains"]:
        try:
            with tr.span("scribal.simulate"):
                simulated = scribal.simulate(row, chain, column)
        except scribal.MechanismInapplicable:  # an outcome, not a failure
            simulated = None
        with tr.span("scribal.refute"):
            outcomes.append((simulated, scribal.refute(erratum_row, chain)))
    return reports, outcomes


def scribal_outcome(op: dict, result) -> dict:
    reports, outcomes = result
    return {
        "reports": [[r.row, {
            "column": r.column,
            "explanations": [scribal.chain_label(c) for c in r.explanations],
            "hypotheses": [[h.label, h.reproduces, h.rejected] for h in r.hypotheses],
            "unexplained": r.unexplained,
        }] for r in reports],
        "simulate": [None if s is None else list(s.digits) for s, _ in outcomes],
        "refute": [verdict for _, verdict in outcomes],
    }


def scribal_counters(op: dict, result, tr) -> dict:
    reports, outcomes = result
    return {"explanations": sum(len(r.explanations) for r in reports),
            "applicable": sum(s is not None for s, _ in outcomes),
            "chains": len(outcomes)}


KINDS = {
    # kind: (prepare inputs, the timed op, outcome for checking, counters when traced)
    "enumerate": (lambda op: op, enumerate_op, enumerate_outcome, enumerate_replay),
    "scribal": (scribal_inputs, scribal_op, scribal_outcome, scribal_counters),
}


def main() -> None:
    job = json.load(sys.stdin)
    workload = job["workload"]
    tablet.load_dataset()  # set-up: the first, uncached load happens before the first op
    tracer = harness.Tracer()
    untraced = harness.NullTracer()

    def run_op(op, traced, op_id):
        kind = op.get("kind") or ("scribal" if workload == "scribal-search" else "enumerate")
        prepare, timed, outcome, counters = KINDS[kind]
        inputs = prepare(op)
        tr = tracer if traced else untraced
        tracer.op = op_id
        record = {}
        start = time.perf_counter()
        try:
            with tr.span("op", tag=kind):
                result = timed(inputs, tr)
        except Exception as exc:  # one failed op is counted, the loop goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["latency"] = time.perf_counter() - start
        if "error" not in record:
            record["out"] = outcome(op, result)
            if traced:
                record["counters"] = counters(op, result, tr)
        return record

    if not job["probe_only"]:
        for record in harness.run_passes(
                lambda number: plan.make_pass(workload, job["seed"], number),
                run_op, job["seconds"], job["trace"]):
            print(json.dumps(record))
    if job["trace"]:
        for index, op in enumerate(plan.probe_ops(workload, job["seed"])):
            record = run_op(op, True, ["probe", index])
            record.update(probe=True, index=index, traced=True)
            print(json.dumps(record))
    print(json.dumps({"spans": tracer.spans}))


if __name__ == "__main__":
    main()
