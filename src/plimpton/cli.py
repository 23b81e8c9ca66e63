"""Command-line front end.

Subcommands: verify, reconstruct, enumerate, convert, errors, cadence.
Global flags --format {text,csv,json,md} and --output PATH.  All output
is deterministic for fixed inputs; the dataset path can be overridden
with the PLIMPTON322_DATASET environment variable.  Each command returns
its text and exit code; main writes the text once and turns the
package's typed errors into exit code 2 with a single "error:" line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import enumeration, formats, reconstruction, scribal, tablet, trig
from .numerics import fraction_text, parse_float, parse_fraction, parse_int, parse_signed_int
from .sexagesimal import AnchoredSexagesimal, from_rational, parse, to_rational


def _key_values(record: dict[str, str], fmt: str) -> str:
    """One record as JSON, or as an aligned key/value block otherwise."""
    if fmt == "json":
        return formats.to_json([record])
    width = max(len(k) for k in record)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in record.items()) + "\n"


def _cmd_verify(args) -> tuple[str, int]:
    dataset = tablet.load_dataset(args.dataset)
    rows = None if args.line is None else [args.line]
    report = reconstruction.verify_all(dataset, use_inscribed=args.use_inscribed, rows=rows)
    code = 0 if report.all_passed else 1
    if args.format in ("csv", "json", "md"):
        records = []
        for check in report.checks:
            record = formats.tablet_record(dataset.get_line(check.row))
            record["status"] = "ok" if check.passed else "mismatch"
            records.append(record)
        return formats.render(records, formats.TABLET_COLUMNS + ["status"], args.format), code

    lines = []
    for check in report.checks:
        if check.passed:
            lines.append(f"line {check.row:2d}: ok")
        else:
            detail = "; ".join(
                f"column {col}: computed {got} != {want}"
                for col, got, want in check.mismatches
            )
            lines.append(f"line {check.row:2d}: MISMATCH ({detail})")
    passed = sum(1 for c in report.checks if c.passed)
    lines.append(f"{passed}/{len(report.checks)} lines reproduced")
    boundary = reconstruction.definition_range_report()
    lines.append(
        "definition range: {predicate}, boundary {boundary_deg:.4f} deg "
        "(quoted ~{quoted_boundary_deg} deg, delta {delta_deg:+.4f})".format(**boundary)
    )
    return "\n".join(lines) + "\n", code


def _cmd_reconstruct(args) -> tuple[str, int]:
    numeral = parse(args.col0)
    two_p = to_rational(AnchoredSexagesimal(numeral, args.anchor))
    arrow = reconstruction.ArrowValue(two_p)
    tri = reconstruction.reconstruct_line(arrow, shorten_by=args.shorten)
    col_i = reconstruction.col_i_of(tri.sec_fv)
    record = {
        "col0": str(numeral),
        "col0_decimal": formats.decimal_with_period(two_p),
        "colI_sex": str(from_rational(col_i).numeral),
        "colI_frac": fraction_text(col_i),
        "colI_decimal": "3600 x " + formats.decimal_with_period(col_i / 3600),
        "colII": str(tri.width),
        "colII_sex": str(from_rational(Fraction(tri.width)).numeral),
        "colIII": str(tri.diagonal),
        "colIII_sex": str(from_rational(Fraction(tri.diagonal)).numeral),
        "base": str(tri.base),
        "stretch": str(tri.stretch),
        "shorten_d": str(tri.shorten_divisor) if tri.shorten_divisor else "",
        "bab_tan": formats.decimal_with_period(60 * tri.tan_fv),
        "bab_sec": formats.decimal_with_period(60 * tri.sec_fv),
        "angle_deg": repr(tri.angle_deg),
    }
    return _key_values(record, args.format), 0


def _cmd_enumerate(args) -> tuple[str, int]:
    range_min, range_max = args.range or (0.0, None)
    config = enumeration.EnumerationConfig(
        max_generator=args.max_generator,
        max_col_i_places=args.max_places,
        range_min_deg=range_min,
        range_max_deg=range_max,
        include_degenerate=args.include_degenerate,
    )
    rows = enumeration.generate(config)
    positions = enumeration.tablet_positions(rows) if args.mark_tablet else []
    marks: dict[int, int] = {}
    for line_number, position in enumerate(positions, start=1):
        if position is not None:
            marks[position] = line_number
    records = [
        formats.enumeration_record(row, i + 1, marks.get(i))
        for i, row in enumerate(rows)
    ]
    fmt = args.format if args.format != "text" else "csv"
    text = formats.render(records, formats.ENUMERATION_COLUMNS, fmt)
    if args.gaps and rows:
        _, summary = enumeration.gap_analysis(rows)
        text += (
            f"# gaps: count={summary.count}"
            f" mean_arcmin={summary.mean_arcmin:.4f}"
            f" max_arcmin={summary.max_arcmin:.4f}"
            f" tablet_span_rows={summary.tablet_span_count}"
            f" tablet_span_mean_arcmin={summary.tablet_span_mean_arcmin:.4f}\n"
        )
    return text, 0


def _cmd_convert(args) -> tuple[str, int]:
    need = 3 if args.mode == "triple" else 2
    if len(args.values) != need:
        raise ValueError(f"convert {args.mode} needs {need} values, got {len(args.values)}")
    if args.mode == "triple":
        fv = trig.from_triple(*(parse_int(v) for v in args.values))
    else:
        fv = trig.from_function_values(*(parse_fraction(v) for v in args.values))
    tri = reconstruction.stretch_to_integers(fv.tan_fv, fv.sec_fv)
    record = {
        "tan_fv": fraction_text(fv.tan_fv),
        "sec_fv": fraction_text(fv.sec_fv),
        "bab_tan": formats.decimal_with_period(fv.bab_tan),
        "bab_sec": formats.decimal_with_period(fv.bab_sec),
        "arrow_p": fraction_text(fv.arrow_p),
        "exsec": fraction_text(fv.exsec),
        "sine": fraction_text(fv.sine),
        "width": str(tri.width),
        "diagonal": str(tri.diagonal),
        "base": str(tri.base),
        "stretch": str(tri.stretch),
        "angle_deg": repr(tri.angle_deg),
    }
    return _key_values(record, args.format), 0


def _chain_lines(report) -> list[str]:
    lines = []
    if not report.explanations and not report.unexplained:
        lines.append(f"line {report.row}: no erratum")
        return lines
    lines.append(
        f"line {report.row} column {report.column}: "
        f"inscribed {report.inscribed} vs corrected {report.corrected}"
    )
    for chain in report.explanations:
        lines.append(f"  reproduces: {scribal.chain_label(chain)}")
    for hyp in report.hypotheses:
        status = "reproduces" if hyp.reproduces else "does not reproduce"
        tag = " (ruled out)" if hyp.rejected else ""
        lines.append(f"  hypothesis: {hyp.label} -> {status}{tag}")
    if report.unexplained:
        lines.append("  UNEXPLAINED within the mechanism library")
    return lines


def _cmd_errors(args) -> tuple[str, int]:
    rows = list(range(1, 16)) if args.row is None else [args.row]
    reports = [scribal.classify(row) for row in rows]
    if args.row is None:
        reports = [r for r in reports if r.explanations or r.unexplained]
    if args.format == "json":
        # every field of the report and its hypotheses, in field order, as text
        payload = [
            {
                **r._asdict(),
                "inscribed": str(r.inscribed) if r.inscribed else None,
                "corrected": str(r.corrected) if r.corrected else None,
                "explanations": [scribal.chain_label(c) for c in r.explanations],
                "hypotheses": [{**h._asdict(), "chain": scribal.chain_label(h.chain)} for h in r.hypotheses],
            }
            for r in reports
        ]
        return formats.to_json(payload), 0
    lines = []
    for report in reports:
        lines.extend(_chain_lines(report))
    return "\n".join(lines) + "\n", 0


def _cmd_cadence(args) -> tuple[str, int]:
    cm = enumeration.cadence_map(args.steps, args.seconds)
    if args.format == "json":
        payload = [
            {"step": step, "elapsed_seconds": elapsed} for step, elapsed in cm.entries
        ]
        payload.append({"total_seconds": cm.total_seconds})
        return formats.to_json(payload), 0
    lines = [
        f"step {step:3d}: {elapsed:8.1f} s" for step, elapsed in cm.entries
    ]
    lines.append(
        f"total span: {cm.total_seconds:.1f} s over {args.steps} steps"
        f" at {args.seconds:.0f} s/step"
    )
    return "\n".join(lines) + "\n", 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors take main's one error path
        raise ValueError(message)


def _option(reader):
    """An argparse type whose errors give the reader's message, not its function name."""
    def read(text: str):
        try:
            return reader(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")  # no colon leaves hi empty, which parse_float refuses
    try:
        return parse_float(lo), parse_float(hi)
    except ValueError:
        raise ValueError(f"expected LO:HI in ASCII degrees, got {text!r}") from None


_int, _signed_int, _float, _range = map(_option, (parse_int, parse_signed_int, parse_float, _parse_range))


@_option
def _shorten(text: str) -> int | str:
    if text != "max" and not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits or 'max', got {text!r}")
    return text if text == "max" else parse_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plimpton",
        description="Exact diagonal-calculation pipeline for Plimpton 322",
    )
    parser.add_argument(
        "--format",
        choices=["text", "csv", "json", "md"],
        default="text",
        help="output format (default text)",
    )
    parser.add_argument("--output", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="reproduce the tablet from column 0")
    p_verify.add_argument("--use-inscribed", action="store_true",
                          help="compare against the inscribed (uncorrected) values")
    p_verify.add_argument("--line", type=_int, help="check a single line")
    p_verify.add_argument("--dataset", help="path to an alternative dataset file")
    p_verify.set_defaults(func=_cmd_verify)

    p_rec = sub.add_parser("reconstruct", help="run the pipeline on one column-0 value")
    p_rec.add_argument("col0", help="dotted sexagesimal doubled-arrow value, e.g. 24.30")
    p_rec.add_argument("--anchor", type=_signed_int, default=0,
                       help="power of 60 of the leading digit (default 0)")
    p_rec.add_argument("--shorten", type=_shorten, help="divisor to shorten by, or 'max'")
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_enum = sub.add_parser("enumerate", help="generate the full gradient table")
    p_enum.add_argument("--max-generator", type=_int,
                        default=enumeration.DEFAULT_MAX_GENERATOR)
    p_enum.add_argument("--max-places", type=_int,
                        default=enumeration.DEFAULT_MAX_COL_I_PLACES,
                        help="cap on column-I sexagesimal places")
    p_enum.add_argument("--range", type=_range, help="angle window in degrees, e.g. 44.7:44.8")
    p_enum.add_argument("--include-degenerate", action="store_true")
    p_enum.add_argument("--mark-tablet", action="store_true",
                        help="annotate the 15 tablet rows")
    p_enum.add_argument("--gaps", action="store_true", help="append gap statistics")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_conv = sub.add_parser("convert", help="triple <-> function values")
    p_conv.add_argument("mode", choices=["triple", "values"])
    p_conv.add_argument("values", nargs="+",
                        help="width diagonal base, or tan and sec as num/den")
    p_conv.set_defaults(func=_cmd_convert)

    p_err = sub.add_parser("errors", help="explain the scribal errors")
    p_err.add_argument("row", nargs="?", type=_int, help="tablet row (default: all)")
    p_err.set_defaults(func=_cmd_errors)

    p_cad = sub.add_parser("cadence", help="steady observation-clock arithmetic")
    p_cad.add_argument("--steps", type=_int, default=25)
    p_cad.add_argument("--seconds", type=_float, default=150.0)
    p_cad.set_defaults(func=_cmd_cadence)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; malformed input exits 2 with a single error line."""
    try:
        args = build_parser().parse_args(argv)
        text, code = args.func(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
