"""Child side of a cold CLI op: spans for import, first dataset load and cli.main.

Run:  PYTHONPATH=src python perfbench/child.py [plimpton arguments...]

With arguments it runs plimpton.cli.main on them, writing the CLI's
output to stdout and exiting with its code, then replays the op's
layer call (verify_all, reconstruct_line or from_triple) a few times.
Without arguments it is the set-up probe: import and first load only.
Spans go to stderr as one JSON line after MARKER, in perf_counter time,
which the parent shares.
"""

import json
import sys
import time

MARKER = "#perfbench-spans "
REPEATS = 20


def _replay(args, spans):
    from plimpton import reconstruction, sexagesimal, tablet, trig

    def batch(name, call, count):
        start = time.perf_counter()
        for _ in range(count):
            call()
        spans.append([name, start, time.perf_counter(), count, None])

    if args.command == "verify":
        dataset = tablet.load_dataset()
        rows = [args.line] if args.line else None
        batch("reconstruction.verify_all",
              lambda: reconstruction.verify_all(dataset, use_inscribed=args.use_inscribed, rows=rows), 5)
    elif args.command == "reconstruct":
        anchored = sexagesimal.AnchoredSexagesimal(sexagesimal.parse(args.col0), args.anchor)
        arrow = reconstruction.ArrowValue(sexagesimal.to_rational(anchored))
        shorten_by = "max" if args.shorten == "max" else None
        batch("reconstruction.reconstruct_line",
              lambda: reconstruction.reconstruct_line(arrow, shorten_by=shorten_by), REPEATS)
    elif args.command == "convert":
        width, diagonal, base = (int(v) for v in args.values)
        batch("trig.from_triple", lambda: trig.from_triple(width, diagonal, base), REPEATS)


def main() -> int:
    start = time.perf_counter()
    import plimpton.cli
    imported = time.perf_counter()
    from plimpton import tablet

    tablet.load_dataset()
    loaded = time.perf_counter()
    spans = [["plimpton.cli:import", start, imported, 1, None],
             ["tablet.load_dataset", imported, loaded, 1, None]]
    code = 0
    argv = sys.argv[1:]
    if argv:
        args = plimpton.cli.build_parser().parse_args(argv)
        begin = time.perf_counter()
        code = plimpton.cli.main(argv)
        spans.append(["cli.main", begin, time.perf_counter(), 1, args.command])
        sys.stdout.flush()
        _replay(args, spans)
    sys.stderr.write(MARKER + json.dumps(spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
