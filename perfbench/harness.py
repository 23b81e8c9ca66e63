"""Span recording and the closed-loop pass runner shared by every workload.

A span is a list [name, start, end, parent, op, count, tag]: start and
end are time.perf_counter() readings (CLOCK_MONOTONIC on Linux, so
readings from a child process share the parent's time base), parent is
the index of the enclosing span or None, op identifies the operation the
span belongs to, count is the number of calls a batch span covers and
tag carries one label (a subcommand, a tablet row).  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, OP, COUNT, TAG = range(7)


class Tracer:
    """Records nested spans around the calls the benchmark makes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str, count: int = 1, tag=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op, count, tag]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, parent=None, count=1, tag=None) -> int:
        """Append a span measured elsewhere (a child process, a wall timer)."""
        self.spans.append([name, start, end, parent, self.op, count, tag])
        return len(self.spans) - 1


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name, count=1, tag=None):
        return self._null


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another, never overlapping, so the
    sum of their durations is the part of the parent they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def run_passes(make_pass, run_op, seconds: float, trace: bool):
    """Closed loop: whole passes, one op at a time, until `seconds` of op time.

    Yields each op's record as soon as the op is done.  A pass is a
    balanced batch of inputs (see plan.py), and the loop stops only after
    an even number of passes: the enumeration workloads balance over
    antithetic pairs of passes, so a slow host that would have stopped a
    run after three passes cannot leave one unpaired and shift its
    median latency.  With tracing on, passes alternate untraced and
    traced, so the two halves give the tracing overhead.
    """
    busy = 0.0
    number = 0
    while True:
        traced = trace and number % 2 == 1
        for index, op in enumerate(make_pass(number)):
            record = run_op(op, traced, (number, index))
            record.update(pass_no=number, index=index, traced=traced)
            busy += record["latency"]
            yield record
        number += 1
        if busy >= seconds and number % 2 == 0:
            return


def median(values):
    return statistics.median(values) if values else None
