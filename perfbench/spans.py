"""Spans around calls into the package's layers, and self-time arithmetic.

A span has an ``id``, a ``name`` (``layer.operation``), ``start`` and
``end`` in monotonic nanoseconds, a ``parent`` (an id or None), a ``run``
and ``counters``.  On Linux ``time.perf_counter_ns`` reads CLOCK_MONOTONIC, so
spans recorded in a child process and in its parent share one time axis.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

now = time.perf_counter_ns


class Tracer:
    """Collects spans in memory; nesting follows the ``span`` context stack.

    Hot loops call ``add`` with their own clock readings, which records a
    leaf under the innermost open span without the context manager's cost.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, counters]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counters):
        index = len(self.spans)
        record = [name, now(), 0, self._stack[-1] if self._stack else None, counters]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield counters
        finally:
            self._stack.pop()
            record[2] = now()

    def add(self, name: str, start: int, end: int) -> None:
        self.spans.append([name, start, end, self._stack[-1] if self._stack else None, {}])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for record in self.spans:
                f.write(json.dumps(record, separators=(",", ":")) + "\n")


# A collected span: (id, name, start, end, parent id or None, run, counters).
# Ids are positions in the list of one traced pass, so parents are indices.
ID, NAME, START, END, PARENT, RUN, COUNTERS = range(7)
FIELDS = ("id", "name", "start", "end", "parent", "run", "counters")


def read_child_spans(path: str, run: str, root: int, first_id: int) -> list[tuple]:
    """Spans a child wrote with ``Tracer.write``, numbered from
    ``first_id`` and hung under the span ``root``."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for index, line in enumerate(f):
            name, start, end, parent, counters = json.loads(line)
            parent = root if parent is None else first_id + parent
            spans.append((first_id + index, name, start, end, parent, run, counters))
    return spans


def self_times(spans: list[tuple]) -> list[int]:
    """Self time of every span in ns: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append(end - start - covered)
    return result


def layer_self_seconds(spans: list[tuple], selfs: list[int]) -> dict[str, float]:
    """Self time summed per layer, the first component of a span name."""
    totals: dict[str, int] = defaultdict(int)
    for span, ns in zip(spans, selfs):
        totals[span[NAME].split(".", 1)[0]] += ns
    return {layer: ns / 1e9 for layer, ns in totals.items()}


def name_totals(spans: list[tuple]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed duration in seconds and call count per span name."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span[NAME]] += (span[END] - span[START]) / 1e9
        calls[span[NAME]] += 1
    return seconds, calls


def append_jsonl(path: str, spans: list[tuple]) -> None:
    with open(path, "a", encoding="utf-8") as f:
        for span in spans:
            f.write(json.dumps(dict(zip(FIELDS, span)), separators=(",", ":")) + "\n")
