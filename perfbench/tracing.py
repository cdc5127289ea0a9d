"""In-memory spans around the benchmark's own calls into qproduct.

A span records its name, start, end, parent span and the id of the benchmark
operation it belongs to.  Spans stay in a list until the run ends; nothing is
written while the clock runs.  A disabled tracer hands out one shared no-op
context, so the untraced path costs a method call per library call.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else None
        tr.spans.append([self.name, perf_counter(), None, parent, tr.op_id])
        tr.stack.append(self.index)

    def __exit__(self, *exc_info):
        tr = self.tracer
        tr.spans[self.index][2] = perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Span recorder; ``enabled`` may be switched between benchmark rounds."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id = -1

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name; self time excludes child spans.

        Spans nest only through the call stack of one thread, so children never
        overlap and the covered part of a span is the sum of its children.
        """
        child_total = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child_total[index]
        return {name: (calls, busy) for name, (calls, busy) in out.items()}

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
