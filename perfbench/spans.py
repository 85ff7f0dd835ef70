"""In-memory span tracer for the layer trace of the benchmark.

A span is ``[name, start, end, parent]``: `parent` is the index of the span
that was open when this one started, or -1 for a root.  The program is
single-threaded, so spans nest strictly and a stack of open spans gives
every parent.  Spans stay in memory until the run ends and are then
written out in one piece, so tracing does no I/O while the run is timed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[[tuple], Any] | None = None,
        after: Callable[[Any, tuple, Any], None] | None = None,
    ) -> Callable:
        """Return `fn` recorded as a span called `name`.

        `before(args)` runs just ahead of the span and its value is handed
        to `after(token, args, result)`, which runs just after it; neither
        is inside the span, so counting costs are not billed to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(token, args, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, busy seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it because spans nest strictly.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, busy, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + (end - start), own + (end - start) - child_time[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
