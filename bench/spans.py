"""Span recording around the benchmark's calls into the package.

Every operation of a batch is a root span (``op.<kind>``) and every call the
operation makes into a package function is a child span named
``<module>.<function>``.  A span is ``(name, start, end, parent, op_id)``:
``parent`` is the index of the enclosing span or -1, and ``op_id`` numbers
the operations of the run.  Spans stay in memory and are written out once,
when the run ends.

Each operation also records the host-speed scale it was timed under (see
``hostspeed``); busy and self times are reported in scaled seconds, like
every other time of the benchmark.

``NullTracer`` has the same interface and records nothing; the untraced
batches that give the end-to-end metrics run through it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Calls straight through; used for every untraced batch."""

    def op(self, kind: str, scale: float) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: int) -> None:
        pass


class Tracer:
    """Records spans and work counts in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_scale: list[float] = []
        self._stack: list[int] = []
        self._op_id = -1

    def op(self, kind: str, scale: float) -> None:
        self._op_id += 1
        self.op_scale.append(scale)
        self._open("op." + kind)

    def end_op(self) -> None:
        self._close()

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self._op_id])

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """name -> (busy seconds, self seconds, calls), scaled.

        Self time is a span's duration minus the part covered by its child
        spans; children never overlap, since the run is single-threaded.
        """
        busy: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, op_id in self.spans:
            dur = self.op_scale[op_id] * (end - start)
            busy[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += dur
        return {
            name: (busy[name], busy[name] - child[name], calls[name])
            for name in busy
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op_id}
                ) + "\n")
