"""In-memory spans recorded by the benchmark around its calls into fklab.

A span has a name, a start, an end, the index of its parent span and the task
it belongs to.  The name is ``<layer>.<call>[.<qualifier>]``: the first dotted
component is the fklab module (the layer) whose public function was called,
or ``bench`` for the benchmark's own task, setup and probe spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans in memory; nothing is written until ``to_json``."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent, task, start_ns, end_ns]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, task: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if task is None and parent is not None:
            task = self.spans[parent][2]
        idx = len(self.spans)
        self.spans.append([name, parent, task, time.perf_counter_ns(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][4] = time.perf_counter_ns()

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the part its child spans cover."""
        out = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def calls(self, name: str) -> list[float]:
        """Self times in ms of every span with this exact name."""
        own = self.self_ns()
        return [own[i] / 1e6 for i, s in enumerate(self.spans) if s[0] == name]

    def mean_ms(self, name: str) -> float:
        """Mean self time in ms per call; 0.0 when the workload never made the call."""
        ms = self.calls(name)
        return sum(ms) / len(ms) if ms else 0.0

    def layer_self_ms(self) -> dict:
        """Total self time in ms per layer (first name component)."""
        out: dict = {}
        for s, own in zip(self.spans, self.self_ns()):
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own / 1e6
        return out

    def to_json(self) -> list:
        return [
            {"name": n, "parent": p, "task": t, "start_ns": a, "end_ns": b}
            for n, p, t, a, b in self.spans
        ]


class NullTracer:
    """Same call sites as ``Tracer`` with nothing recorded (the untraced run)."""

    def span(self, name: str, task: int | None = None):
        return nullcontext()


NULL = NullTracer()
