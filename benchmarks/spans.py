"""In-memory span recorder for the benchmark's traced pass.

A span is ``(name, start, end, parent, workload)``.  Spans are recorded only
from the benchmark's own files, around the public calls into each layer;
spans *inside* ``repro`` are a later issue.  Everything stays in memory and
is written out once, when the benchmark ends.

Span names are ``<layer>.<stage>`` (``pipeline.parse``, ``mbtcg.replay``):
the layer is the ``repro`` package the wrapped call belongs to.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["REP_SPAN", "Recorder", "Span"]

#: Root span of one staged repetition; stage spans nest under it.
REP_SPAN = "bench.rep"


@dataclass
class Span:
    name: str
    workload: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, workload: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, workload, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, workload: str, root: str) -> Dict[str, float]:
        """Self seconds per span name, over the trees rooted at ``root`` spans.

        A span's self time is its duration minus the part its direct children
        cover.  The roots are included, so the values sum to the roots' total
        duration and ``result[root]`` is the time no child span accounts for.
        """
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.duration
        inside = [False] * len(self.spans)
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.parent is None:
                inside[index] = span.workload == workload and span.name == root
            else:
                inside[index] = inside[span.parent]
            if inside[index]:
                out[span.name] = (
                    out.get(span.name, 0.0) + span.duration - child_total[index]
                )
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")
