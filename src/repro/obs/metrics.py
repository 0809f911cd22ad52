"""Process-local metrics: counters, gauges, histograms, and their registry.

The registry is the *aggregated* half of the telemetry layer (spans and the
JSONL sink in :mod:`repro.obs.runtime` / :mod:`repro.obs.sink` are the event
half).  Every execution path folds its statistics into one
:class:`MetricsRegistry` per run -- the engines, the disk store, the stream
service and the batch runner all write the same metric namespace instead of
bespoke ad-hoc fields, and the run's final ``metrics`` record is a snapshot
of it.

Design constraints, in order:

* **Cheap.**  A counter increment is one integer add; a histogram
  observation is one ``bisect`` into a fixed bucket layout.  The hot loops
  only touch the registry at coarse granularity (per BFS level, per run),
  so instrumentation overhead on a checking run stays well under 3%
  (``obs.overhead_share`` in ``benchmarks/`` measures it).
* **Fixed bucket layouts.**  A histogram's bucket edges are fixed at
  creation (:data:`SECONDS_BUCKETS` for durations, :data:`COUNT_BUCKETS`
  for sizes); asking for a histogram again with other edges is an error,
  never a silent re-bucketing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
]

#: Duration bucket edges (seconds): sub-millisecond store probes up to
#: multi-minute checking phases land in distinct buckets.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: Size/count bucket edges: BFS level widths, batch sizes, queue depths.
COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000,
    50_000, 100_000, 500_000, 1_000_000,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time numeric value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with ``<= edge`` (cumulative-style) semantics.

    ``counts`` has ``len(edges) + 1`` slots: ``counts[i]`` holds the
    observations ``v <= edges[i]`` that no earlier bucket caught, and the
    final slot is the overflow bucket for ``v > edges[-1]``.  A value equal
    to an edge lands *in* that edge's bucket.
    """

    __slots__ = ("edges", "counts", "sum", "count", "min", "max")

    def __init__(self, edges: Sequence[float] = SECONDS_BUCKETS) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be a non-empty ascending sequence")
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """One run's named metrics, created on first use.

    Metric names are dotted lowercase paths (``check.generated_states``,
    ``store.flushes``, ``span.check.run.seconds``); the README's
    Observability section documents the stable namespace.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access / update -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def histogram(
        self, name: str, edges: Sequence[float] = SECONDS_BUCKETS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(edges)
        elif tuple(edges) != metric.edges:
            raise ValueError(
                f"histogram {name!r} already registered with layout "
                f"{metric.edges}; got {tuple(edges)}"
            )
        return metric

    def observe(
        self, name: str, value: float, edges: Sequence[float] = SECONDS_BUCKETS
    ) -> None:
        self.histogram(name, edges).observe(value)

    def names(self) -> Iterable[str]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    # -- snapshot ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view: the run's ``metrics`` record."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self._histograms.items())
            },
        }
