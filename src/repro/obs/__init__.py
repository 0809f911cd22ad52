"""Unified telemetry layer: metrics, spans, progress, profiling.

The observability substrate shared by every execution path -- the
engines, the disk-backed store, the stream service, the batch runner and
the CLI.  One activated :class:`ObsRun` per
process owns a run id, a :class:`MetricsRegistry` and a sink emitting
schema-versioned JSONL; instrumented call sites ask :func:`current` and
no-op when observability is off, so with no flags set every existing
output stays byte-identical.

Pieces:

* :mod:`repro.obs.metrics` -- counters, gauges, fixed-bucket histograms,
  and the registry whose snapshot is the run's ``metrics`` record.
* :mod:`repro.obs.runtime` -- the active run, nesting :class:`span` phase
  timers, the stderr :class:`ProgressTicker`, and the ``REPRO_METRICS_OUT``
  / ``REPRO_RUN_ID`` variables the CLI and tests read.
* :mod:`repro.obs.sink` -- the pluggable sink seam (JSONL file, memory,
  null).
* :mod:`repro.obs.schema` -- validators for the JSONL stream and the watch
  ``--status-file`` document, plus the normalizer behind the golden
  determinism test.
* :mod:`repro.obs.profiling` -- the ``--profile`` cProfile wrapper.
"""

from .metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SECONDS_BUCKETS,
)
from .profiling import run_profiled
from .runtime import (
    ENV_METRICS_OUT,
    ENV_RUN_ID,
    ObsRun,
    ProgressTicker,
    current,
    peak_rss_mb,
    span,
    start_run,
)
from .schema import (
    METRIC_KINDS,
    SCHEMA_VERSION,
    STATUS_KIND,
    SchemaError,
    normalized,
    validate_metrics_lines,
    validate_metrics_path,
    validate_status,
    validate_status_path,
)
from .sink import JsonlSink, MemorySink, NullSink, Sink

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "ENV_METRICS_OUT",
    "ENV_RUN_ID",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "METRIC_KINDS",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "ObsRun",
    "ProgressTicker",
    "SCHEMA_VERSION",
    "SECONDS_BUCKETS",
    "STATUS_KIND",
    "SchemaError",
    "Sink",
    "current",
    "normalized",
    "peak_rss_mb",
    "run_profiled",
    "span",
    "start_run",
    "validate_metrics_lines",
    "validate_metrics_path",
    "validate_status",
    "validate_status_path",
]
