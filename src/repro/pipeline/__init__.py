"""Batch trace-checking pipeline: logs -> traces -> verdicts -> coverage.

The scale layer of the reproduction (ROADMAP north star).  It turns the
single-shot MBTC primitives of :mod:`repro.tla` into a throughput-oriented
pipeline:

* :mod:`~repro.pipeline.logs` -- JSON-lines server-log parsing, multi-node
  stream merging and trace reconstruction,
* :mod:`~repro.pipeline.workload` -- synthetic executions (valid or
  fault-injected) generated straight from a specification,
* :mod:`~repro.pipeline.runner` -- batch checking in the calling thread,
  with successor caching and merged coverage,
* :mod:`~repro.pipeline.cli` -- the ``python -m repro`` command line.

Specifications are built by name through :mod:`repro.tla.registry`.
"""

from .logs import (
    LogEvent,
    LogParseError,
    events_from_trace,
    events_to_trace,
    merge_event_streams,
    parse_log_lines,
    read_log_files,
    trace_from_logs,
    write_log_file,
)
from .runner import BatchReport, TraceOutcome, check_traces
from .workload import GeneratedTrace, generate_trace, generate_workload

__all__ = [
    "BatchReport",
    "GeneratedTrace",
    "LogEvent",
    "LogParseError",
    "TraceOutcome",
    "check_traces",
    "events_from_trace",
    "events_to_trace",
    "generate_trace",
    "generate_workload",
    "merge_event_streams",
    "parse_log_lines",
    "read_log_files",
    "trace_from_logs",
    "write_log_file",
]
