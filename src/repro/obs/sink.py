"""Sink seam: where telemetry records go once the runtime emits them.

A sink receives fully-formed, JSON-able record dicts (already stamped with
schema version, run id and sequence number by :mod:`repro.obs.runtime`) and
owns only serialization and transport.  Two implementations ship:

* :class:`JsonlSink` -- appends one JSON object per line to a file, the
  format behind ``--metrics-out`` and the ``REPRO_METRICS_OUT`` channel.
* :class:`NullSink` -- swallows everything; used when a run is active only
  for progress heartbeats, so span/metric aggregation still works without
  a file.

The seam is deliberately tiny (``emit``/``close``) so alternative
transports (a socket, a StatsD bridge, an in-memory buffer for tests) can
be dropped in without touching any instrumented call site.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, TextIO

__all__ = ["JsonlSink", "MemorySink", "NullSink", "Sink"]


class Sink:
    """Interface for telemetry consumers."""

    def emit(self, record: Dict[str, Any]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        pass


class NullSink(Sink):
    """Discards records; aggregation in the registry still happens."""

    def emit(self, record: Dict[str, Any]) -> None:
        pass


class MemorySink(Sink):
    """Buffers records in memory; the test suite's transport."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.closed = False

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class JsonlSink(Sink):
    """Appends records as sorted-key JSON lines to ``path``.

    The file is opened lazily on the first record so that a run which never
    emits (e.g. validation fails before any work starts) leaves no empty
    artifact behind.  Append mode means repeated runs pointed at the same
    path stack cleanly; each run is delimited by its ``run_start`` /
    ``run_end`` records and its own ``run`` id.  Every record is flushed
    immediately -- emission is coarse (spans, per-level events, one
    metrics record), so durability for operators tailing the file wins over
    buffering.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[TextIO] = None

    def emit(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        json.dump(record, self._handle, sort_keys=True, separators=(",", ":"))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
