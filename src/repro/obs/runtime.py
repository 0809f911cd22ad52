"""Run-scoped telemetry runtime: the active run, spans, and progress.

One :class:`ObsRun` is active per process at most.  It owns the run id, the
:class:`~repro.obs.metrics.MetricsRegistry` every layer folds into, the
sink the event stream goes to, and (optionally) the stderr progress
ticker.  Instrumented call sites never hold a reference to it -- they ask
:func:`current` and no-op when it returns ``None``, which is what keeps
every existing output byte-identical when no observability flag is set.
Every layer runs in the one process, so the run's registry sees all of it.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, Optional, TextIO

from .metrics import MetricsRegistry
from .schema import SCHEMA_VERSION
from .sink import JsonlSink, NullSink, Sink

__all__ = [
    "ENV_METRICS_OUT",
    "ENV_RUN_ID",
    "ObsRun",
    "ProgressTicker",
    "current",
    "peak_rss_mb",
    "span",
    "start_run",
]

#: A path here is the CLI's default for ``--metrics-out``.
ENV_METRICS_OUT = "REPRO_METRICS_OUT"

#: Overrides the generated run id; tests pin it for determinism.
ENV_RUN_ID = "REPRO_RUN_ID"

_CURRENT: Optional["ObsRun"] = None


def current() -> Optional["ObsRun"]:
    """The process's active telemetry run, or ``None`` (the fast path)."""
    return _CURRENT


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB.

    ``VmHWM`` from ``/proc/self/status`` where the kernel offers it (it
    belongs to the address space ``exec`` made), else ``ru_maxrss`` (which a
    child inherits from its parent's peak).
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ProgressTicker:
    """Rate-limited heartbeat line on stderr for long explorations.

    Engines call :meth:`due` once per expanded state -- a clock read and a
    compare -- and :meth:`emit` only when the interval elapsed, so the
    heartbeat costs nothing measurable even on million-state runs.
    """

    __slots__ = ("interval", "label", "_stream", "_start", "_deadline")

    def __init__(
        self, interval: float, *, label: str = "", stream: Optional[TextIO] = None
    ) -> None:
        self.interval = float(interval)
        self.label = label
        self._stream = stream
        self._start = time.perf_counter()
        self._deadline = self._start + self.interval

    def due(self) -> bool:
        return time.perf_counter() >= self._deadline

    def emit(self, **fields: Any) -> None:
        now = time.perf_counter()
        self._deadline = now + self.interval
        elapsed = now - self._start
        parts = [f"{key}={value}" for key, value in fields.items()]
        generated = fields.get("generated")
        if generated and elapsed > 0:
            parts.append(f"rate={generated / elapsed:.0f}/s")
        parts.append(f"elapsed={elapsed:.1f}s")
        prefix = f"progress[{self.label}]" if self.label else "progress"
        stream = self._stream if self._stream is not None else sys.stderr
        print(prefix + " " + " ".join(parts), file=stream, flush=True)


class span:
    """Phase timer: nests, aggregates, and (optionally) emits an event.

    Usage is plain ``with span("check.run") as sp: ...``; afterwards
    ``sp.elapsed`` holds the wall-clock duration.  With no active run this
    is exactly two ``perf_counter`` calls around the body -- cheap enough
    that ``engine/core.py`` and ``engine/diskstore.py`` use it as their
    only timing primitive.  With a run active, the duration is folded into
    the ``span.<name>.seconds`` histogram, and when ``emit=True`` a
    ``span`` record carrying the run id, nesting parent and depth goes to
    the sink.  Hot, high-frequency phases (store probes, BFS levels) pass
    ``emit=False`` to aggregate without flooding the event stream.
    """

    __slots__ = ("name", "emit_event", "elapsed", "_started", "_run", "_parent", "_depth")

    def __init__(self, name: str, *, emit: bool = True) -> None:
        self.name = name
        self.emit_event = emit
        self.elapsed = 0.0

    def __enter__(self) -> "span":
        run = _CURRENT
        self._run = run
        if run is not None:
            stack = run.span_stack
            self._parent = stack[-1] if stack else None
            self._depth = len(stack)
            stack.append(self.name)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._started
        run = self._run
        if run is not None:
            stack = run.span_stack
            if self.name in stack:
                # Truncate at our own frame: an exception (e.g. an interrupt
                # mid-BFS-level) can leave inner spans unexited, and they must
                # not pollute the parent/depth of later spans in this run.
                del stack[len(stack) - 1 - stack[::-1].index(self.name):]
            run.registry.observe(f"span.{self.name}.seconds", self.elapsed)
            if self.emit_event:
                run.emit(
                    "span",
                    name=self.name,
                    parent=self._parent,
                    depth=self._depth,
                    seconds=round(self.elapsed, 6),
                    error=exc_type.__name__ if exc_type is not None else None,
                )
        return False


class ObsRun:
    """A single activated telemetry run (one CLI invocation, typically)."""

    def __init__(
        self,
        *,
        command: str,
        run_id: str,
        sink: Sink,
        progress_every: float = 0.0,
        labels: Optional[Dict[str, Any]] = None,
        progress_stream: Optional[TextIO] = None,
    ) -> None:
        self.command = command
        self.run_id = run_id
        self.sink = sink
        self.registry = MetricsRegistry()
        self.labels: Dict[str, Any] = dict(labels or {})
        self.span_stack: list = []
        self.progress: Optional[ProgressTicker] = (
            ProgressTicker(progress_every, label=run_id, stream=progress_stream)
            if progress_every and progress_every > 0
            else None
        )
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False

    def emit(self, kind: str, **fields: Any) -> None:
        """Stamp and forward one record to the sink (thread-safe)."""
        with self._lock:
            seq = self._seq
            self._seq += 1
        record: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "run": self.run_id,
            "seq": seq,
            "ts": time.time(),
            "kind": kind,
        }
        record.update(fields)
        self.sink.emit(record)

    def close(self, *, exit_code: Optional[int] = None, status: str = "ok") -> None:
        """Emit the metrics + ``run_end`` records and deactivate.

        The metrics record carries the process's peak resident set as the
        ``process.peak_rss_mb`` gauge.
        """
        global _CURRENT
        if self._closed:
            return
        self._closed = True
        self.registry.set_gauge("process.peak_rss_mb", peak_rss_mb())
        self.emit("metrics", labels=dict(self.labels), **self.registry.snapshot())
        self.emit("run_end", status=status, exit_code=exit_code)
        self.sink.close()
        if _CURRENT is self:
            _CURRENT = None


def start_run(
    *,
    command: str,
    sink_path: Optional[str] = None,
    sink: Optional[Sink] = None,
    run_id: Optional[str] = None,
    progress_every: Optional[float] = None,
    labels: Optional[Dict[str, Any]] = None,
    progress_stream: Optional[TextIO] = None,
) -> ObsRun:
    """Activate a telemetry run for this process and emit ``run_start``.

    Exactly one run may be active at a time; the run id comes from the
    explicit argument, then ``REPRO_RUN_ID``, then fresh randomness.
    ``progress_every`` (``repro check --progress-every``) is the heartbeat
    interval in seconds; ``None`` prints no heartbeat.
    """
    global _CURRENT
    if progress_every is not None and progress_every <= 0:
        raise ValueError(f"--progress-every must be positive; got {progress_every}")
    if _CURRENT is not None:
        raise RuntimeError(
            f"telemetry run {_CURRENT.run_id!r} is already active in this process"
        )
    resolved_id = run_id or os.environ.get(ENV_RUN_ID) or os.urandom(6).hex()
    if sink is None:
        sink = JsonlSink(sink_path) if sink_path else NullSink()
    run = ObsRun(
        command=command,
        run_id=resolved_id,
        sink=sink,
        progress_every=progress_every,
        labels=labels,
        progress_stream=progress_stream,
    )
    _CURRENT = run
    run.emit("run_start", command=command, labels=dict(run.labels), pid=os.getpid())
    return run
