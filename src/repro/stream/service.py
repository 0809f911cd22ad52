"""The long-running ``repro watch`` service loop.

Architecture (one :class:`WatchService` per ``repro watch`` invocation, one
thread -- the caller's -- that reads, parses and checks):

* The **main loop** makes rounds over the sources in sorted order: one
  non-blocking :meth:`~repro.stream.tailer.LogTailer.poll` (at most one
  chunk) of a source with no line pending, then a bounded batch of its
  pending lines -- deterministic given the consumed data.  Nothing is read
  while lines are pending, so when checking falls behind the file simply
  grows and ingestion memory stays one chunk per source.  Lines are parsed
  through the configured :class:`~repro.pipeline.logs.LogAdapter`, what
  will not parse is quarantined, and each source's
  :class:`~repro.stream.incremental.IncrementalChecker` advances inline.
  A round that consumed nothing -- every source at EOF, waiting for its
  file or holding back a partial tail -- idles for ``poll_interval``.
* A **watchdog** flags sources that have produced no data for
  ``stall_timeout`` seconds (runtime diagnostics only -- a stalled source
  is not an error).
* **Graceful drain**: :meth:`WatchService.request_stop` (wired to
  SIGTERM/SIGINT by the CLI) stops reading, checks everything already
  pending, then writes the final checkpoint and report.  The exit code is
  ``128 + signum`` (143 for SIGTERM, 130 for SIGINT); a clean ``--once``
  completion exits 1 if any trace violated its specification, else 0.  A
  ``--once`` source that cannot be opened is refused before anything is
  read (one ``error:`` line, exit 2); follow mode waits for it to appear.

One source file is one trace: the service does not merge events across
files, because live per-node logs cannot be totally ordered without the
offline merge the batch pipeline performs.

Checkpointed positions are *consumed* positions -- lines read but still
pending at checkpoint time are re-read on resume.  Note the one caveat: a
periodic (non-drain) checkpoint races with a rotation that happens after it;
the drain checkpoint written on shutdown is always consistent.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Annotated, Any, Deque, Dict, List, Optional, Sequence, TextIO, Tuple

from ..obs import SCHEMA_VERSION as OBS_SCHEMA_VERSION, STATUS_KIND, current as obs_current
from ..pipeline.logs import (
    LogEvent,
    LogIngestError,
    LogParseError,
    adapter_names,
    get_adapter,
    split_location,
)
from ..pipeline.runner import record_cache_telemetry
from ..resilience import WatchCheckpoint, atomic_write_text, write_watch_checkpoint
from ..tla import Specification
from ..tla.trace import SuccessorCache
from .incremental import IncrementalChecker
from .report import QuarantineLog, build_report, render_report, write_report
from .tailer import LogTailer, TailedLine

__all__ = ["WatchConfig", "WatchService"]


@dataclass
class WatchConfig:
    """Tunable behaviour of one :class:`WatchService`.

    The one validator of the ``watch`` options: construction refuses a value
    out of range, or ``checkpoint_every`` without ``checkpoint_path``, with
    a ``ValueError`` naming the field (the CLI prints it as its one
    ``error:`` line).
    """

    # A field typed ``Annotated[T, {...}]`` is also a ``repro watch`` flag
    # of that name: the dict is its help and any other flag spelling,
    # metavar or choices (see ``repro.pipeline.cli``).
    adapter: Annotated[str, {
        "choices": adapter_names(),
        "help": "log line format (default: %(default)s)",
    }] = "jsonl"
    poll_interval: Annotated[float, {
        "help": "seconds the service loop idles when no source has a line to check: "
        "paces re-polls at EOF, torn-line retries, the watchdog and the reaction to "
        "a stop signal (default: %(default)s)",
    }] = 0.05
    #: The watchdog is always off in ``once`` mode.
    stall_timeout: Annotated[float, {
        "help": "watchdog: flag a source silent this long; 0 disables",
    }] = 30.0
    partial_retries: Annotated[int, {
        "help": "re-reads of a newline-less tail line before declaring it torn",
    }] = 5
    partial_backoff: Annotated[float, {
        "help": "first torn-line retry delay; doubles per retry",
    }] = 0.05
    batch_limit: Annotated[int, {
        "help": "max lines consumed per source per service round",
    }] = 256
    report_path: Annotated[Optional[str], {
        "flag": "--report",
        "metavar": "FILE",
        "help": "rolling report JSON, atomically rewritten while the service runs",
    }] = None
    report_every: Annotated[float, {
        "help": "seconds between rolling report refreshes; 0 = only on drain",
    }] = 5.0
    quarantine_path: Annotated[Optional[str], {
        "flag": "--quarantine",
        "metavar": "FILE",
        "help": "append undecodable lines here as JSONL (with file/offset context)",
    }] = None
    checkpoint_path: Annotated[Optional[str], {
        "flag": "--checkpoint",
        "metavar": "FILE",
        "help": "write a resumable service checkpoint here (periodic + on drain)",
    }] = None
    checkpoint_every: Annotated[Optional[int], {
        "help": "consumed lines between periodic checkpoints (default: 500)",
    }] = None
    once: Annotated[bool, {
        "help": "drain to EOF and exit instead of following forever",
    }] = False
    status_path: Annotated[Optional[str], {
        "flag": "--status-file",
        "metavar": "FILE",
        "help": "atomically rewrite a live service-status JSON here (per-source lag, "
        "queue depths, quarantine rate) on the --report-every cadence",
    }] = None

    def __post_init__(self) -> None:
        every = self.checkpoint_every
        for name, valid, rule in (
            ("poll_interval", self.poll_interval > 0, "positive"),
            ("stall_timeout", self.stall_timeout >= 0, ">= 0"),
            ("partial_retries", self.partial_retries >= 1, ">= 1"),
            ("partial_backoff", self.partial_backoff > 0, "positive"),
            ("batch_limit", self.batch_limit >= 1, ">= 1"),
            ("report_every", self.report_every >= 0, ">= 0"),
            ("checkpoint_every", every is None or every >= 1, ">= 1"),
        ):
            if not valid:
                raise ValueError(f"{name} must be {rule}; got {getattr(self, name)}")
        if every is not None and not self.checkpoint_path:
            raise ValueError("checkpoint_every has no effect without checkpoint_path")


class WatchService:
    """Follow log files and check them against ``spec`` until stopped."""

    def __init__(
        self,
        spec: Specification,
        sources: Sequence[str],
        *,
        per_node: Sequence[str] = (),
        config: Optional[WatchConfig] = None,
        resume_from: Optional[WatchCheckpoint] = None,
        out: Optional[TextIO] = None,
    ) -> None:
        if not sources:
            raise ValueError("watch needs at least one log source")
        self.spec = spec
        self.config = config if config is not None else WatchConfig()
        self.per_node = tuple(per_node)
        self.out = out if out is not None else sys.stderr
        self.sources = sorted(dict.fromkeys(sources))
        self.adapter = get_adapter(self.config.adapter)
        self.quarantine = QuarantineLog(self.config.quarantine_path)
        self.cache = SuccessorCache.for_spec(spec)
        self.stop_signal: Optional[int] = None
        self._obs_run = obs_current()
        #: A plain attribute (a signal handler sets it); read once per round.
        self._stop = False
        #: How often, and for how long, the main loop had nothing to check.
        self.idle_waits = 0
        self.idle_seconds = 0.0
        self._started_at: Optional[float] = None
        self._last_report_at = 0.0
        self._lines_since_checkpoint = 0
        self._checkers: Dict[str, IncrementalChecker] = {}
        self._announced: set = set()
        self._stalled: set = set()
        self._tailers: Dict[str, LogTailer] = {}
        #: Per source: lines read and not yet checked.  A source is polled
        #: only when this is empty, which bounds it to one poll's lines.
        self._pending: Dict[str, Deque[TailedLine]] = {}
        #: Per source: it will not be read again in this run.
        self._source_done: Dict[str, bool] = {}
        self._last_data: Dict[str, float] = {}
        #: Per source: offset/lineno of the last line fully *consumed*
        #: (checked or quarantined) -- the checkpointed resume position.
        self._consumed: Dict[str, Dict[str, int]] = {}

        if self.config.once:
            # Follow mode waits for a file to appear; a drain has nothing to
            # wait for, and a source it cannot read is no clean run.
            for source in self.sources:
                try:
                    open(source, "rb").close()
                except OSError as exc:
                    raise LogIngestError(f"cannot read log file {source!r}: {exc}") from exc
        start: Dict[str, Dict[str, Any]] = {}
        if resume_from is not None:
            resume_from.validate_for(
                spec.name, spec.registry_ref, self.config.adapter
            )
            start = resume_from.sources
            for source, snap in resume_from.checkers.items():
                self._checkers[source] = IncrementalChecker.restore(
                    spec,
                    snap,
                    per_node=self.per_node,
                    source=source,
                    successor_cache=self.cache,
                )
            self.quarantine.count = int(
                resume_from.report.get("quarantined_lines", 0)
            )
        for source in self.sources:
            pos = start.get(source, {})
            self._consumed[source] = {
                "offset": int(pos.get("offset", 0)),
                "lineno": int(pos.get("lineno", 0)),
            }
            self._tailers[source] = LogTailer(
                source,
                start_offset=self._consumed[source]["offset"],
                start_lineno=self._consumed[source]["lineno"],
                partial_retries=self.config.partial_retries,
                partial_backoff=self.config.partial_backoff,
            )
            self._pending[source] = deque()
            self._source_done[source] = False

    # -- control --------------------------------------------------------------
    def request_stop(self, signum: Optional[int] = None) -> None:
        """Begin a graceful drain; safe to call from a signal handler."""
        if signum is not None and self.stop_signal is None:
            self.stop_signal = signum
        self._stop = True

    def run(self) -> int:
        """Tail, check and report until stopped (or drained in once mode)."""
        self._started_at = time.monotonic()
        self._last_report_at = self._started_at
        for source in self.sources:
            self._last_data[source] = self._started_at
        try:
            while True:
                consumed = self._round()
                now = time.monotonic()
                self._watchdog(now)
                self._maybe_emit_report(now)
                self._maybe_checkpoint()
                if consumed:
                    continue
                # Nothing is pending: a stopped or finished run is drained.
                if self._stop or all(self._source_done.values()):
                    break
                started = time.monotonic()
                time.sleep(self.config.poll_interval)
                self.idle_waits += 1
                self.idle_seconds += time.monotonic() - started
        finally:
            for source, tailer in self._tailers.items():
                tailer.close()
                self._source_done[source] = True
            self.quarantine.close()
        self._final_flush()
        return self.exit_code()

    def exit_code(self) -> int:
        if self.stop_signal is not None:
            return 128 + self.stop_signal
        if any(c.status == "violated" for c in self._checkers.values()):
            return 1
        return 0

    # -- reporting ------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The deterministic rolling report for the data consumed so far."""
        return build_report(
            self.spec.name,
            self.config.adapter,
            {s: dict(self._consumed[s]) for s in self.sources},
            {s: c.to_report() for s, c in self._checkers.items()},
            self.quarantine.count,
        )

    def runtime_info(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Wall-clock diagnostics (console only; never checkpointed)."""
        now = time.monotonic() if now is None else now
        uptime = (
            now - self._started_at if self._started_at is not None else None
        )
        events = sum(c.events for c in self._checkers.values())
        return {
            "uptime_seconds": uptime,
            "events_per_second": events / uptime if uptime else 0.0,
            "stalled": sorted(self._stalled),
            "rotations": sum(t.rotations for t in self._tailers.values()),
            "truncations": sum(t.truncations for t in self._tailers.values()),
            "torn_lines": sum(t.torn_lines for t in self._tailers.values()),
            "bytes_read": sum(t.bytes_read for t in self._tailers.values()),
            # Starved (waiting for lines) or busy (checking them)?
            "idle_waits": self.idle_waits,
            "idle_seconds": self.idle_seconds,
        }

    def status(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The live-status document behind ``--status-file``.

        Unlike :meth:`report` this is *not* deterministic -- it exists for
        operators polling a running service, so it carries wall-clock lag,
        queue depths and stall flags that the deterministic report must not.
        """
        now = time.monotonic() if now is None else now
        runtime = self.runtime_info(now)
        sources: Dict[str, Any] = {}
        for source in self.sources:
            checker = self._checkers.get(source)
            sources[source] = {
                "offset": self._consumed[source]["offset"],
                "lineno": self._consumed[source]["lineno"],
                "queue_depth": len(self._pending[source]),
                "bytes_read": self._tailers[source].bytes_read,
                "lag_seconds": round(
                    max(0.0, now - self._last_data.get(source, now)), 3
                ),
                "stalled": source in self._stalled,
                "done": self._source_done[source],
                "status": checker.status if checker is not None else "pending",
                "events": checker.events if checker is not None else 0,
            }
        events = sum(c.events for c in self._checkers.values())
        quarantined = self.quarantine.count
        seen = events + quarantined
        return {
            "kind": STATUS_KIND,
            "v": OBS_SCHEMA_VERSION,
            "run_id": self._obs_run.run_id if self._obs_run is not None else None,
            "pid": os.getpid(),
            "spec": self.spec.name,
            "adapter": self.config.adapter,
            "uptime_seconds": round(runtime["uptime_seconds"] or 0.0, 3),
            "events_per_second": round(runtime["events_per_second"], 3),
            "quarantine_rate": round(quarantined / seen, 6) if seen else 0.0,
            "sources": sources,
            "totals": {
                "events": events,
                "quarantined_lines": quarantined,
                "violated_traces": sum(
                    1 for c in self._checkers.values() if c.status == "violated"
                ),
            },
            "rotations": runtime["rotations"],
            "truncations": runtime["truncations"],
            "torn_lines": runtime["torn_lines"],
            "idle_waits": runtime["idle_waits"],
            "idle_seconds": round(runtime["idle_seconds"], 3),
            "successor_cache": self.cache.stats(),
        }

    def _write_status(self, now: Optional[float] = None) -> None:
        if not self.config.status_path:
            return
        atomic_write_text(
            self.config.status_path,
            json.dumps(self.status(now), indent=2, sort_keys=True) + "\n",
        )

    # -- main loop ------------------------------------------------------------
    def _checker(self, source: str) -> IncrementalChecker:
        checker = self._checkers.get(source)
        if checker is None:
            checker = IncrementalChecker(
                self.spec,
                per_node=self.per_node,
                source=source,
                successor_cache=self.cache,
            )
            self._checkers[source] = checker
        return checker

    def _round(self) -> int:
        """Read each source with nothing pending, then check a batch of each."""
        consumed = 0
        parsed: List[Tuple[str, List[TailedLine], List[LogEvent]]] = []
        for source in self.sources:
            pending = self._pending[source]
            if not pending and not self._stop and not self._source_done[source]:
                self._poll(source)
            if pending:
                count = min(len(pending), self.config.batch_limit)
                lines = [pending.popleft() for _ in range(count)]
                consumed += count
                parsed.append((source, lines, self._parse_lines(source, lines)))
        if not parsed:
            return 0
        for source, lines, events in parsed:
            checker = self._checker(source)
            for event in events:
                self._feed_one(source, checker, event)
            last = lines[-1]
            self._consumed[source] = {
                "offset": last.offset,
                "lineno": last.lineno,
            }
            self._lines_since_checkpoint += len(lines)
            self._announce_violation(source)
        if self._obs_run is not None:
            self._obs_run.registry.inc("watch.lines_consumed", consumed)
        return consumed

    def _poll(self, source: str) -> None:
        tailer = self._tailers[source]
        batch = tailer.poll()
        if batch.lines:
            self._last_data[source] = time.monotonic()
            self._pending[source].extend(batch.lines)
        if self.config.once and (batch.at_eof or batch.waiting):
            tailer.close()
            self._source_done[source] = True

    def _parse_lines(
        self, source: str, lines: List[TailedLine]
    ) -> List[LogEvent]:
        events: List[LogEvent] = []
        for line in lines:
            if line.torn:
                self.quarantine.record(
                    source=source,
                    lineno=line.lineno,
                    offset=line.offset,
                    reason="torn line (no newline after bounded retries)",
                    raw=line.text,
                )
                continue
            try:
                event = self.adapter.parse_line(
                    line.text, path=source, lineno=line.lineno
                )
            except LogParseError as exc:
                self.quarantine.record(
                    source=source,
                    lineno=line.lineno,
                    offset=line.offset,
                    reason=str(exc),
                    raw=line.text,
                )
                continue
            if event is not None:
                events.append(event)
        return events

    def _feed_one(
        self, source: str, checker: IncrementalChecker, event: LogEvent
    ) -> None:
        try:
            reason = checker.feed(event)
        except LogParseError as exc:
            self.quarantine.record(
                source=source,
                lineno=getattr(exc, "lineno", None),
                offset=None,
                reason=str(exc),
                raw=repr(event),
            )
            return
        if reason is not None:
            # The checker quarantined and counted the event itself
            # (``quarantined_events``): leave the evidence without advancing
            # the line counter.
            self.quarantine.write(
                source=source,
                lineno=split_location(event.location)[1],
                offset=None,
                reason=reason,
                raw=repr(event),
            )

    def _announce_violation(self, source: str) -> None:
        checker = self._checkers.get(source)
        if (
            checker is None
            or checker.status != "violated"
            or source in self._announced
        ):
            return
        self._announced.add(source)
        violation = checker.violation or {}
        print(
            f"watch: VIOLATION in {source} after step "
            f"{violation.get('step')}: {violation.get('detail')}",
            file=self.out,
            flush=True,
        )

    # -- housekeeping ---------------------------------------------------------
    def _watchdog(self, now: float) -> None:
        if self.config.once or self.config.stall_timeout <= 0:
            return
        for source in self.sources:
            if self._source_done[source]:
                continue
            if now - self._last_data.get(source, now) > self.config.stall_timeout:
                if source not in self._stalled:
                    self._stalled.add(source)
                    print(
                        f"watch: source {source} has produced no data for "
                        f"{self.config.stall_timeout:.0f}s (stalled?)",
                        file=self.out,
                        flush=True,
                    )
            else:
                self._stalled.discard(source)

    def _maybe_emit_report(self, now: float) -> None:
        if self.config.report_every <= 0:
            return
        if now - self._last_report_at < self.config.report_every:
            return
        self._last_report_at = now
        report = self.report()
        if self.config.report_path:
            write_report(report, self.config.report_path)
        self._write_status(now)
        print(render_report(report, self.runtime_info(now)), file=self.out, flush=True)

    def _maybe_checkpoint(self) -> None:
        every = self.config.checkpoint_every or 500
        if not self.config.checkpoint_path or self._lines_since_checkpoint < every:
            return
        self._lines_since_checkpoint = 0
        write_watch_checkpoint(self.config.checkpoint_path, self.checkpoint())

    def checkpoint(self) -> WatchCheckpoint:
        """Snapshot the consumed positions and every checker's state."""
        sources: Dict[str, Dict[str, Any]] = {}
        for source in self.sources:
            position: Dict[str, Any] = dict(self._consumed[source])
            position["partial"] = self._tailers[source].partial
            sources[source] = position
        return WatchCheckpoint(
            spec_name=self.spec.name,
            registry_ref=self.spec.registry_ref,
            adapter=self.config.adapter,
            sources=sources,
            checkers={
                source: checker.snapshot()
                for source, checker in sorted(self._checkers.items())
            },
            report={"quarantined_lines": self.quarantine.count},
        )

    def _final_flush(self) -> None:
        if self.config.checkpoint_path:
            write_watch_checkpoint(self.config.checkpoint_path, self.checkpoint())
        report = self.report()
        if self.config.report_path:
            write_report(report, self.config.report_path)
        self._write_status()
        self._record_telemetry(report)
        print(render_report(report, self.runtime_info()), file=self.out, flush=True)

    def _record_telemetry(self, report: Dict[str, Any]) -> None:
        """Fold the drained service's totals into the active telemetry run."""
        run = self._obs_run
        if run is None:
            return
        run.labels.update({"spec": self.spec.name, "adapter": self.config.adapter})
        reg = run.registry
        totals = report.get("totals", {})
        for key in ("events", "steps", "stutters", "quarantined_lines"):
            if totals.get(key):
                reg.inc(f"watch.{key}", totals[key])
        traces = report.get("traces", {})
        for key, value in traces.items():
            if isinstance(value, int) and value:
                reg.inc(f"watch.traces_{key}", value)
        reg.inc("watch.sources", len(self.sources))
        runtime = self.runtime_info()
        for key in ("rotations", "truncations", "torn_lines", "bytes_read", "idle_waits"):
            if runtime.get(key):
                reg.inc(f"watch.{key}", runtime[key])
        reg.set_gauge("watch.events_per_second", runtime["events_per_second"])
        reg.set_gauge("watch.idle_seconds", runtime["idle_seconds"])
        stats = self.cache.stats()
        for key in ("hits", "misses"):
            if stats[key]:
                reg.inc(f"watch.cache_{key}", stats[key])
        record_cache_telemetry(run, stats)
        if self.stop_signal is not None:
            reg.inc("watch.stopped_by_signal")
        run.emit(
            "event",
            name="watch.drained",
            totals=dict(totals),
            traces=dict(traces),
            exit_code=self.exit_code(),
        )
