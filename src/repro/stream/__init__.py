"""Streaming MBTC: trace checking as a long-running service (ISSUE 8).

The batch pipeline reads every log, checks, and exits; production MBTC (the
paper deploys it continuously against live server logs) instead *follows*
logs as the system under test writes them.  This package is that service:

* :mod:`repro.stream.tailer` -- :class:`LogTailer`, rotation- and
  truncation-aware file following with bounded-retry handling of torn
  (partially written) tail lines.
* :mod:`repro.stream.incremental` -- :class:`IncrementalChecker`, a per-trace
  checker that advances state by state as events arrive: the batch
  checker's ``TraceFold`` driven by log events.
* :mod:`repro.stream.report` -- the deterministic rolling coverage/violation
  report and the quarantine channel for undecodable lines.
* :mod:`repro.stream.service` -- :class:`WatchService`, the loop behind
  ``python -m repro watch``: one thread that polls the tailers and checks
  their lines in bounded rounds, a stall watchdog, SIGTERM/SIGINT graceful
  drain and a resumable service checkpoint.
"""

from .incremental import IncrementalChecker
from .report import QuarantineLog, build_report, render_report, report_to_json
from .service import WatchConfig, WatchService
from .tailer import LogTailer, TailBatch, TailedLine

__all__ = [
    "IncrementalChecker",
    "LogTailer",
    "QuarantineLog",
    "TailBatch",
    "TailedLine",
    "WatchConfig",
    "WatchService",
    "build_report",
    "render_report",
    "report_to_json",
]
