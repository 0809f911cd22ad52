"""The rolling report and the quarantine channel of the watch service.

Two output artifacts, with opposite determinism requirements:

* The **rolling report** is the service's merged coverage/violation view,
  rewritten atomically while the service runs and finalized on drain.  Its
  content is a *pure function of the consumed log data* -- counters, offsets
  and verdicts only, no wall-clock timestamps or rates -- which is what makes
  the ``--resume`` bit-identity contract testable: an interrupted-then-
  resumed service must write byte-for-byte the report an uninterrupted run
  writes.  Runtime-only information (uptime, events/sec, stalled sources)
  is rendered to the console, never into the report file.
* The **quarantine log** is an append-only JSONL side channel for lines the
  service refused to parse -- torn tails, malformed trace events, events
  naming unknown variables -- each with its source file, line number, byte
  offset and reason, so an operator can ``sed -n`` straight to the offending
  input instead of grepping for a quoted snippet.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..resilience import atomic_write_text

__all__ = [
    "QuarantineLog",
    "build_report",
    "render_report",
    "report_to_json",
    "write_report",
]


class QuarantineLog:
    """Append-only JSONL record of undecodable input lines."""

    def __init__(self, path: Optional[str] = None, *, count: int = 0) -> None:
        self.path = path
        #: Restored from the service checkpoint on resume, so the rolling
        #: report's quarantine counter survives an interruption.
        self.count = count
        self._handle = None

    def record(self, **entry: Any) -> Dict[str, Any]:
        """Quarantine one line: :meth:`write` its record and count it."""
        self.count += 1
        return self.write(**entry)

    def write(
        self,
        *,
        source: str,
        lineno: Optional[int],
        offset: Optional[int],
        reason: str,
        raw: str,
    ) -> Dict[str, Any]:
        """Append one record (uncounted: an event its checker already counted)."""
        entry = {
            "source": source,
            "lineno": lineno,
            "offset": offset,
            "reason": reason,
            "raw": raw[:500],
        }
        if self.path is not None:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
            self._handle.flush()
        return entry

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None


def build_report(
    spec_name: str,
    adapter: str,
    sources: Dict[str, Dict[str, Any]],
    checkers: Dict[str, Dict[str, Any]],
    quarantined: int,
) -> Dict[str, Any]:
    """The deterministic rolling report document.

    ``sources`` maps each source path to its consumed ``{"offset", "lineno"}``
    and ``checkers`` maps it to ``IncrementalChecker.to_report()``.  Sources
    are emitted in sorted path order and every aggregate is a commutative
    fold, so the document does not depend on the order the service's rounds
    consumed the sources in.
    """
    merged_actions: Dict[str, int] = {}
    violations: List[Dict[str, Any]] = []
    totals = {
        "events": 0,
        "steps": 0,
        "stutters": 0,
        "quarantined_lines": quarantined,
        "quarantined_events": 0,
        "after_violation": 0,
    }
    distinct = 0
    per_source: Dict[str, Dict[str, Any]] = {}
    for path in sorted(set(sources) | set(checkers)):
        section: Dict[str, Any] = dict(sources.get(path, {}))
        checker = checkers.get(path)
        if checker is not None:
            section.update(checker)
            totals["events"] += checker["events"]
            totals["steps"] += checker["steps"]
            totals["stutters"] += checker["stutters"]
            totals["quarantined_events"] += checker["quarantined_events"]
            totals["after_violation"] += checker["after_violation"]
            distinct += checker["distinct_states"]
            for name, count in checker["action_counts"].items():
                merged_actions[name] = merged_actions.get(name, 0) + count
            if checker["violation"] is not None:
                violations.append({"source": path, **checker["violation"]})
        per_source[path] = section
    conforming = sum(
        1 for c in checkers.values() if c["status"] == "conforming"
    )
    return {
        "kind": "repro-watch-report",
        "spec": spec_name,
        "adapter": adapter,
        "totals": totals,
        "traces": {
            "total": len(checkers),
            "conforming": conforming,
            "violated": len(violations),
        },
        "action_counts": dict(sorted(merged_actions.items())),
        #: Sum of per-trace distinct-state counts (traces are independent
        #: executions; their state sets are not merged).
        "distinct_states_total": distinct,
        "violations": violations,
        "sources": per_source,
    }


def report_to_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: Dict[str, Any], path: str) -> None:
    """Atomically (re)write the rolling report file."""
    atomic_write_text(path, report_to_json(report))


def render_report(
    report: Dict[str, Any], runtime: Optional[Dict[str, Any]] = None
) -> str:
    """Console rendering: the deterministic core plus runtime-only lines."""
    totals = report["totals"]
    traces = report["traces"]
    lines = [
        f"{report['spec']}: watching {len(report['sources'])} source(s) "
        f"[adapter={report['adapter']}]",
        f"  traces: {traces['total']} total, {traces['conforming']} "
        f"conforming, {traces['violated']} VIOLATED",
        f"  events {totals['events']}  steps {totals['steps']} "
        f"(stutters {totals['stutters']})  "
        f"distinct states {report['distinct_states_total']}",
        f"  quarantined: {totals['quarantined_lines']} line(s), "
        f"{totals['quarantined_events']} event(s)",
    ]
    exercised = ", ".join(sorted(report["action_counts"])) or "(none)"
    lines.append(f"  actions exercised: {exercised}")
    for violation in report["violations"]:
        lines.append(
            f"  VIOLATION {violation['source']} after step "
            f"{violation['step']}: {violation['detail']}"
        )
    if runtime:
        stalled = runtime.get("stalled") or []
        for path in stalled:
            lines.append(f"  WATCHDOG: source {path} is stalled (no new data)")
        if runtime.get("uptime_seconds") is not None:
            lines.append(
                f"  uptime {runtime['uptime_seconds']:.1f}s  "
                f"{runtime.get('events_per_second', 0.0):.0f} events/sec  "
                f"rotations {runtime.get('rotations', 0)}  "
                f"truncations {runtime.get('truncations', 0)}  "
                f"torn {runtime.get('torn_lines', 0)}"
            )
    return "\n".join(lines)
