"""Per-trace incremental MBTC: advance a trace check one event at a time.

The batch checker (:func:`repro.tla.trace.check_trace`) needs the whole
trace up front; a streaming service has only a prefix that grows.  The
:class:`IncrementalChecker` is the same :class:`~repro.tla.trace.TraceFold`
fed by log events instead of a state list: each event becomes the next
binding (:func:`~repro.pipeline.logs.apply_event`) and one fold step, so
verdicts arrive while the system under test is still running.

The fold is deterministic, which the service checkpoint relies on: a checker
restored from its :meth:`~IncrementalChecker.snapshot` and fed the rest of
the log ends with the counters of an uninterrupted run.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..pipeline.logs import LogEvent, LogParseError, anchor_binding, apply_event, per_node_slots
from ..tla import EvaluationError, Specification
from ..tla.trace import STUTTER, Binding, SuccessorCache, TraceFold

__all__ = ["IncrementalChecker"]

#: The counters a checkpoint carries and the report prints.
_COUNTERS = ("events", "steps", "stutters", "quarantined_events", "after_violation")


class IncrementalChecker(TraceFold):
    """One live trace's checking state, advanced as its log grows."""

    def __init__(
        self,
        spec: Specification,
        *,
        per_node: Sequence[str],
        source: str = "<stream>",
        successor_cache: Optional[SuccessorCache] = None,
    ) -> None:
        super().__init__(spec, successor_cache)
        self.per_node_slots = per_node_slots(spec, per_node)
        self.source = source
        self.started = False
        self.events = 0
        self.quarantined_events = 0
        #: Events that arrived after a violation froze this checker.
        self.after_violation = 0
        self.violation: Optional[Dict[str, Any]] = None
        self.visited: set = set()
        initials = self.cache.initial_bindings()
        # With several initial states ``self.state`` stays None until the
        # first event -- such a stream must open with a snapshot anchor.
        if len(initials) == 1:
            self._anchor(initials[0])

    @property
    def status(self) -> str:
        return "conforming" if self.violation is None else "violated"

    def _anchor(self, binding: Binding) -> None:
        self.begin(binding, require_initial=False)
        self.visited = {self.fingerprint()}

    # -- feeding --------------------------------------------------------------
    def feed(self, event: LogEvent) -> Optional[str]:
        """Advance by one event; the reason if it had to be quarantined.

        An event that cannot be applied (unknown variable, bad node index) or
        whose step cannot be evaluated is quarantined: counted, state
        unchanged, the stream continues.  The first violation freezes the
        fold -- later events are counted but unchecked, as the batch checker
        stops at the first non-conforming step.  A malformed or missing
        anchor raises :class:`LogParseError` before anything is counted; the
        caller quarantines that line.
        """
        anchor = None if self.started else anchor_binding(self.cache, event)
        if anchor is None and self._binding is None:
            raise LogParseError(
                f"specification {self.spec.name!r} has multiple initial "
                "states; a streamed trace must begin with a snapshot event"
            )
        self.started = True
        self.events += 1
        if anchor is not None:
            self._anchor(anchor)
        elif self.violation is not None:
            self.after_violation += 1
        else:
            try:
                nxt = apply_event(self.cache, self._binding, event, self.per_node_slots)
                matched = self.step(nxt, f"event at {event.location} ({event.action!r})")
            except (LogParseError, EvaluationError) as exc:
                self.quarantined_events += 1
                return str(exc)
            if matched is None:
                self.violation = {
                    "step": self.steps,
                    "location": event.location,
                    "detail": str(self.failure),
                }
            elif matched != STUTTER:
                self.visited.add(self.fingerprint())
        return None

    # -- checkpointing --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable state for the service checkpoint."""
        return {
            **{name: getattr(self, name) for name in _COUNTERS},
            "state": self.state,
            "started": self.started,
            "status": self.status,
            "violation": self.violation,
            "action_counts": dict(self.action_counts),
            "visited": set(self.visited),
        }

    @classmethod
    def restore(
        cls,
        spec: Specification,
        data: Dict[str, Any],
        *,
        per_node: Sequence[str],
        source: str = "<stream>",
        successor_cache: Optional[SuccessorCache] = None,
    ) -> "IncrementalChecker":
        checker = cls(
            spec, per_node=per_node, source=source, successor_cache=successor_cache
        )
        for name in _COUNTERS + ("state", "started", "violation"):
            setattr(checker, name, data[name])
        checker.action_counts = dict(data["action_counts"])
        checker.visited = set(data["visited"])
        return checker

    def to_report(self) -> Dict[str, Any]:
        """The deterministic per-trace section of the rolling report."""
        return {
            **{name: getattr(self, name) for name in _COUNTERS},
            "status": self.status,
            "violation": self.violation,
            "action_counts": dict(sorted(self.action_counts.items())),
            "distinct_states": len(self.visited),
        }
