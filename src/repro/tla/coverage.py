"""State-space coverage accounting for trace checking.

Paper Section 4.2.4 lists a missing TLC feature: "the ability to combine
state-space coverage reports over multiple TLC executions on different
traces, which would permit engineers to calculate the total coverage achieved
by deploying MBTC to continuous integration."  This module provides exactly
that: per-trace coverage reports keyed by stable state fingerprints, a merge
operation, and JSON (de)serialization so reports can be accumulated across
processes or CI tasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Set

__all__ = ["CoverageReport", "merge_reports"]


@dataclass
class CoverageReport:
    """Which reachable states (and actions) a set of traces has exercised."""

    spec_name: str
    visited_fingerprints: Set[int] = field(default_factory=set)
    action_counts: Dict[str, int] = field(default_factory=dict)
    reachable_count: Optional[int] = None
    trace_count: int = 0
    #: Per action, in how many covered trace states it was *enabled* --
    #: witnessed-vs-enabled is the classic coverage gap: an action enabled
    #: everywhere but matched nowhere is a hole in the implementation's
    #: exercise of the model.  Cheap to account since enablement queries
    #: short-circuit at the first successor (:meth:`Action.is_enabled`).
    enabled_action_counts: Dict[str, int] = field(default_factory=dict)

    # Metrics -------------------------------------------------------------------
    @property
    def visited_count(self) -> int:
        return len(self.visited_fingerprints)

    def state_fraction(self) -> Optional[float]:
        """Fraction of the reachable state space visited, if the total is known."""
        if not self.reachable_count:
            return None
        return self.visited_count / self.reachable_count

    # Combination ------------------------------------------------------------------
    def merge(self, other: "CoverageReport") -> "CoverageReport":
        """Combine two reports for the same specification (set union)."""
        if other.spec_name != self.spec_name:
            raise ValueError(
                f"cannot merge coverage of {other.spec_name!r} into {self.spec_name!r}"
            )
        merged_actions = dict(self.action_counts)
        for name, count in other.action_counts.items():
            merged_actions[name] = merged_actions.get(name, 0) + count
        merged_enabled = dict(self.enabled_action_counts)
        for name, count in other.enabled_action_counts.items():
            merged_enabled[name] = merged_enabled.get(name, 0) + count
        return CoverageReport(
            spec_name=self.spec_name,
            visited_fingerprints=self.visited_fingerprints | other.visited_fingerprints,
            action_counts=merged_actions,
            reachable_count=self.reachable_count or other.reachable_count,
            trace_count=self.trace_count + other.trace_count,
            enabled_action_counts=merged_enabled,
        )

    def absorb(self, other: "CoverageReport") -> "CoverageReport":
        """In-place variant of :meth:`merge`, returning ``self``.

        :meth:`merge` copies the fingerprint set, which makes folding the
        per-trace reports of a large batch quadratic; the batch runner absorbs
        each report into one accumulator instead.
        """
        if other.spec_name != self.spec_name:
            raise ValueError(
                f"cannot merge coverage of {other.spec_name!r} into {self.spec_name!r}"
            )
        self.visited_fingerprints |= other.visited_fingerprints
        for name, count in other.action_counts.items():
            self.action_counts[name] = self.action_counts.get(name, 0) + count
        for name, count in other.enabled_action_counts.items():
            self.enabled_action_counts[name] = (
                self.enabled_action_counts.get(name, 0) + count
            )
        self.reachable_count = self.reachable_count or other.reachable_count
        self.trace_count += other.trace_count
        return self

    # Serialization -------------------------------------------------------------------
    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "spec_name": self.spec_name,
            "visited_fingerprints": sorted(self.visited_fingerprints),
            "action_counts": self.action_counts,
            "reachable_count": self.reachable_count,
            "trace_count": self.trace_count,
            "enabled_action_counts": self.enabled_action_counts,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CoverageReport":
        payload = json.loads(text)
        return cls(
            spec_name=payload["spec_name"],
            visited_fingerprints=set(payload["visited_fingerprints"]),
            action_counts=dict(payload["action_counts"]),
            reachable_count=payload.get("reachable_count"),
            trace_count=payload.get("trace_count", 0),
            enabled_action_counts=dict(payload.get("enabled_action_counts", {})),
        )

    def summary(self) -> str:
        fraction = self.state_fraction()
        fraction_text = f"{fraction:.1%}" if fraction is not None else "unknown fraction"
        return (
            f"{self.spec_name}: {self.visited_count} states covered by "
            f"{self.trace_count} trace(s) ({fraction_text} of reachable space)"
        )


def merge_reports(reports: Iterable[CoverageReport]) -> CoverageReport:
    """Fold any number of coverage reports for one spec into a single report."""
    iterator = iter(reports)
    try:
        merged = next(iterator)
    except StopIteration:
        raise ValueError("merge_reports() requires at least one report") from None
    for report in iterator:
        merged = merged.merge(report)
    return merged
