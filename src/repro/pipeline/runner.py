"""Batch trace checking with merged coverage.

Paper Section 4.2.4 wants MBTC "deployed to continuous integration": many
traces checked in one run, with one combined coverage number at the end.
This runner does that in the calling thread, one trace after another on
the spec's own :class:`~repro.tla.trace.SuccessorCache`
(``SuccessorCache.for_spec``): one compiled expander, one value interner,
one decode plan and one successor memo for the whole batch and for whatever
decoded its traces (different traces of one workload revisit the same
states and, far more often, the same variable bindings).  Trace checking is
pure Python, so more threads would only take turns on the GIL, and two
worker processes never beat this fold by 1.3x on a shipped workload.

Per-trace coverage reports are absorbed into one accumulator, and the result
prints as a TLC-style summary.

Robustness: a trace whose *check* raises (malformed input, a spec operator
blowing up on an unreachable state) is recorded as an *error* outcome
instead of killing the batch -- CI wants the other 9,999 verdicts plus one
error entry, not a traceback -- unless ``fail_fast=True`` stops the batch at
the first failed or errored trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Annotated, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs import current as obs_current
from ..tla import Specification, State
from ..tla.coverage import CoverageReport
from ..tla.trace import BoundTrace, SuccessorCache, TraceCheckResult, TraceFold, explain_failure
from .workload import GeneratedTrace

__all__ = [
    "BatchReport",
    "TraceOutcome",
    "cache_line",
    "check_one",
    "check_traces",
    "record_cache_telemetry",
]

TraceLike = Union[GeneratedTrace, Sequence[State]]
#: One unit of batch work: ``(index, trace, labelled)``.
Item = Tuple[int, GeneratedTrace, bool]
Checked = Tuple["TraceOutcome", Optional[CoverageReport]]


@dataclass
class TraceOutcome:
    """The verdict for one trace of a batch."""

    index: int
    ok: bool
    expected_ok: Optional[bool] = None
    fault: Optional[str] = None
    detail: str = ""
    #: ``"ExceptionType: message"`` when checking this trace *raised* rather
    #: than returning a verdict; such a trace is neither passed nor failed.
    error: Optional[str] = None

    @property
    def surprising(self) -> bool:
        """True when the verdict contradicts the generator's expectation."""
        if self.error is not None:
            return False  # no verdict to contradict
        return self.expected_ok is not None and self.ok != self.expected_ok


@dataclass
class BatchReport:
    """Aggregate outcome of checking one batch of traces."""

    spec_name: str
    total: int = 0
    passed: int = 0
    failed: int = 0
    surprises: List[TraceOutcome] = field(default_factory=list)
    failures: List[TraceOutcome] = field(default_factory=list)
    #: Traces whose check raised instead of returning a verdict.
    errors: List[TraceOutcome] = field(default_factory=list)
    coverage: Optional[CoverageReport] = None
    duration_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: :meth:`SuccessorCache.stats` of the batch: the kernel kind, and the
    #: counters of the successor memo, the interner and the kernel's read-set
    #: memo.
    cache_stats: Dict[str, Any] = field(default_factory=dict)
    #: True when ``fail_fast`` stopped the batch before checking every trace.
    stopped_early: bool = False

    @property
    def ok(self) -> bool:
        """True when every verdict matched expectations.

        Labelled traces (from the workload generator) must pass or fail as
        predicted; an unlabelled trace (a plain state sequence) must pass.
        A trace that *errored* produced no verdict at all, which is never ok.
        """
        if self.surprises or self.errors:
            return False
        return all(outcome.expected_ok is not None for outcome in self.failures)

    @property
    def traces_per_second(self) -> float:
        """Checked traces per wall-clock second (MBTC's headline number)."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.total / self.duration_seconds

    def summary(self) -> str:
        """Multi-line TLC-style batch summary."""
        lines = [
            f"{self.spec_name}: checked {self.total} trace(s) in {self.duration_seconds:.2f}s"
            + ("  [stopped early: fail-fast]" if self.stopped_early else ""),
            f"  PASS {self.passed}  FAIL {self.failed}  "
            f"ERROR {len(self.errors)}  "
            f"unexpected verdicts {len(self.surprises)}",
        ]
        if self.coverage is not None:
            lines.append("  coverage: " + self.coverage.summary())
            exercised = sorted(
                name for name, count in self.coverage.action_counts.items() if count
            )
            if exercised:
                lines.append("  actions exercised: " + ", ".join(exercised))
        if self.cache_hits + self.cache_misses:
            lines.append("  " + cache_line(self.cache_stats))
        return "\n".join(lines)


def cache_line(stats: Dict[str, Any]) -> str:
    """The one-line successor-cache summary of ``simulate`` and ``trace``."""
    lookups = stats["hits"] + stats["misses"]
    return (
        f"successor cache: {stats['hits']}/{lookups} hits "
        f"({stats['hits'] / max(1, lookups):.0%}) [{stats['kernel']}]"
    )


def record_cache_telemetry(run: Any, stats: Dict[str, Any]) -> None:
    """Fold :meth:`SuccessorCache.stats` into a telemetry run.

    The kernel's read-set memo reports under the names ``check`` uses
    (``compile.memo_*``), the interner beside it (``compile.interner_*``);
    ``trace.cache_entries`` is the successor memo's size, ``trace.successors``
    the successors it holds and ``trace.binding_entries`` the distinct
    states the decode plan has bound.  With these and the driver's own
    hit/miss counters a slow batch is explainable from ``--metrics-out``
    alone: a cold cache, an interner that evicted, a memo that cannot hit,
    or -- ``trace.decode_*`` / ``trace.splice_*``, the decode plan -- a batch
    whose every payload is distinct.
    """
    run.labels["kernel"] = stats["kernel"]
    reg = run.registry
    for name, value in stats.items():
        if name.startswith(("memo_", "interner_")) and value > 0:
            reg.inc(f"compile.{name}", value)
        elif name.startswith(("decode_", "splice_")) and value > 0:
            reg.inc(f"trace.{name}", value)
    for name in ("cache_entries", "successors", "binding_entries"):
        if stats[name] > 0:
            reg.inc(f"trace.{name}", stats[name])


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    return {
        name: value if name == "kernel" else value - before[name]
        for name, value in after.items()
    }


def _as_generated(item: TraceLike, index: int) -> tuple:
    """Normalize to (GeneratedTrace, labelled): plain sequences carry no expectation."""
    if isinstance(item, GeneratedTrace):
        return item, True
    states = item if isinstance(item, BoundTrace) else list(item)
    return GeneratedTrace(states=states, actions=[None] * len(states), seed=index), False


def check_one(
    spec: Specification,
    cache: Optional[SuccessorCache],
    trace: Sequence[Any],
    *,
    # A parameter typed ``Annotated[T, {...}]`` is also a ``repro trace``
    # flag (see ``repro.pipeline.cli``).
    require_initial: Annotated[bool, {
        "flag": "--no-require-initial",
        "help": "accept traces that start mid-execution",
    }] = True,
    allow_stuttering: Annotated[bool, {
        "flag": "--no-stuttering",
        "help": "reject stuttering steps",
    }] = True,
    collect_coverage: bool,
) -> Tuple[TraceCheckResult, Optional[CoverageReport]]:
    """Check one trace, with the coverage of exactly the states it validated.

    The fold fills the report as it goes, so only validated states count:
    everything up to a failing transition was witnessed as a behaviour
    prefix, the rest was never checked and may not even be reachable.
    ``repro trace`` and every path of :func:`check_traces` call this, the
    latter with everything but ``trace`` bound.
    """
    coverage = (
        CoverageReport(spec_name=spec.name, trace_count=1) if collect_coverage else None
    )
    fold = TraceFold(spec, cache, allow_stuttering=allow_stuttering, coverage=coverage)
    return fold.check(trace, require_initial), coverage


def _judge(check: Callable[[Sequence[Any]], tuple], item: Item) -> Checked:
    """One item's outcome through the bound ``check``.

    An exception raised *by the check itself* (malformed trace item, a spec
    operator blowing up) becomes an error outcome rather than propagating:
    one bad trace must not take the other traces of a CI batch down with it.
    """
    index, generated, labelled = item
    outcome = TraceOutcome(
        index=index,
        ok=False,
        expected_ok=generated.expect_ok if labelled else None,
        fault=generated.fault,
    )
    try:
        result, coverage = check(generated.states)
    except Exception as exc:  # noqa: BLE001 - recorded per trace, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome, None
    outcome.ok = result.ok
    outcome.detail = "" if result.ok else explain_failure(result)
    return outcome, coverage


def check_traces(
    spec: Specification,
    traces: Iterable[TraceLike],
    *,
    workers: int = 1,
    executor: str = "thread",
    allow_stuttering: bool = True,
    require_initial: bool = True,
    reachable_count: Optional[int] = None,
    collect_coverage: bool = True,
    # Also a ``repro simulate`` flag (see ``repro.pipeline.cli``).
    fail_fast: Annotated[bool, {
        "help": "stop the batch at the first failed, errored or unexpected trace",
    }] = False,
) -> BatchReport:
    """Check every trace against ``spec``; return a :class:`BatchReport`.

    ``reachable_count`` (e.g. ``CheckResult.distinct_states`` from a full
    model-checking run) turns merged coverage into a fraction of the
    reachable state space -- the number the paper says TLC cannot produce
    across runs.

    ``fail_fast=True`` stops the batch at the first failed, errored or
    surprising trace (``report.stopped_early`` records that the totals cover
    a prefix of the workload).

    ``workers`` must be 1 and ``executor`` ``"thread"``: both are kept only
    because ``benchmarks/`` still passes them, and go once it stops.
    """
    if workers != 1:
        raise ValueError(
            f"workers must be 1: batch checking runs in the calling thread; got {workers!r}"
        )
    if executor != "thread":
        raise ValueError(
            "executor must be 'thread': batch checking runs in the calling thread; "
            f"got {executor!r}"
        )
    started = time.perf_counter()
    report = BatchReport(spec_name=spec.name)
    accumulator = (
        CoverageReport(spec_name=spec.name, reachable_count=reachable_count)
        if collect_coverage
        else None
    )
    cache = SuccessorCache.for_spec(spec)
    before = cache.stats()
    check = partial(
        check_one,
        spec,
        cache,
        allow_stuttering=allow_stuttering,
        require_initial=require_initial,
        collect_coverage=collect_coverage,
    )
    for index, trace in enumerate(traces):
        outcome, coverage = _judge(check, (index, *_as_generated(trace, index)))
        report.total += 1
        if outcome.error is not None:
            report.errors.append(outcome)
        elif outcome.ok:
            report.passed += 1
        else:
            report.failed += 1
            report.failures.append(outcome)
        if outcome.surprising:
            report.surprises.append(outcome)
        if accumulator is not None and coverage is not None:
            accumulator.absorb(coverage)
        if fail_fast and (outcome.error is not None or outcome.surprising or
                          (not outcome.ok and outcome.expected_ok is None)):
            report.stopped_early = True
            break
    report.cache_stats = _stats_delta(before, cache.stats())

    if accumulator is not None:
        accumulator.trace_count = report.total
        report.coverage = accumulator
    report.cache_hits = report.cache_stats["hits"]
    report.cache_misses = report.cache_stats["misses"]
    report.duration_seconds = time.perf_counter() - started
    _record_batch_telemetry(report)
    return report


def _record_batch_telemetry(report: BatchReport) -> None:
    """Fold batch counters into the active telemetry run, if any."""
    run = obs_current()
    if run is None:
        return
    reg = run.registry
    reg.inc("runner.batches")
    reg.inc("runner.traces_total", report.total)
    reg.inc("runner.traces_passed", report.passed)
    reg.inc("runner.traces_failed", report.failed)
    if report.errors:
        reg.inc("runner.trace_errors", len(report.errors))
    if report.surprises:
        reg.inc("runner.surprises", len(report.surprises))
    if report.cache_hits:
        reg.inc("runner.cache_hits", report.cache_hits)
    if report.cache_misses:
        reg.inc("runner.cache_misses", report.cache_misses)
    if report.stopped_early:
        reg.inc("runner.stopped_early")
    if report.cache_stats:
        record_cache_telemetry(run, report.cache_stats)
    reg.set_gauge("runner.duration_seconds", report.duration_seconds)
    reg.set_gauge("runner.traces_per_second", report.traces_per_second)

