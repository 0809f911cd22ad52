"""Batch trace checking with merged coverage.

Paper Section 4.2.4 wants MBTC "deployed to continuous integration": many
traces checked in one run, with one combined coverage number at the end.
This runner does that, with two executors:

* ``executor="thread"`` -- the calling thread, one trace after another on
  the spec's own :class:`~repro.tla.trace.SuccessorCache`
  (``SuccessorCache.for_spec``): one compiled expander, one value interner,
  one decode plan and one successor memo for the whole batch and for
  whatever decoded its traces (different traces of one workload revisit the
  same states and, far more often, the same variable bindings).  Trace
  checking is pure Python, so more threads would only take turns on the
  GIL and that cache's lock: ``workers`` must be 1.
* ``executor="process"`` -- a process pool for real multi-core throughput.
  Each worker rebuilds the spec from its registry name (specs are closures
  and do not pickle; see :mod:`repro.tla.registry`) and keeps a private
  ``SuccessorCache``; traces are shipped in chunks to amortize pickling, and
  the per-process cache counters are summed into the final report.

Per-trace coverage reports are absorbed into one accumulator either way, and
the result prints as a TLC-style summary.

Robustness: a trace whose *check* raises (malformed input, a spec operator
blowing up on an unreachable state) is recorded as an *error* outcome
instead of killing the batch -- CI wants the other 9,999 verdicts plus one
error entry, not a traceback -- unless ``fail_fast=True`` stops the batch at
the first failed or errored trace.  The process executor dispatches through
the supervised pool (:mod:`repro.resilience.supervisor`), so a crashed or
hung worker costs one retried chunk; once a chunk exhausts its retries, it
and every chunk after it are checked in the coordinator instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs import current as obs_current
from ..resilience import SupervisedPool, SupervisionConfig, SupervisionStats
from ..tla import Specification, State
from ..tla.coverage import CoverageReport
from ..tla.registry import build_worker_spec, worker_spec_args
from ..tla.trace import BoundTrace, SuccessorCache, TraceCheckResult, TraceFold, explain_failure
from .workload import GeneratedTrace

__all__ = [
    "BatchReport",
    "EXECUTORS",
    "TraceOutcome",
    "cache_line",
    "check_one",
    "check_traces",
    "process_worker_init",
    "record_cache_telemetry",
    "worker_runtime",
]

TraceLike = Union[GeneratedTrace, Sequence[State]]
#: One unit of batch work: ``(index, trace, labelled)``.
Item = Tuple[int, GeneratedTrace, bool]
Checked = Tuple["TraceOutcome", Optional[CoverageReport]]

EXECUTORS = ("thread", "process")

#: Traces shipped per process-pool task: big enough that pickling a chunk is
#: cheap next to checking it, small enough that a 4-worker pool stays busy on
#: batches of a few dozen traces.
_PROCESS_CHUNK = 16


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
    workers: int = 1
    executor: str = "thread"
    cache_hits: int = 0
    cache_misses: int = 0
    #: :meth:`SuccessorCache.stats` of the batch: the kernel kind, and the
    #: counters of the successor memo, the interner and the kernel's read-set
    #: memo, summed over the worker processes under the process executor.
    cache_stats: Dict[str, Any] = field(default_factory=dict)
    #: True when ``fail_fast`` stopped the batch before checking every trace.
    stopped_early: bool = False
    #: Supervised-pool statistics (process executor only; None otherwise).
    supervision: Optional[SupervisionStats] = None

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
            f"{self.spec_name}: checked {self.total} trace(s) with {self.workers} "
            f"{self.executor} worker(s) in {self.duration_seconds:.2f}s"
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
        supervision = self.supervision and self.supervision.summary()
        if supervision:
            lines.append("  " + supervision)
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


def _add_stats(total: Dict[str, Any], delta: Dict[str, Any]) -> None:
    for name, value in delta.items():
        total[name] = value if name == "kernel" else total.get(name, 0) + value


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
    allow_stuttering: bool,
    require_initial: bool,
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


def _check_chunk(
    spec: Specification, cache: SuccessorCache, options: Dict[str, bool], chunk: List[Item]
) -> Tuple[List[Checked], Dict[str, Any]]:
    """Check a chunk against ``cache``; returns results + cache-stat deltas."""
    check = partial(check_one, spec, cache, **options)
    before = cache.stats()
    results = [_judge(check, item) for item in chunk]
    return results, _stats_delta(before, cache.stats())


# ---------------------------------------------------------------------------
# Process-executor worker side: one spec + SuccessorCache per worker process.
# ---------------------------------------------------------------------------

_RUNNER_SPEC: Optional[Specification] = None


def process_worker_init(*spec_args: Any) -> None:
    """Worker-process initializer: rebuild the spec from its registry ref.

    Takes :func:`~repro.tla.registry.worker_spec_args`; tasks reach the spec
    through :func:`worker_runtime`.
    """
    global _RUNNER_SPEC
    _RUNNER_SPEC = build_worker_spec(*spec_args)


def worker_runtime() -> Tuple[Specification, SuccessorCache]:
    """The per-worker spec and successor cache set up by :func:`process_worker_init`."""
    if _RUNNER_SPEC is None:
        raise RuntimeError(
            "worker_runtime() called outside an initialized worker process; "
            "pass process_worker_init as the pool initializer"
        )
    return _RUNNER_SPEC, SuccessorCache.for_spec(_RUNNER_SPEC)


def _process_check_chunk(chunk: List[Item], options: Dict[str, bool]) -> tuple:
    """Pool task: :func:`_check_chunk` on this worker's spec and cache."""
    return _check_chunk(*worker_runtime(), options, chunk)


class _FailFastStop(Exception):
    """Internal: raised by the consumer to stop a ``fail_fast`` batch."""


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
    fail_fast: bool = False,
    supervision: Optional[SupervisionConfig] = None,
) -> BatchReport:
    """Check every trace against ``spec``; return a :class:`BatchReport`.

    ``executor`` selects where the checks run: ``"thread"`` (the calling
    thread, ``workers=1``) or ``"process"`` (``workers`` supervised worker
    processes; requires a registry-built spec).  ``reachable_count`` (e.g.
    ``CheckResult.distinct_states`` from a full model-checking run) turns
    merged coverage into a fraction of the reachable state space -- the number
    the paper says TLC cannot produce across runs.

    ``fail_fast=True`` stops the batch at the first failed, errored or
    surprising trace (``report.stopped_early`` records that the totals cover
    a prefix of the workload).  ``supervision`` sets the task timeout of the
    supervised worker pool behind the process executor (the thread executor
    refuses it); chaos fault injection reaches that pool through the
    ``REPRO_CHAOS_*`` environment (see
    :meth:`repro.resilience.faults.FaultPlan.from_env`).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if executor == "thread" and workers > 1:
        raise ValueError(
            f"executor='thread' checks in the calling thread and takes workers=1; "
            f"got workers={workers} -- use executor='process' for worker processes"
        )
    if executor == "thread" and supervision is not None:
        raise ValueError(
            "supervision applies to the process executor's worker pool; "
            "executor='thread' checks in the calling thread and runs no pool"
        )
    if executor == "process" and spec.registry_ref is None:
        raise ValueError(
            f"executor='process' requires a registered specification, but "
            f"{spec.name!r} has no registry_ref; build it via "
            "repro.tla.registry.build_spec so worker processes can rebuild it"
        )
    started = time.perf_counter()
    report = BatchReport(spec_name=spec.name, workers=workers, executor=executor)
    accumulator = (
        CoverageReport(spec_name=spec.name, reachable_count=reachable_count)
        if collect_coverage
        else None
    )

    def consume(outcome: TraceOutcome, coverage: Optional[CoverageReport]) -> None:
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
            raise _FailFastStop

    items = ((i, *_as_generated(t, i)) for i, t in enumerate(traces))
    options = dict(
        allow_stuttering=allow_stuttering,
        require_initial=require_initial,
        collect_coverage=collect_coverage,
    )
    try:
        if executor == "thread":
            self_cache = SuccessorCache.for_spec(spec)
            before = self_cache.stats()
            check = partial(check_one, spec, self_cache, **options)
            for item in items:
                consume(*_judge(check, item))
            report.cache_stats = _stats_delta(before, self_cache.stats())
        else:
            _check_traces_process(
                spec, items, workers, options, supervision, report, consume
            )
    except _FailFastStop:
        report.stopped_early = True

    if accumulator is not None:
        accumulator.trace_count = report.total
        report.coverage = accumulator
    report.cache_hits = report.cache_stats.get("hits", 0)
    report.cache_misses = report.cache_stats.get("misses", 0)
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


def _check_traces_process(
    spec: Specification,
    items: Iterable[Item],
    workers: int,
    options: Dict[str, bool],
    supervision: Optional[SupervisionConfig],
    report: BatchReport,
    consume,
) -> None:
    """The process-executor path: chunks through the supervised pool.

    A chunk whose task exhausts its retries (or comes after the pool gave
    up) is rechecked inline in the coordinator, on the spec's own cache --
    trace checking is deterministic, so the verdicts are exactly what the
    worker would have produced.  ``consume`` may raise to stop the batch
    (fail-fast); supervision statistics are recorded either way.
    """

    def inline(chunk: List[Item], options: Dict[str, bool]) -> tuple:
        return _check_chunk(spec, SuccessorCache.for_spec(spec), options, chunk)

    pending = iter(items)
    chunks = iter(lambda: list(islice(pending, _PROCESS_CHUNK)), [])
    with SupervisedPool(
        workers,
        initializer=process_worker_init,
        initargs=worker_spec_args(spec),
        config=supervision,
        name="runner",
    ) as pool:
        report.supervision = pool.stats
        tasks = ((chunk, options) for chunk in chunks)
        for results, stats in pool.map(_process_check_chunk, tasks, inline):
            _add_stats(report.cache_stats, stats)
            for outcome, coverage in results:
                consume(outcome, coverage)
