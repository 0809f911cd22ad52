"""Per-layer probes: time one layer's public call, outside the timed region.

The end-to-end workloads cannot see inside ``check_spec`` or
``WatchService.run``, so the traced pass times each layer's public entry
point on the same inputs, separately, and estimates its share of the
workload's wall as *per-call time x the run's own exact call count / wall*.
A layer is a ``repro`` package; every probe runs inside a span named after it.

Per-call costs (``*_us``) are medians over individually timed calls; rates
(``*_per_s``) divide a count by the loop's total time, loop overhead
included, because that is what a caller of the public function pays.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.compile import compile_spec
from repro.engine import SpillFrontier, check_spec, make_store
from repro.obs import start_run
from repro.pipeline.logs import get_adapter
from repro.pipeline.runner import check_traces
from repro.stream import IncrementalChecker, LogTailer, report_to_json
from repro.tla.state import State
from repro.tla.trace import SuccessorCache, check_trace

__all__ = [
    "bfs_sample",
    "frontier_probe",
    "obs_probe",
    "report_probe",
    "spec_probes",
    "store_probe",
    "stream_probes",
    "trace_probes",
]

#: Probe sample: the first states in BFS order (all of a smaller space), in
#: that order, so interner and memo caches warm up as they do inside a check.
SAMPLE_STATES = 5000

Build = Callable[[], Any]


def bfs_sample(build: Build) -> List[State]:
    result = check_spec(
        build(), engine="states", collect_graph=True, check_properties=False,
        max_states=SAMPLE_STATES,
    )
    return list(result.graph.states())[:SAMPLE_STATES]


def _timed_calls(call: Callable[[Any], Any], args: Sequence[Any]) -> List[float]:
    clock = time.perf_counter
    times = []
    for arg in args:
        started = clock()
        call(arg)
        times.append(clock() - started)
    return times


def spec_probes(build: Build, sample: Sequence[State]) -> Tuple[Dict[str, float], float]:
    """compile + tla per-call costs on one spec; every workload has a spec.

    Also returns the compiled kernel's seconds per *generated successor*, the
    factor the check workloads scale by their exact generated-state count.
    """
    spec = build()
    started = time.perf_counter()
    compiled = compile_spec(spec)
    compile_s = time.perf_counter() - started

    successors = 0
    expand = compiled.expand

    def counted_expand(values: Tuple[Any, ...]) -> None:
        nonlocal successors
        successors += len(expand(values))

    expand_times = _timed_calls(counted_expand, [state.values for state in sample])
    interpreted_times = _timed_calls(build().successors, sample)
    # State memoizes its fingerprint: rebuild each state so the call is cold.
    schema = spec.schema
    fresh = [State.from_values(schema, state.values) for state in sample]
    fingerprint_times = _timed_calls(State.fingerprint, fresh)
    metrics = {
        "compile.compile_s": compile_s,
        "compile.expand_us": statistics.median(expand_times) * 1e6,
        "tla.spec.successors_us": statistics.median(interpreted_times) * 1e6,
        "tla.values.fingerprint_us": statistics.median(fingerprint_times) * 1e6,
    }
    return metrics, sum(expand_times) / max(1, successors)


def store_probe(
    kind: str, distinct: int, generated: int, seed: int, **store_kwargs: Any
) -> Tuple[float, float]:
    """``(seconds per add, seconds per hit)`` of a visited-state store.

    Inserts ``distinct`` seeded 64-bit ints, then re-adds ``generated -
    distinct`` of them at random -- the BFS's own add/hit mix, without the
    locality a real frontier has, so the hit cost is an upper estimate.
    """
    rng = random.Random(seed)
    fps = [rng.getrandbits(64) for _ in range(distinct)]
    again = [fps[rng.randrange(distinct)] for _ in range(generated - distinct)]
    store = make_store(kind, **store_kwargs)
    try:
        add = store.add
        started = time.perf_counter()
        for fp in fps:
            add(fp)
        add_s = time.perf_counter() - started
        started = time.perf_counter()
        for fp in again:
            add(fp)
        hit_s = time.perf_counter() - started
    finally:
        close = getattr(store, "close", None)
        if close is not None:
            close()
    return add_s / distinct, hit_s / max(1, len(again))


def frontier_probe(sample: Sequence[State], threshold: int) -> float:
    """States per second appended to and re-read from a spilling frontier.

    Four thresholds' worth of states, so three quarters of them take the
    pickle + zlib + temp-file round trip.
    """
    schema = sample[0].schema
    pairs = [(state, state.fingerprint()) for state in sample]
    total = 4 * threshold
    frontier = SpillFrontier(schema, threshold=threshold)
    try:
        started = time.perf_counter()
        for index in range(total):
            frontier.append(pairs[index % len(pairs)])
        for _pair in frontier:
            pass
        elapsed = time.perf_counter() - started
    finally:
        frontier.close()
    return total / elapsed


def obs_probe(
    run_once: Callable[[], float], bare_s: float, sink_dir: str, runs: int = 3
) -> float:
    """Telemetry overhead: wall under ``start_run`` + JSONL sink over bare, - 1.

    ``bare_s`` is the median of the untraced repetitions the traced pass
    already made, so only the instrumented runs are made here.
    """
    instrumented: List[float] = []
    for index in range(runs):
        run = start_run(
            command="benchmarks obs probe",
            sink_path=os.path.join(sink_dir, f"obs-{index}.jsonl"),
            run_id=f"bench-obs-{index}",
        )
        try:
            instrumented.append(run_once())
        finally:
            run.close(exit_code=0)
    return statistics.median(instrumented) / bare_s - 1.0


def _timed_check_traces(spec: Any, traces: Sequence[Any], collect_coverage: bool) -> float:
    gc.collect()
    started = time.perf_counter()
    check_traces(spec, traces, workers=1, executor="thread", collect_coverage=collect_coverage)
    return time.perf_counter() - started


def trace_probes(build: Build, traces: Sequence[Any]) -> Dict[str, float]:
    """Seconds of the three nested costs of batch trace checking.

    ``match_s``: the bare ``check_trace`` loop with one shared
    ``SuccessorCache``; ``runner_s``: ``check_traces`` without coverage;
    ``coverage_s``: with it.  Each on a fresh spec and cache.
    """
    spec = build()
    cache = SuccessorCache(spec)
    gc.collect()
    # A trace is a GeneratedTrace (labelled) or a plain state sequence.
    per_trace = _timed_calls(
        lambda trace: check_trace(
            spec, getattr(trace, "states", trace), successor_cache=cache
        ),
        traces,
    )
    runner_s, coverage_s = (
        _timed_check_traces(build(), traces, collect_coverage) for collect_coverage in (False, True)
    )
    ordered = sorted(per_trace)
    return {
        "match_s": sum(per_trace),
        "runner_s": runner_s,
        "coverage_s": coverage_s,
        "p50_s": statistics.median(ordered),
        "p99_s": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))],
    }


def stream_probes(
    build: Build, per_node: Sequence[str], sources: Sequence[str]
) -> Dict[str, float]:
    """Seconds of the stream service's three visible stages, no threads.

    Tail every source to EOF, parse the lines through the adapter, feed the
    events through one ``IncrementalChecker`` per source sharing a cache, as
    the service does.
    """
    tail_s = parse_s = feed_s = 0.0
    lines_total = events_total = 0
    adapter = get_adapter("jsonl")
    spec = build()
    cache = SuccessorCache(spec)
    for source in sources:
        tailer = LogTailer(source)
        lines = []
        started = time.perf_counter()
        try:
            while True:
                batch = tailer.poll()
                lines.extend(batch.lines)
                if batch.at_eof:
                    break
        finally:
            tailer.close()
        tail_s += time.perf_counter() - started
        started = time.perf_counter()
        parsed = [
            adapter.parse_line(line.text, path=source, lineno=line.lineno)
            for line in lines
        ]
        parse_s += time.perf_counter() - started
        events = [event for event in parsed if event is not None]
        checker = IncrementalChecker(
            spec, per_node=per_node, source=source, successor_cache=cache
        )
        started = time.perf_counter()
        for event in events:
            checker.feed(event)
        feed_s += time.perf_counter() - started
        lines_total += len(lines)
        events_total += len(events)
    return {
        "tail_s": tail_s, "parse_s": parse_s, "feed_s": feed_s,
        "lines": lines_total, "events": events_total,
    }


def report_probe(service: Any) -> float:
    """Seconds to build and serialize a drained service's report."""
    started = time.perf_counter()
    report_to_json(service.report())
    return time.perf_counter() - started
