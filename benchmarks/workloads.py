"""The six benchmark workloads: inputs, one repetition, and the known answer.

Every workload drives ``repro`` from outside, through public functions of its
canonical modules only.  A workload has three parts:

``generate(seed)`` then ``write(generated, workdir)``
    Set-up, in two steps.  ``generate`` builds the spec and the inputs in
    memory (the seed reaches only the input generators); ``write`` puts them
    on disk where the workload reads files, and returns an :class:`Inputs`
    with their SHA-256 digest.  ``setup_s`` times ``generate`` alone:
    creating 3,000 small files costs 0.06 s or 1 s of kernel time here
    depending on the file system's allocator state, which would drown the
    library's share.
``run(inputs, rec=None)``
    One repetition on a *freshly built* spec with fresh caches -- a CLI user
    pays a cold interner and ``SuccessorCache`` on every invocation.  With a
    span recorder the same work runs staged, one span per visible stage.
``failed(inputs, obs)``
    How many of the repetition's operations differ from the known answer.

Sizes were cut from the paper-scale ones in ISSUE 11 until one repetition
takes 1-2 s here: the harness that runs the benchmark makes 136 runs inside
3420 s, so a run has about 25 s for five cold set-ups, a warm-up and ten
seconds of timed repetitions.  ``quick`` sizes are a tenth of that, for the
self-check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import check_spec
from repro.mbtcg import (
    build_graph,
    corpus_traces,
    generate_suite,
    read_corpus,
    replay_corpus,
    write_corpus,
)
from repro.pipeline.logs import (
    events_from_trace,
    events_to_trace,
    read_log_files,
    trace_from_logs,
    write_log_file,
    write_per_node_logs,
)
from repro.pipeline.runner import check_traces
from repro.pipeline.workload import GeneratedTrace, generate_trace, generate_workload
from repro.stream import WatchConfig, WatchService
from repro.tla.registry import build_spec, get_entry
from repro.tla.trace import SuccessorCache

import layers
from spans import REP_SPAN, Recorder

__all__ = ["EXPECTED", "Inputs", "Obs", "Workload", "make_workload"]


@dataclass
class Inputs:
    """What set-up built: digest, sizes, and the workload's own payload."""

    digest: str
    sizes: Dict[str, int]
    workdir: str
    data: Any = None
    #: Seconds of the two set-up steps, filled in by ``child.py``.
    stage_seconds: Dict[str, float] = field(default_factory=dict)


@dataclass
class Obs:
    """One repetition's outcome."""

    wall_s: float
    #: Units of work done (the workload's ``unit``), for ``work_per_s``.
    work: int
    #: Exact counts: identical on every repetition, run and seed-equal input.
    counts: Dict[str, int]
    #: Measured side values the layer metrics are built from.
    info: Dict[str, Any] = field(default_factory=dict)


#: Known answers that do not depend on the seed, confirmed once through an
#: independent path -- ``check_spec(engine="states", compile_mode="off")``,
#: not the compiled fingerprint engine under test -- with no invariant
#: violation.  Keyed by (workload, quick).
EXPECTED: Dict[Tuple[str, bool], Dict[str, int]] = {
    ("check_raftmongo3", False): {
        "distinct": 10408, "generated": 60280, "max_depth": 13, "truncated": 0,
    },
    ("check_raftmongo3", True): {
        "distinct": 2529, "generated": 13438, "max_depth": 11, "truncated": 0,
    },
    ("check_locking4", False): {
        "distinct": 88693, "generated": 553969, "max_depth": 10, "truncated": 1,
    },
    ("check_locking4", True): {
        "distinct": 7802, "generated": 43549, "max_depth": 9, "truncated": 0,
    },
    ("mbtcg_ot_array", False): {
        "states": 1521, "edges": 2242, "enumerated": 1482, "emitted": 1482,
    },
    ("mbtcg_ot_array", True): {
        "states": 441, "edges": 640, "enumerated": 420, "emitted": 420,
    },
}
EXPECTED[("check_locking4_disk", False)] = EXPECTED[("check_locking4", False)]
EXPECTED[("check_locking4_disk", True)] = EXPECTED[("check_locking4", True)]


def _label_digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _files_digest(paths: List[str], extra: Any = None) -> Tuple[str, int, int]:
    """SHA-256 over the written bytes (in path order), their size and lines."""
    digest = hashlib.sha256()
    size = lines = 0
    for path in paths:
        with open(path, "rb") as handle:
            blob = handle.read()
        digest.update(os.path.basename(path).encode("utf-8"))
        digest.update(blob)
        size += len(blob)
        lines += blob.count(b"\n")
    digest.update(repr(extra).encode("utf-8"))
    return digest.hexdigest(), size, lines


class Workload:
    """Base: a named workload at full or quick size."""

    name = ""
    #: What ``work_per_s`` counts on this workload.
    unit = ""
    #: Stage spans of a staged repetition that get a ``<span>_share`` metric.
    stage_spans: Tuple[str, ...] = ()

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick

    def generate(self, seed: int) -> Any:
        """Build the spec and, from ``seed``, the inputs in memory."""
        raise NotImplementedError

    def write(self, generated: Any, workdir: str) -> Inputs:
        """Put ``generate``'s result where ``run`` reads it from."""
        raise NotImplementedError

    def run(self, inputs: Inputs, rec: Optional[Recorder] = None) -> Obs:
        raise NotImplementedError

    def attempted(self, inputs: Inputs) -> int:
        """Operations one repetition attempts."""
        raise NotImplementedError

    def failed(self, inputs: Inputs, obs: Obs) -> int:
        """Operations whose outcome differs from the known answer."""
        raise NotImplementedError

    def build(self):
        """A freshly built spec, with fresh caches."""
        raise NotImplementedError

    def layer_metrics(
        self, inputs: Inputs, obs: Obs, wall: float, stages: Dict[str, float],
        rec: Recorder, seed: int,
    ) -> Dict[str, float]:
        """Per-layer metrics of the traced pass (see ``layers``).

        ``obs`` is a staged repetition's outcome, ``wall`` the untraced
        median the shares are taken of, ``stages`` the staged repetitions'
        mean self seconds per span name.
        """
        raise NotImplementedError

    def _span(self, rec: Optional[Recorder], name: str):
        """``name`` as a span of a staged repetition, nothing of a plain one."""
        return rec.span(name, self.name) if rec is not None else contextlib.nullcontext()

    def _spec_probes(self, rec: Recorder) -> Tuple[Dict[str, float], float, List[Any]]:
        with rec.span("probe.spec", self.name):
            sample = layers.bfs_sample(self.build)
            metrics, per_successor_s = layers.spec_probes(self.build, sample)
        return metrics, per_successor_s, sample

    def _trace_metrics(
        self, rec: Recorder, traces: List[Any], wall: float, counts: Dict[str, int]
    ) -> Dict[str, float]:
        """tla.trace / tla.coverage / runner metrics of a batch of traces."""
        with rec.span("probe.trace", self.name):
            probe = layers.trace_probes(self.build, traces)
        lookups = counts["cache_hits"] + counts["cache_misses"]
        return {
            "tla.trace.traces_per_s": len(traces) / probe["match_s"],
            "tla.trace.p99_over_p50": probe["p99_s"] / probe["p50_s"],
            "tla.trace.cache_hit_ratio": counts["cache_hits"] / max(1, lookups),
            "tla.trace.match_share": probe["match_s"] / wall,
            "tla.coverage.collect_share": (probe["coverage_s"] - probe["runner_s"]) / wall,
            "pipeline.runner.overhead_share": (probe["runner_s"] - probe["match_s"]) / wall,
        }

    def expected(self) -> Dict[str, int]:
        return EXPECTED[(self.name, self.quick)]

    def _count_mismatches(self, obs: Obs) -> int:
        return sum(
            1 for key, value in self.expected().items() if obs.counts.get(key) != value
        )


# ---------------------------------------------------------------------------
# check_*: exhaustive model checking, states/sec
# ---------------------------------------------------------------------------


class CheckWorkload(Workload):
    """``check_spec(spec, engine="fingerprint", check_properties=False)``."""

    unit = "states"
    spec_name = ""
    params: Dict[str, Any] = {}
    quick_params: Dict[str, Any] = {}
    check_kwargs: Dict[str, Any] = {}
    quick_check_kwargs: Dict[str, Any] = {}

    def spec_params(self) -> Dict[str, Any]:
        return self.quick_params if self.quick else self.params

    def kwargs(self) -> Dict[str, Any]:
        return self.quick_check_kwargs if self.quick else self.check_kwargs

    def build(self):
        return build_spec(self.spec_name, **self.spec_params())

    def generate(self, seed: int) -> Any:
        # The input is the spec itself: nothing here depends on the seed.
        return self.build()

    def write(self, generated: Any, workdir: str) -> Inputs:
        label = (self.spec_name, sorted(self.spec_params().items()),
                 sorted(self.kwargs().items()))
        return Inputs(digest=_label_digest(*label), sizes={}, workdir=workdir)

    def run(self, inputs: Inputs, rec: Optional[Recorder] = None) -> Obs:
        spec = self.build()
        started = time.perf_counter()
        with self._span(rec, REP_SPAN), self._span(rec, "engine.check_spec"):
            result = check_spec(
                spec, engine="fingerprint", check_properties=False, **self.kwargs()
            )
        wall = time.perf_counter() - started
        counts = {
            "distinct": result.distinct_states,
            "generated": result.generated_states,
            "max_depth": result.max_depth,
            "truncated": int(result.truncated),
            "violations": int(result.invariant_violation is not None),
            "peak_frontier": result.peak_frontier,
            "spilled": result.frontier_spilled_states,
        }
        info = {
            "duration_seconds": result.duration_seconds,
            "store_io_seconds": result.store_io_seconds,
        }
        return Obs(wall, result.generated_states, counts, info)

    def attempted(self, inputs: Inputs) -> int:
        return 1

    def failed(self, inputs: Inputs, obs: Obs) -> int:
        wrong = self._count_mismatches(obs) or obs.counts["violations"]
        return 1 if wrong else 0

    def layer_metrics(self, inputs, obs, wall, stages, rec, seed):
        counts, kwargs = obs.counts, self.kwargs()
        distinct, generated = counts["distinct"], counts["generated"]
        metrics, per_successor_s, sample = self._spec_probes(rec)
        expand_share = per_successor_s * generated / wall
        disk = kwargs.get("store") == "disk"
        with rec.span("probe.engine.store", self.name):
            if disk:
                add_s, hit_s = layers.store_probe(
                    "disk", distinct, generated, seed, capacity=kwargs["store_capacity"]
                )
            else:
                add_s, hit_s = layers.store_probe("fingerprint", distinct, generated, seed)
        prefix = "engine.diskstore" if disk else "engine.store"
        store_share = (add_s * distinct + hit_s * (generated - distinct)) / wall
        metrics.update({
            "compile.expand_share_est": expand_share,
            "engine.fingerprint.states_per_s": generated / obs.info["duration_seconds"],
            "engine.peak_frontier": counts["peak_frontier"],
            f"{prefix}.adds_per_s": 1.0 / add_s,
            f"{prefix}.hits_per_s": 1.0 / hit_s,
            "engine.store_share_est": store_share,
            "engine.bfs_other_share_est": 1.0 - expand_share - store_share,
        })
        if disk:
            with rec.span("probe.engine.frontier", self.name):
                roundtrip = layers.frontier_probe(sample, kwargs["spill_threshold"])
            metrics.update({
                "engine.diskstore.io_share": obs.info["store_io_seconds"] / wall,
                "engine.frontier.spilled_states": counts["spilled"],
                "engine.frontier.roundtrip_per_s": roundtrip,
            })
        else:
            # The other serial BFS loop ROADMAP wants merged, on the same spec.
            depth = {k: v for k, v in kwargs.items() if k == "max_depth"}
            with rec.span("probe.engine.states", self.name):
                result = check_spec(
                    self.build(), engine="states", check_properties=False, **depth
                )
            metrics["engine.states.states_per_s"] = (
                result.generated_states / result.duration_seconds
            )
        return metrics


class CheckRaftMongo3(CheckWorkload):
    name = "check_raftmongo3"
    spec_name = "raftmongo"
    params = {"variant": "mbtc", "n_nodes": 3, "max_term": 3, "max_log_len": 1}
    quick_params = {"variant": "mbtc", "n_nodes": 3, "max_term": 2, "max_log_len": 1}

    def layer_metrics(self, inputs, obs, wall, stages, rec, seed):
        metrics = super().layer_metrics(inputs, obs, wall, stages, rec, seed)
        with rec.span("probe.obs", self.name):
            metrics["obs.overhead_share"] = layers.obs_probe(
                lambda: self.run(inputs).wall_s, wall, inputs.workdir
            )
        return metrics


class CheckLocking4(CheckWorkload):
    name = "check_locking4"
    spec_name = "locking"
    params = {"n_threads": 4}
    quick_params = {"n_threads": 3}
    # Depth 10 of 12: 554k of the 868k generated states, inside the time cap.
    check_kwargs = {"max_depth": 10}


class CheckLocking4Disk(CheckLocking4):
    name = "check_locking4_disk"
    check_kwargs = {
        "max_depth": 10, "store": "disk", "store_capacity": 20000,
        "spill_threshold": 5000,
    }
    quick_check_kwargs = {
        "store": "disk", "store_capacity": 2000, "spill_threshold": 500,
    }

    def failed(self, inputs: Inputs, obs: Obs) -> int:
        # The workload exists to exercise the spill path: no spill is a failure.
        return 1 if super().failed(inputs, obs) or obs.counts["spilled"] <= 0 else 0


# ---------------------------------------------------------------------------
# mbtc_raftmongo: logs -> merged traces -> verdicts, traces/sec
# ---------------------------------------------------------------------------


class MbtcRaftMongo(Workload):
    name = "mbtc_raftmongo"
    unit = "traces"
    stage_spans = ("pipeline.logs.parse", "pipeline.logs.fold", "pipeline.runner.check")
    params = {"variant": "mbtc", "n_nodes": 3, "max_term": 3, "max_log_len": 3}

    @property
    def n_traces(self) -> int:
        return 100 if self.quick else 1000

    def build(self):
        return build_spec("raftmongo", **self.params)

    def generate(self, seed: int) -> Any:
        spec = self.build()
        traces = list(
            generate_workload(
                spec, n_traces=self.n_traces, seed=seed, fault_rate=0.1,
                min_steps=20, max_steps=60,
            )
        )
        return spec, traces

    def write(self, generated: Any, workdir: str) -> Inputs:
        spec, traces = generated
        entry = get_entry("raftmongo")
        per_node = entry.per_node_variables(spec)
        nodes = entry.node_count(spec)
        log_dir = os.path.join(workdir, "logs")
        os.makedirs(log_dir)
        logged = [
            (
                write_per_node_logs(
                    spec, trace.states, per_node=per_node, nodes=nodes,
                    directory=log_dir, basename=f"trace{index:05d}",
                    actions=trace.actions,
                ),
                trace.expect_ok,
                trace.fault,
            )
            for index, trace in enumerate(traces)
        ]
        paths = [path for files, _ok, _fault in logged for path in files]
        labels = [(ok, fault) for _files, ok, fault in logged]
        digest, size, events = _files_digest(paths, labels)
        sizes = {
            "traces": len(logged), "files": len(paths), "events": events,
            "bytes": size, "faulted": sum(1 for ok, _fault in labels if not ok),
        }
        return Inputs(digest, sizes, workdir, data=(per_node, logged))

    def run(self, inputs: Inputs, rec: Optional[Recorder] = None) -> Obs:
        per_node, logged = inputs.data
        spec = self.build()
        traces: List[GeneratedTrace] = []

        def labelled(states, expect_ok, fault) -> GeneratedTrace:
            return GeneratedTrace(
                states=states, actions=[None] * len(states),
                expect_ok=expect_ok, fault=fault,
            )

        started = time.perf_counter()
        if rec is None:
            for files, expect_ok, fault in logged:
                states = trace_from_logs(spec, files, per_node=per_node)
                traces.append(labelled(states, expect_ok, fault))
            report = check_traces(spec, traces, workers=1, executor="thread")
        else:
            with rec.span(REP_SPAN, self.name):
                for files, expect_ok, fault in logged:
                    with rec.span("pipeline.logs.parse", self.name):
                        events = list(read_log_files(files))
                    with rec.span("pipeline.logs.fold", self.name):
                        states = events_to_trace(spec, events, per_node=per_node)
                    traces.append(labelled(states, expect_ok, fault))
                with rec.span("pipeline.runner.check", self.name):
                    report = check_traces(spec, traces, workers=1, executor="thread")
        wall = time.perf_counter() - started
        counts = {
            "total": report.total, "passed": report.passed, "failed": report.failed,
            "surprises": len(report.surprises), "errors": len(report.errors),
            "cache_hits": report.cache_hits, "cache_misses": report.cache_misses,
        }
        # Only a staged repetition keeps its traces, for the probes: a plain
        # one must not grow the heap the next repetition's collector walks.
        return Obs(wall, report.total, counts, {"traces": traces} if rec else {})

    def attempted(self, inputs: Inputs) -> int:
        return inputs.sizes["traces"]

    def failed(self, inputs: Inputs, obs: Obs) -> int:
        # Labels survive the log round trip: every verdict matches its label.
        counts = obs.counts
        return (
            counts["surprises"] + counts["errors"]
            + abs(counts["total"] - inputs.sizes["traces"])
            + abs(counts["failed"] - inputs.sizes["faulted"])
        )

    def layer_metrics(self, inputs, obs, wall, stages, rec, seed):
        metrics, _per_successor_s, _sample = self._spec_probes(rec)
        metrics.update(self._trace_metrics(rec, obs.info["traces"], wall, obs.counts))
        sizes = inputs.sizes
        metrics.update({
            "pipeline.events_per_s": sizes["events"] / wall,
            "pipeline.logs.lines_per_s": sizes["events"] / stages["pipeline.logs.parse"],
            "pipeline.workload.generate_traces_per_s":
                sizes["traces"] / inputs.stage_seconds["generate"],
            "pipeline.logs.write_lines_per_s":
                sizes["events"] / inputs.stage_seconds["write"],
        })
        return metrics


# ---------------------------------------------------------------------------
# watch_locking: the streaming fold over few long traces, events/sec
# ---------------------------------------------------------------------------

#: Same stride ``generate_workload`` uses to derive per-trace seeds.
_SEED_STRIDE = 1_000_003


class WatchLocking(Workload):
    name = "watch_locking"
    unit = "events"
    params = {"n_threads": 3}
    #: Two long sources and one short one with a planted teleport: one tailer
    #: thread per source, and the box has two cores.
    long_sources = 2

    @property
    def steps(self) -> int:
        return 600 if self.quick else 6000

    def build(self):
        return build_spec("locking", **self.params)

    def generate(self, seed: int) -> Any:
        spec = self.build()
        cache = SuccessorCache(spec)
        traces = [
            generate_trace(
                spec, random.Random(seed * _SEED_STRIDE + index),
                min_steps=self.steps, max_steps=self.steps, successor_cache=cache,
            )
            for index in range(self.long_sources)
        ]
        planted = next(
            trace
            for trace in generate_workload(
                spec, n_traces=200, seed=seed, fault_rate=1.0,
                min_steps=20, max_steps=40,
            )
            if trace.fault == "teleport"
        )
        return spec, traces + [planted]

    def write(self, generated: Any, workdir: str) -> Inputs:
        spec, traces = generated
        per_node = get_entry("locking").per_node_variables(spec)
        sources: List[str] = []
        expected: Dict[str, str] = {}
        for index, trace in enumerate(traces):
            path = os.path.join(workdir, f"source{index}.jsonl")
            write_log_file(
                path, events_from_trace(spec, trace.states, per_node=per_node,
                                        actions=trace.actions)
            )
            sources.append(path)
            expected[path] = "conforming" if trace.expect_ok else "violated"
        digest, size, events = _files_digest(sources)
        sizes = {"sources": len(sources), "events": events, "bytes": size}
        return Inputs(digest, sizes, workdir, data=(per_node, sources, expected))

    def run(self, inputs: Inputs, rec: Optional[Recorder] = None) -> Obs:
        per_node, sources, _expected = inputs.data
        spec = self.build()
        config = WatchConfig(once=True, report_every=0, stall_timeout=0)
        started = time.perf_counter()
        service = WatchService(
            spec, sources, per_node=per_node, config=config, out=io.StringIO()
        )
        with self._span(rec, REP_SPAN), self._span(rec, "stream.service.run"):
            exit_code = service.run()
        wall = time.perf_counter() - started
        report = service.report()
        totals = report["totals"]
        counts = {
            "events": totals["events"], "steps": totals["steps"],
            "quarantined": totals["quarantined_lines"] + totals["quarantined_events"],
            "conforming": report["traces"]["conforming"],
            "violated": report["traces"]["violated"],
            "exit_code": exit_code,
        }
        info = {
            "statuses": {
                path: section.get("status") for path, section in report["sources"].items()
            },
            "cache_hits": service.cache.hits,
            "cache_misses": service.cache.misses,
        }
        if rec is not None:
            info["service"] = service  # kept for the report probe only
        return Obs(wall, totals["events"], counts, info)

    def attempted(self, inputs: Inputs) -> int:
        return inputs.sizes["sources"]

    def failed(self, inputs: Inputs, obs: Obs) -> int:
        _per_node, _sources, expected = inputs.data
        wrong = sum(
            1 for path, status in expected.items()
            if obs.info["statuses"].get(path) != status
        )
        lost = abs(obs.counts["events"] - inputs.sizes["events"])
        return wrong + obs.counts["quarantined"] + (1 if lost else 0)

    def layer_metrics(self, inputs, obs, wall, stages, rec, seed):
        per_node, sources, _expected = inputs.data
        metrics, _per_successor_s, _sample = self._spec_probes(rec)
        with rec.span("probe.stream", self.name):
            probe = layers.stream_probes(self.build, per_node, sources)
            report_s = layers.report_probe(obs.info["service"])
        staged = probe["tail_s"] + probe["parse_s"] + probe["feed_s"]
        lookups = obs.info["cache_hits"] + obs.info["cache_misses"]
        metrics.update({
            "stream.tailer.lines_per_s": probe["lines"] / probe["tail_s"],
            "pipeline.logs.lines_per_s": probe["lines"] / probe["parse_s"],
            "stream.incremental.events_per_s": probe["events"] / probe["feed_s"],
            "stream.report.build_share": report_s / wall,
            "stream.service.other_share": 1.0 - staged / wall,
            "pipeline.events_per_s": obs.counts["events"] / wall,
            "tla.trace.cache_hit_ratio": obs.info["cache_hits"] / max(1, lookups),
        })
        return metrics


# ---------------------------------------------------------------------------
# mbtcg_ot_array: graph -> suite -> corpus -> replay, tests/sec
# ---------------------------------------------------------------------------


class MbtcgOtArray(Workload):
    name = "mbtcg_ot_array"
    unit = "tests"
    stage_spans = (
        "mbtcg.build_graph", "mbtcg.enumerate", "mbtcg.write_corpus",
        "mbtcg.read_corpus", "mbtcg.replay",
    )

    @property
    def params(self) -> Dict[str, Any]:
        return {"init_length": 3 if self.quick else 6}

    def build(self):
        return build_spec("ot_array", **self.params)

    def generate(self, seed: int) -> Any:
        # The input is the spec itself: nothing here depends on the seed.
        return self.build()

    def write(self, generated: Any, workdir: str) -> Inputs:
        label = ("ot_array", sorted(self.params.items()), "exhaustive", 6)
        return Inputs(digest=_label_digest(*label), sizes={}, workdir=workdir)

    def run(self, inputs: Inputs, rec: Optional[Recorder] = None) -> Obs:
        spec = self.build()
        corpus = os.path.join(inputs.workdir, "corpus.jsonl")
        started = time.perf_counter()
        if rec is None:
            graph = build_graph(spec)
            suite = generate_suite(spec, strategy="exhaustive", max_length=6, graph=graph)
            write_corpus(suite, corpus)
            _header, report = replay_corpus(corpus, workers=1)
            traces = None
        else:
            with rec.span(REP_SPAN, self.name):
                with rec.span("mbtcg.build_graph", self.name):
                    graph = build_graph(spec)
                with rec.span("mbtcg.enumerate", self.name):
                    suite = generate_suite(
                        spec, strategy="exhaustive", max_length=6, graph=graph
                    )
                with rec.span("mbtcg.write_corpus", self.name):
                    write_corpus(suite, corpus)
                # replay_corpus, split at its one visible seam: read, then check.
                with rec.span("mbtcg.read_corpus", self.name):
                    header, cases = read_corpus(corpus)
                    replay_spec = build_spec(header["spec"], **header["params"])
                    traces = list(corpus_traces(replay_spec, cases))
                with rec.span("mbtcg.replay", self.name):
                    report = check_traces(
                        replay_spec, traces, workers=1, executor="thread"
                    )
        wall = time.perf_counter() - started
        counts = {
            "states": len(graph), "edges": len(graph.edges),
            "enumerated": suite.stats.enumerated, "emitted": suite.stats.emitted,
            "replay_total": report.total, "replay_passed": report.passed,
            "corpus_bytes": os.path.getsize(corpus),
            "cache_hits": report.cache_hits, "cache_misses": report.cache_misses,
        }
        return Obs(wall, suite.stats.emitted, counts, {"traces": traces})

    def attempted(self, inputs: Inputs) -> int:
        return self.expected()["emitted"]

    def failed(self, inputs: Inputs, obs: Obs) -> int:
        counts = obs.counts
        return (
            self._count_mismatches(obs)
            + abs(counts["emitted"] - counts["replay_total"])
            + (counts["replay_total"] - counts["replay_passed"])
        )

    def layer_metrics(self, inputs, obs, wall, stages, rec, seed):
        counts = obs.counts
        metrics, _per_successor_s, _sample = self._spec_probes(rec)
        metrics.update(self._trace_metrics(rec, obs.info["traces"], wall, counts))
        metrics.update({
            "mbtcg.dedup_ratio": counts["emitted"] / counts["enumerated"],
            "mbtcg.corpus_bytes_per_test": counts["corpus_bytes"] / counts["emitted"],
        })
        return metrics


_CLASSES: Tuple[type, ...] = (
    CheckRaftMongo3, CheckLocking4, CheckLocking4Disk,
    MbtcRaftMongo, WatchLocking, MbtcgOtArray,
)

def make_workload(name: str, quick: bool = False) -> Workload:
    for cls in _CLASSES:
        if cls.name == name:
            return cls(quick)
    raise KeyError(name)
