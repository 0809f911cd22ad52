"""The ``python -m repro`` command line: check, trace, simulate and generate.

Subcommands mirror the paper's workflow:

* ``check``   -- model-check a registered specification (TLC's role),
* ``trace``   -- MBTC proper: parse server logs, rebuild the execution trace,
  verify it against the spec, and optionally accumulate coverage,
* ``simulate``-- the scale path: generate a synthetic workload (optionally
  fault-injected), batch-check it and report merged coverage,
* ``generate``-- MBTCG (paper Section 5): enumerate the spec's behaviours
  into a deduplicated test corpus, optionally emit pytest source and
  per-node logs, and replay the corpus through the MBTC batch checker,
* ``watch``   -- streaming MBTC: follow live log files as a long-running
  service, checking each trace incrementally with backpressure, a quarantine
  channel for undecodable lines and SIGTERM/SIGINT graceful drain.

A command refuses bad options through the object it builds:
:class:`~repro.engine.ModelChecker` for ``check`` (``check`` flags pass
through under its parameter names) and
:class:`~repro.stream.WatchConfig` for ``watch``.  Their ``ValueError``
becomes one ``error:`` line and exit code 2; this module checks only the
flags no such object has, and argparse refuses unknown names.

Performance is measured from outside, by ``benchmarks/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import itertools
import os
import signal
import sys
from dataclasses import fields
from typing import Any, Dict, Optional, Sequence

from ..engine import ENGINES, STORES, ModelChecker, check_spec
from ..mbtcg import STRATEGIES, generate_suite, replay_corpus, write_corpus
from ..obs import (
    ENV_METRICS_OUT,
    current as obs_current,
    peak_rss_mb,
    run_profiled,
    span,
    start_run,
)
from ..mbtcg.emitters import write_log_suite, write_pytest_module
from ..resilience import read_watch_checkpoint
from ..stream import WatchConfig, WatchService
from ..tla.coverage import CoverageReport
from ..tla.dot import to_dot
from ..tla.errors import CheckInterrupted, ReproError, SpecError
from ..tla.registry import build_spec, get_entry, registered_names
from ..tla.trace import SuccessorCache, explain_failure
from . import logs as log_module
from .runner import cache_line, check_one, check_traces, record_cache_telemetry
from .workload import generate_workload

__all__ = ["build_parser", "main", "parse_params"]


def parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse ``key=value`` CLI parameters with int/float/bool coercion."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SpecError(f"malformed --param {pair!r}; expected key=value")
        value: Any
        lowered = raw.lower()
        if lowered in ("true", "false"):
            value = lowered == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key] = value
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Model-based trace checking pipeline (TLC-substitute + MBTC).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", choices=registered_names(), help="specification to use")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="spec configuration parameter (repeatable), e.g. n_nodes=3",
        )

    def add_obs_arguments(p: argparse.ArgumentParser) -> None:
        """Telemetry flags shared by every execution path."""
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            default=None,
            help="append run telemetry (spans, counters, histograms) here "
            f"as schema-versioned JSON lines; ${ENV_METRICS_OUT} is the "
            "equivalent environment channel",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="run under cProfile and print the hottest functions to stderr",
        )

    check_p = sub.add_parser("check", help="model-check a specification")
    add_spec_arguments(check_p)
    check_p.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="exploration engine (default: fingerprint unless a graph is "
        "needed; simulate runs seeded random walks instead of exhaustive BFS)",
    )
    check_p.add_argument(
        "--store",
        choices=STORES,
        default="auto",
        help="visited-state store (default: the engine's native store; "
        "disk keeps the visited set in a SQLite file for million-state runs)",
    )
    check_p.add_argument(
        "--store-capacity",
        type=int,
        default=None,
        help="the disk store's write-back cache size",
    )
    check_p.add_argument(
        "--store-path",
        metavar="FILE",
        default=None,
        help="database file of --store disk (default: an ephemeral temp "
        "file; required when checkpointing a disk-store run)",
    )
    check_p.add_argument(
        "--spill-threshold",
        type=int,
        default=None,
        metavar="N",
        help="BFS frontier entries kept in memory before a level spills to "
        "compressed disk chunks (default: on at 100000 with --store disk, "
        "off otherwise)",
    )
    check_p.add_argument(
        "--walks",
        type=int,
        default=None,
        help="random walks for --engine simulate (default: 100)",
    )
    check_p.add_argument(
        "--depth",
        type=int,
        default=None,
        dest="walk_depth",
        metavar="DEPTH",
        help="max steps per random walk for --engine simulate (default: 50)",
    )
    check_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed for --engine simulate (default: 0)",
    )
    check_p.add_argument("--max-states", type=int, default=None)
    check_p.add_argument("--max-depth", type=int, default=None)
    check_p.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        dest="checkpoint_path",
        help="write a resumable snapshot of the BFS every --checkpoint-every "
        "levels (fingerprint engine)",
    )
    check_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="K",
        help="levels between checkpoints (default: 1, i.e. every level)",
    )
    check_p.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        dest="resume_path",
        help="resume an interrupted run from a --checkpoint snapshot",
    )
    check_p.add_argument(
        "--deadlock", action="store_true", dest="check_deadlock", help="detect deadlocks"
    )
    check_p.add_argument(
        "--no-properties",
        action="store_false",
        dest="check_properties",
        help="skip temporal properties",
    )
    check_p.add_argument("--dot", metavar="FILE", help="export the state graph as DOT")
    check_p.add_argument(
        "--progress-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a heartbeat line (depth, frontier, distinct, states/sec) "
        "to stderr every SECONDS during long explorations",
    )
    add_obs_arguments(check_p)

    trace_p = sub.add_parser("trace", help="check server logs against a spec (MBTC)")
    add_spec_arguments(trace_p)
    trace_p.add_argument("logs", nargs="+", metavar="LOGFILE", help="per-node log files")
    trace_p.add_argument(
        "--no-require-initial",
        action="store_true",
        help="accept traces that start mid-execution",
    )
    trace_p.add_argument(
        "--no-stuttering", action="store_true", help="reject stuttering steps"
    )
    trace_p.add_argument(
        "--coverage-out",
        metavar="FILE",
        help="merge this trace's coverage into a JSON report file",
    )
    add_obs_arguments(trace_p)

    watch_p = sub.add_parser(
        "watch",
        help="stream-check live log files (long-running MBTC service)",
    )
    add_spec_arguments(watch_p)
    watch_p.add_argument(
        "logs",
        nargs="+",
        metavar="LOGFILE",
        help="log files to follow, one trace per file (they need not exist yet)",
    )
    watch_p.add_argument(
        "--adapter",
        choices=sorted(log_module.adapter_names()),
        default="jsonl",
        help="log line format (default: %(default)s)",
    )
    watch_p.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        help="seconds the service loop idles when no source has a line to "
        "check: paces re-polls at EOF, torn-line retries, the watchdog and "
        "the reaction to a stop signal (default: %(default)s)",
    )
    watch_p.add_argument(
        "--stall-timeout",
        type=float,
        default=30.0,
        help="watchdog: flag a source silent this long; 0 disables",
    )
    watch_p.add_argument(
        "--partial-retries",
        type=int,
        default=5,
        help="re-reads of a newline-less tail line before declaring it torn",
    )
    watch_p.add_argument(
        "--partial-backoff",
        type=float,
        default=0.05,
        help="first torn-line retry delay; doubles per retry",
    )
    watch_p.add_argument(
        "--batch-limit",
        type=int,
        default=256,
        help="max lines consumed per source per service round",
    )
    watch_p.add_argument(
        "--report",
        metavar="FILE",
        dest="report_path",
        help="rolling report JSON, atomically rewritten while the service runs",
    )
    watch_p.add_argument(
        "--report-every",
        type=float,
        default=5.0,
        help="seconds between rolling report refreshes; 0 = only on drain",
    )
    watch_p.add_argument(
        "--quarantine",
        metavar="FILE",
        dest="quarantine_path",
        help="append undecodable lines here as JSONL (with file/offset context)",
    )
    watch_p.add_argument(
        "--checkpoint",
        metavar="FILE",
        dest="checkpoint_path",
        help="write a resumable service checkpoint here (periodic + on drain)",
    )
    watch_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="consumed lines between periodic checkpoints (default: 500)",
    )
    watch_p.add_argument(
        "--resume",
        metavar="FILE",
        help="resume from a service checkpoint written by --checkpoint",
    )
    watch_p.add_argument(
        "--once",
        action="store_true",
        help="drain to EOF and exit instead of following forever",
    )
    watch_p.add_argument(
        "--status-file",
        metavar="FILE",
        dest="status_path",
        help="atomically rewrite a live service-status JSON here (per-source "
        "lag, queue depths, quarantine rate) on the --report-every cadence",
    )
    add_obs_arguments(watch_p)

    sim_p = sub.add_parser("simulate", help="generate and batch-check a workload")
    add_spec_arguments(sim_p)
    sim_p.add_argument("--traces", type=int, default=1000, help="number of traces")
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="fraction of traces mutated into guaranteed-invalid executions",
    )
    sim_p.add_argument("--min-steps", type=int, default=4)
    sim_p.add_argument("--max-steps", type=int, default=24)
    sim_p.add_argument("--stutter-prob", type=float, default=0.0)
    sim_p.add_argument(
        "--log-dir",
        metavar="DIR",
        help="also write the first --log-limit traces as per-node JSON-lines logs",
    )
    sim_p.add_argument("--log-limit", type=int, default=10)
    sim_p.add_argument("--coverage-out", metavar="FILE", help="merged coverage JSON")
    sim_p.add_argument(
        "--with-reachable",
        action="store_true",
        help="model-check first so coverage is a fraction of the reachable space",
    )
    sim_p.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop the batch at the first failed, errored or unexpected trace",
    )
    add_obs_arguments(sim_p)

    gen_p = sub.add_parser(
        "generate",
        help="MBTCG: enumerate spec behaviours into an executable test corpus",
    )
    gen_p.add_argument(
        "--spec",
        choices=registered_names(),
        default=None,
        help="specification to generate from (required unless --smoke)",
    )
    gen_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="spec configuration parameter (repeatable), e.g. init_length=2",
    )
    gen_p.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="exhaustive",
        help="enumeration strategy (default: %(default)s)",
    )
    gen_p.add_argument(
        "--max-length",
        type=int,
        default=6,
        help="maximum behaviour length in states (default: %(default)s)",
    )
    gen_p.add_argument(
        "--tests",
        type=int,
        default=50,
        help="sample size for --strategy random (default: %(default)s)",
    )
    gen_p.add_argument("--seed", type=int, default=0, help="random-strategy seed")
    gen_p.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="truncate graph exploration (generated prefixes still replay)",
    )
    gen_p.add_argument(
        "--out",
        metavar="FILE",
        default="mbtcg_corpus.jsonl",
        help="JSON-lines corpus output (default: %(default)s)",
    )
    gen_p.add_argument(
        "--pytest-out", metavar="FILE", help="also emit a runnable pytest module"
    )
    gen_p.add_argument(
        "--log-dir",
        metavar="DIR",
        help="also write cases as per-node logs replayable by `repro trace`",
    )
    gen_p.add_argument(
        "--log-limit",
        type=int,
        default=10,
        help="cases written as logs with --log-dir (default: %(default)s)",
    )
    gen_p.add_argument(
        "--replay",
        action="store_true",
        help="replay the emitted corpus through check_traces (MBTCG -> MBTC)",
    )
    gen_p.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: small ot_array suite, corpus written, replay verified",
    )
    add_obs_arguments(gen_p)
    return parser


def _merge_coverage_file(path: str, report: CoverageReport) -> CoverageReport:
    """Accumulate coverage across CLI invocations (paper Section 4.2.4)."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            report = CoverageReport.from_json(handle.read()).merge(report)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    return report


#: :class:`ModelChecker`'s keyword parameters (all but ``spec``): a ``check``
#: flag whose dest is one of these passes through to the checker unchanged.
_CHECKER_PARAMETERS = tuple(inspect.signature(ModelChecker).parameters)[1:]


def _checker_options(args: argparse.Namespace) -> Dict[str, Any]:
    """``check``'s flags as :class:`ModelChecker` keyword arguments.

    The checker validates them; what is checked here is only what it has
    no parameter for: ``--progress-every``.
    """
    if args.progress_every is not None and args.progress_every <= 0:
        raise ValueError(f"--progress-every must be positive; got {args.progress_every}")
    options = {name: getattr(args, name) for name in _CHECKER_PARAMETERS if name in args}
    options["collect_graph"] = bool(args.dot)
    return options


@contextlib.contextmanager
def _drain_signals(callback):
    """Route SIGTERM/SIGINT to ``callback(signum)`` for the enclosed block.

    Installing a handler can fail outside the main thread (tests drive
    commands from worker threads); the command then simply runs without
    signal-triggered drain, which is also the correct Windows fallback.
    """
    previous = {}
    def handler(signum, _frame):
        callback(signum)
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        yield
    finally:
        for signum, handler_before in previous.items():
            signal.signal(signum, handler_before)


def _cmd_watch(args: argparse.Namespace) -> int:
    options = {field.name: getattr(args, field.name) for field in fields(WatchConfig)}
    # Resume-then-keep-checkpointing continues into the resume file
    # unless a separate --checkpoint destination is given.
    options["checkpoint_path"] = args.checkpoint_path or args.resume
    config = WatchConfig(**options)
    entry = get_entry(args.spec)
    spec = build_spec(args.spec, **parse_params(args.param))
    if not _require_log_metadata(entry):
        return 2
    per_node = entry.per_node_variables(spec)
    resume_from = read_watch_checkpoint(args.resume) if args.resume else None
    service = WatchService(
        spec, args.logs, per_node=per_node, config=config, resume_from=resume_from
    )
    with _drain_signals(service.request_stop):
        return service.run()


def _cmd_check(args: argparse.Namespace) -> int:
    options = _checker_options(args)
    spec = build_spec(args.spec, **parse_params(args.param))
    skips_properties = (
        args.engine not in ("auto", "states")
        and options["check_properties"]
        and bool(spec.properties)
    )
    if skips_properties:
        options["check_properties"] = False
    checker = ModelChecker(spec, **options)
    if skips_properties:
        print(f"note: {args.engine} engine skips temporal properties (needs the state graph)")

    # A service manager stops a long check with SIGTERM, not ctrl-C; route
    # it through the same checkpoint-and-report path KeyboardInterrupt takes
    # (the engine converts the interrupt into CheckInterrupted) and exit 143.
    received = {"signum": None}

    def _convert_to_interrupt(signum: int) -> None:
        received["signum"] = signum
        raise KeyboardInterrupt

    try:
        with _drain_signals(_convert_to_interrupt):
            result = checker.run()
    except CheckInterrupted as exc:
        # Partial results are still results: report what the run managed and
        # where it can be resumed from, then exit with 128 + signum.
        result = exc.result
        print("interrupted; partial statistics follow", file=sys.stderr)
        if result is not None:
            print(result.summary())
            if result.checkpoint_path:
                print(
                    f"resume with: repro check {args.spec} "
                    f"--resume {result.checkpoint_path}"
                )
        return 143 if received["signum"] == signal.SIGTERM else 130
    except KeyboardInterrupt:
        # The signal landed outside the engine's interruptible region, so
        # there is no partial result to report -- just exit with the code.
        print("interrupted", file=sys.stderr)
        return 143 if received["signum"] == signal.SIGTERM else 130

    print(result.summary())
    print(
        "fingerprint collision probability: calculated (optimistic) "
        f"{result.fingerprint_collision_probability:.1e}"
    )
    if result.resumed_from:
        print(f"resumed from checkpoint {result.resumed_from}")
    if result.truncated:
        print(
            "WARNING: exploration truncated by --max-states/--max-depth; "
            "statistics cover only the explored prefix"
        )
    walks_note = (
        f" ({result.walks} walks, longest {result.max_depth} step(s))"
        if result.engine == "simulate"
        else ""
    )
    store_note = ""
    if result.store_io_seconds:
        store_note = f" (I/O {result.store_io_seconds:.2f}s)"
    print(
        f"engine: {result.engine}{walks_note}; "
        f"store: {result.store}{store_note}; "
        f"peak frontier {result.peak_frontier} state(s)"
    )
    print(f"peak RSS: {peak_rss_mb():.1f} MB")
    if result.frontier_spilled_states:
        print(
            f"frontier spilling: {result.frontier_spilled_states} state(s) "
            "streamed through compressed disk chunks"
        )
    for name in sorted(result.action_counts):
        print(f"  {name}: {result.action_counts[name]} transition(s)")
    for outcome in result.property_outcomes:
        verdict = "holds" if outcome.holds else f"VIOLATED ({outcome.explanation})"
        print(f"  property {outcome.property_name}: {verdict}")
    if result.invariant_violation is not None:
        print(f"counterexample ({len(result.invariant_violation.trace)} states):")
        for index, state in enumerate(result.invariant_violation.trace):
            print(f"  {index}: {state.to_dict()}")
    if args.dot and result.graph is not None:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(result.graph, name=spec.name.replace("[", "_").replace("]", "")))
        print(f"state graph written to {args.dot}")
    return 0 if result.ok else 1


def _require_log_metadata(entry) -> bool:
    """True when the registry entry carries the log-pipeline hooks.

    ``register_spec`` makes them optional (``check`` only needs a factory),
    but ``trace`` and ``simulate --log-dir`` reconstruct per-node
    logs and cannot work without them.
    """
    if entry.per_node_variables is None or entry.node_count is None:
        print(
            f"error: specification {entry.name!r} was registered without "
            "per_node_variables/node_count metadata, which log reconstruction "
            "requires; pass them to register_spec to enable this command",
            file=sys.stderr,
        )
        return False
    return True


def _cmd_trace(args: argparse.Namespace) -> int:
    entry = get_entry(args.spec)
    spec = build_spec(args.spec, **parse_params(args.param))
    if not _require_log_metadata(entry):
        return 2
    per_node = entry.per_node_variables(spec)
    trace = log_module.trace_from_logs(spec, args.logs, per_node=per_node)
    print(f"rebuilt trace of {len(trace)} state(s) from {len(args.logs)} log file(s)")
    cache = SuccessorCache.for_spec(spec)  # the one the trace was decoded into
    result, coverage = check_one(
        spec,
        cache,
        trace,
        allow_stuttering=not args.no_stuttering,
        require_initial=not args.no_require_initial,
        collect_coverage=bool(args.coverage_out),
    )
    print(result.summary())
    stats = cache.stats()
    print("  " + cache_line(stats))
    print(f"peak RSS: {peak_rss_mb():.1f} MB")
    if obs_current() is not None:
        record_cache_telemetry(obs_current(), stats)
    if not result.ok:
        print(explain_failure(result))
    if coverage is not None:
        merged = _merge_coverage_file(args.coverage_out, coverage)
        print("accumulated " + merged.summary())
    return 0 if result.ok else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.log_limit < 0:
        raise ValueError(f"--log-limit must be >= 0; got {args.log_limit}")
    entry = get_entry(args.spec)
    spec = build_spec(args.spec, **parse_params(args.param))
    reachable = None
    if args.with_reachable:
        full = check_spec(spec, check_properties=False, engine="fingerprint")
        reachable = full.distinct_states
        print(f"reachable state space: {reachable} state(s)")

    workload = generate_workload(
        spec,
        n_traces=args.traces,
        seed=args.seed,
        fault_rate=args.fault_rate,
        min_steps=args.min_steps,
        max_steps=args.max_steps,
        stutter_probability=args.stutter_prob,
    )
    if args.log_dir:
        if not _require_log_metadata(entry):
            return 2
        # Materialize only the traces that get written out; the rest of the
        # workload streams straight into the batch runner.
        head = list(itertools.islice(workload, args.log_limit))
        os.makedirs(args.log_dir, exist_ok=True)
        written = _write_workload_logs(spec, entry, head, args.log_dir)
        print(f"wrote {written} log file(s) to {args.log_dir}")
        workload = itertools.chain(head, workload)

    report = check_traces(
        spec, workload, reachable_count=reachable, fail_fast=args.fail_fast
    )
    print(report.summary())
    print(f"peak RSS: {peak_rss_mb():.1f} MB")
    for outcome in report.surprises[:10]:
        expectation = "pass" if outcome.expected_ok else f"fail ({outcome.fault})"
        print(
            f"  UNEXPECTED trace #{outcome.index}: expected {expectation}, "
            f"got {'pass' if outcome.ok else 'fail'} {outcome.detail}"
        )
    for outcome in report.errors[:10]:
        print(f"  ERROR trace #{outcome.index}: {outcome.error}")
    if args.coverage_out and report.coverage is not None:
        merged = _merge_coverage_file(args.coverage_out, report.coverage)
        print("accumulated " + merged.summary())
    return 0 if report.ok else 1


def _write_workload_logs(spec, entry, traces, log_dir: str) -> int:
    """Write each trace as per-node JSON-lines files (round-trippable by `trace`)."""
    per_node = entry.per_node_variables(spec)
    nodes = entry.node_count(spec)
    written = 0
    for index, generated in enumerate(traces):
        written += len(
            log_module.write_per_node_logs(
                spec,
                generated.states,
                per_node=per_node,
                nodes=nodes,
                directory=log_dir,
                basename=f"trace{index:04d}",
                actions=generated.actions,
            )
        )
    return written


def _cmd_generate(args: argparse.Namespace) -> int:
    spec_name = args.spec
    strategy = args.strategy
    max_length = args.max_length
    replay = args.replay
    if args.smoke:
        # The CI preset: a small OT suite, generated and replayed end to end.
        spec_name = spec_name or "ot_array"
        max_length = min(max_length, 5)
        replay = True
    if spec_name is None:
        print("error: --spec is required (or use --smoke)", file=sys.stderr)
        return 2
    entry = get_entry(spec_name)
    spec = build_spec(spec_name, **parse_params(args.param))
    suite = generate_suite(
        spec,
        strategy=strategy,
        max_length=max_length,
        n_tests=args.tests,
        seed=args.seed,
        max_states=args.max_states,
    )
    print(suite.summary())
    stats = suite.stats
    print(
        f"  graph: {stats.graph_states} state(s), {stats.graph_edges} edge(s); "
        f"coverage goals hit: {stats.coverage_pair_count}; "
        f"{stats.tests_per_second:.0f} tests/sec"
    )
    exercised = ", ".join(sorted(suite.action_names())) or "(none)"
    print(f"  actions exercised: {exercised}")

    count = write_corpus(suite, args.out)
    print(f"corpus of {count} case(s) written to {args.out}")
    if args.pytest_out:
        write_pytest_module(suite, args.pytest_out)
        print(f"pytest module written to {args.pytest_out}")
    if args.log_dir:
        os.makedirs(args.log_dir, exist_ok=True)
        paths = write_log_suite(
            suite, spec, args.log_dir, entry=entry, limit=args.log_limit
        )
        print(f"wrote {len(paths)} log file(s) to {args.log_dir}")

    if replay:
        _header, report = replay_corpus(args.out)
        print(
            f"replay through MBTC: PASS {report.passed}  FAIL {report.failed}  "
            f"ERROR {len(report.errors)}  "
            f"({report.total} case(s) in {report.duration_seconds:.2f}s)"
        )
        if report.failed:
            print(
                f"error: {report.failed} generated case(s) failed trace "
                "checking; the generator emitted an invalid behaviour",
                file=sys.stderr,
            )
        if report.errors:
            # A check that raised gave no verdict: neither passed nor failed.
            first = report.errors[0]
            print(
                f"error: checking {len(report.errors)} generated case(s) raised; "
                f"first: case {suite.cases[first.index].case_id}: {first.error}",
                file=sys.stderr,
            )
        if report.passed != report.total:
            return 1
        print("MBTCG -> MBTC loop closed: every generated case replays cleanly")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "trace": _cmd_trace,
    "watch": _cmd_watch,
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
}


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch one parsed command, under telemetry/profiling when asked.

    A run activates only when ``--metrics-out``, the ``REPRO_METRICS_OUT``
    environment channel, or ``--progress-every`` asks for it -- the default
    path never touches the obs runtime, which is what keeps every existing
    output byte-identical.
    """
    command = _COMMANDS[args.command]
    metrics_path = args.metrics_out or os.environ.get(ENV_METRICS_OUT)
    progress_every = getattr(args, "progress_every", None) or 0.0
    run = None
    if metrics_path or progress_every > 0:
        run = start_run(
            command=f"repro {args.command}",
            sink_path=metrics_path or None,
            progress_every=progress_every,
        )

    def dispatch() -> int:
        with span(f"command.{args.command}"):
            return command(args)

    exit_code: Optional[int] = None
    try:
        if getattr(args, "profile", False):
            exit_code = run_profiled(dispatch)
        else:
            exit_code = dispatch()
        return exit_code
    finally:
        if run is not None:
            # A non-zero exit with a code is still a completed run (a found
            # violation exits 1); only an escaping exception marks "error".
            run.close(
                exit_code=exit_code,
                status="ok" if exit_code is not None else "error",
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The conventional 128 + SIGINT exit code; commands that can report
        # partial progress (check) convert the interrupt before it gets here.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
