"""The ``python -m repro`` command line, one subcommand per step of the paper's workflow.

``check`` model-checks a registered specification (TLC's role); ``trace`` is
MBTC proper: rebuild a trace from per-node server logs and check it;
``simulate`` generates a (fault-injected) workload and batch-checks it with
merged coverage; ``generate`` is MBTCG (paper Section 5): enumerate the
spec's behaviours into a test corpus and replay it through the batch
checker; ``watch`` checks live log files as a long-running service.

Every option is declared once.  One a library object consumes is declared
beside the parameter it sets, as ``Annotated[T, {...}]`` metadata in the
signature of :class:`~repro.engine.ModelChecker` (``check``),
:func:`~repro.pipeline.runner.check_one` (``trace``),
:class:`~repro.stream.WatchConfig` (``watch``),
:func:`~repro.pipeline.workload.generate_workload` and
:func:`~repro.pipeline.runner.check_traces` (``simulate``) or
:func:`~repro.mbtcg.generate_suite` (``generate``), which also supplies its
dest, default and type.  The options only this module consumes are the
:data:`_COMMANDS` table, and :func:`build_parser` generates the parser from
both.  The object a command builds refuses a bad value with a
``ValueError`` naming the parameter: one ``error:`` line, exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import signal
import sys
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, get_args

from ..engine import ModelChecker, check_spec
from ..mbtcg import generate_suite, replay_corpus, write_corpus
from ..obs import ENV_METRICS_OUT, peak_rss_mb, run_profiled, span, start_run
from ..obs import current as obs_current
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

Option = Tuple[Tuple[str, ...], Dict[str, Any]]


def parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse ``key=value`` CLI parameters with int/float/bool coercion."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SpecError(f"malformed --param {pair!r}; expected key=value")
        value: Any = raw
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            for coerce in (int, float):
                with contextlib.suppress(ValueError):
                    value = coerce(raw)
                    break
        params[key] = value
    return params


def _declared(consumer: Any) -> Iterator[Option]:
    """The options ``consumer``'s signature declares, as ``add_argument`` calls.

    A parameter typed ``Annotated[T, {...}]`` is one: its dest and default
    are the parameter's, its type is ``T`` with ``Optional`` unwrapped, and a
    ``bool`` is a switch that flips its default.  The dict adds the help and
    any ``flag`` (else ``--`` and the dashed name), metavar or choices.
    """
    for name, parameter in inspect.signature(consumer, eval_str=True).parameters.items():
        for declaration in getattr(parameter.annotation, "__metadata__", ()):
            options = dict(declaration, dest=name, default=parameter.default)
            flag = options.pop("flag", "--" + name.replace("_", "-"))
            inner = parameter.annotation.__origin__
            kind = next(t for t in get_args(inner) or (inner,) if t is not type(None))
            if kind is bool:
                options["action"] = "store_false" if parameter.default else "store_true"
            elif kind is not str:
                options["type"] = kind
            yield (flag,), options


def _kwargs(consumer: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """The parsed values of ``consumer``'s declared options, by parameter."""
    return {option["dest"]: getattr(args, option["dest"]) for _f, option in _declared(consumer)}


def build_parser() -> argparse.ArgumentParser:
    """The parser: per command, the :data:`_COMMANDS` entries in order, each
    consumer expanded into the options it declares."""
    description = "Model-based trace checking pipeline (TLC-substitute + MBTC)."
    parser = argparse.ArgumentParser(prog="repro", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _run, entries) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for entry in entries + _OBS:
            for flags, options in _declared(entry) if callable(entry) else [entry]:
                if callable(options.get("choices")):  # follows registrations
                    options = dict(options, choices=options["choices"]())
                command_parser.add_argument(*flags, **options)
    return parser


def _accumulate_coverage(path: str, report: CoverageReport) -> None:
    """Accumulate coverage across CLI invocations (paper Section 4.2.4)."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            report = CoverageReport.from_json(text).merge(report)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    print("accumulated " + report.summary())


@contextlib.contextmanager
def _drain_signals(callback):
    """Route SIGTERM/SIGINT to ``callback(signum)`` for the enclosed block.

    Outside the main thread no handler can be installed, and the command
    runs without signal-triggered drain (also the Windows fallback).
    """
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(ValueError, OSError):  # non-main thread
            previous[signum] = signal.signal(signum, lambda number, _frame: callback(number))
    try:
        yield
    finally:
        for signum, handler_before in previous.items():
            signal.signal(signum, handler_before)


def _cmd_watch(args: argparse.Namespace) -> int:
    # Resume-then-keep-checkpointing continues into the resume file
    # unless a separate --checkpoint destination is given.
    config = WatchConfig(
        **{**_kwargs(WatchConfig, args), "checkpoint_path": args.checkpoint_path or args.resume}
    )
    spec = build_spec(args.spec, **parse_params(args.param))
    per_node, _nodes = get_entry(args.spec).log_layout(spec)
    resume = read_watch_checkpoint(args.resume) if args.resume else None
    service = WatchService(spec, args.logs, per_node=per_node, config=config, resume_from=resume)
    with _drain_signals(service.request_stop):
        return service.run()


def _cmd_check(args: argparse.Namespace) -> int:
    spec = build_spec(args.spec, **parse_params(args.param))
    options = dict(_kwargs(ModelChecker, args), collect_graph=bool(args.dot))
    # The engines that keep no state graph cannot check temporal properties.
    skips_properties = (
        args.engine not in ("auto", "states") and args.check_properties and bool(spec.properties)
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
        print("interrupted; partial statistics follow", file=sys.stderr)
        if exc.result is not None:
            print(exc.result.summary())
            if exc.result.checkpoint_path:
                print(f"resume with: repro check {args.spec} --resume {exc.result.checkpoint_path}")
        return 143 if received["signum"] == signal.SIGTERM else 130
    except KeyboardInterrupt:
        # The signal landed outside the engine's interruptible region, so
        # there is no partial result to report -- just exit with the code.
        print("interrupted", file=sys.stderr)
        return 143 if received["signum"] == signal.SIGTERM else 130

    print(result.summary())
    collision = result.fingerprint_collision_probability
    print(f"fingerprint collision probability: calculated (optimistic) {collision:.1e}")
    if result.resumed_from:
        print(f"resumed from checkpoint {result.resumed_from}")
    if result.truncated:
        print(
            "WARNING: exploration truncated by --max-states/--max-depth; "
            "statistics cover only the explored prefix"
        )
    walks = f" ({result.walks} walks, longest {result.max_depth} step(s))"
    store_io = f" (I/O {result.store_io_seconds:.2f}s)" if result.store_io_seconds else ""
    print(
        f"engine: {result.engine}{walks if result.engine == 'simulate' else ''}; "
        f"store: {result.store}{store_io}; peak frontier {result.peak_frontier} state(s)"
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


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = build_spec(args.spec, **parse_params(args.param))
    per_node, _nodes = get_entry(args.spec).log_layout(spec)
    trace = log_module.trace_from_logs(spec, args.logs, per_node=per_node)
    print(f"rebuilt trace of {len(trace)} state(s) from {len(args.logs)} log file(s)")
    cache = SuccessorCache.for_spec(spec)  # the one the trace was decoded into
    result, coverage = check_one(
        spec, cache, trace, collect_coverage=bool(args.coverage_out), **_kwargs(check_one, args)
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
        _accumulate_coverage(args.coverage_out, coverage)
    return 0 if result.ok else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = build_spec(args.spec, **parse_params(args.param))
    reachable = None
    if args.with_reachable:
        reachable = check_spec(spec, check_properties=False, engine="fingerprint").distinct_states
        print(f"reachable state space: {reachable} state(s)")
    workload = _kwargs(generate_workload, args)
    if args.log_dir:
        # Trace i of a workload is a pure function of its options, so the
        # logged head is generated on its own and again for the batch.
        head = enumerate(generate_workload(spec, **workload))
        paths = log_module.write_trace_logs(
            spec, get_entry(args.spec), ((f"trace{i:04d}", t.states, t.actions) for i, t in head),
            args.log_dir, limit=args.log_limit,
        )
        print(f"wrote {len(paths)} log file(s) to {args.log_dir}")
    report = check_traces(
        spec, generate_workload(spec, **workload), reachable_count=reachable,
        **_kwargs(check_traces, args),
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
        _accumulate_coverage(args.coverage_out, report.coverage)
    return 0 if report.ok else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    options = _kwargs(generate_suite, args)
    spec_name, replay = args.spec, args.replay
    if args.smoke:
        # The CI preset: a small OT suite, generated and replayed end to end.
        spec_name = spec_name or "ot_array"
        options["max_length"] = min(options["max_length"], 5)
        replay = True
    if spec_name is None:
        raise ValueError("--spec is required (or use --smoke)")
    entry = get_entry(spec_name)
    spec = build_spec(spec_name, **parse_params(args.param))
    suite = generate_suite(spec, **options)
    print(suite.summary())
    stats = suite.stats
    print(
        f"  graph: {stats.graph_states} state(s), {stats.graph_edges} edge(s); "
        f"coverage goals hit: {stats.coverage_pair_count}; "
        f"{stats.tests_per_second:.0f} tests/sec"
    )
    exercised = ", ".join(sorted(suite.action_names())) or "(none)"
    print(f"  actions exercised: {exercised}")

    # Logs first: their limit and layout are refused before any file exists.
    if args.log_dir:
        paths = write_log_suite(suite, spec, args.log_dir, entry=entry, limit=args.log_limit)
        print(f"wrote {len(paths)} log file(s) to {args.log_dir}")
    count = write_corpus(suite, args.out)
    print(f"corpus of {count} case(s) written to {args.out}")
    if args.pytest_out:
        write_pytest_module(suite, args.pytest_out)
        print(f"pytest module written to {args.pytest_out}")

    if not replay:
        return 0
    _header, report = replay_corpus(args.out)
    print(
        f"replay through MBTC: PASS {report.passed}  FAIL {report.failed}  "
        f"ERROR {len(report.errors)}  ({report.total} case(s) in {report.duration_seconds:.2f}s)"
    )
    if report.failed:
        print(
            f"error: {report.failed} generated case(s) failed trace checking; "
            "the generator emitted an invalid behaviour", file=sys.stderr,
        )
    if report.errors:
        # A check that raised gave no verdict: neither passed nor failed.
        first = report.errors[0]
        print(
            f"error: checking {len(report.errors)} generated case(s) raised; "
            f"first: case {suite.cases[first.index].case_id}: {first.error}", file=sys.stderr,
        )
    if report.passed != report.total:
        return 1
    print("MBTCG -> MBTC loop closed: every generated case replays cleanly")
    return 0


def _option(*flags: str, **options: Any) -> Option:
    return flags, options


def _param(example: str) -> Option:
    return _option(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help=f"spec configuration parameter (repeatable), e.g. {example}",
    )


_SPEC = _option("spec", choices=registered_names, help="specification to use")
_PARAM = _param("n_nodes=3")
#: Telemetry flags shared by every command.
_OBS = [
    _option(
        "--metrics-out", metavar="FILE",
        help="append run telemetry (spans, counters, histograms) here as schema-versioned "
        f"JSON lines; ${ENV_METRICS_OUT} is the equivalent environment channel",
    ),
    _option(
        "--profile", action="store_true",
        help="run under cProfile and print the hottest functions to stderr",
    ),
]

#: Per command: its help, its function and, in order, what it declares -- a
#: consumer whose signature declares options (see :func:`_declared`) or an
#: option only this module consumes.  A callable ``choices`` is called when
#: the parser is built.
_COMMANDS = {
    "check": ("model-check a specification", _cmd_check, [
        _SPEC, _PARAM, ModelChecker,
        _option("--dot", metavar="FILE", help="export the state graph as DOT"),
        _option(
            "--progress-every", type=float, metavar="SECONDS",
            help="print a heartbeat line (depth, frontier, distinct, states/sec) "
            "to stderr every SECONDS during long explorations",
        ),
    ]),
    "trace": ("check server logs against a spec (MBTC)", _cmd_trace, [
        _SPEC, _PARAM,
        _option("logs", nargs="+", metavar="LOGFILE", help="per-node log files"),
        check_one,
        _option(
            "--coverage-out", metavar="FILE",
            help="merge this trace's coverage into a JSON report file",
        ),
    ]),
    "watch": ("stream-check live log files (long-running MBTC service)", _cmd_watch, [
        _SPEC, _PARAM,
        _option(
            "logs", nargs="+", metavar="LOGFILE",
            help="log files to follow, one trace per file (they need not exist yet)",
        ),
        WatchConfig,
        _option(
            "--resume", metavar="FILE",
            help="resume from a service checkpoint written by --checkpoint",
        ),
    ]),
    "simulate": ("generate and batch-check a workload", _cmd_simulate, [
        _SPEC, _PARAM, generate_workload,
        _option(
            "--log-dir", metavar="DIR",
            help="also write the first --log-limit traces as per-node JSON-lines logs",
        ),
        _option("--log-limit", type=int, default=10, help="traces --log-dir writes (default: 10)"),
        _option("--coverage-out", metavar="FILE", help="merged coverage JSON"),
        _option(
            "--with-reachable", action="store_true",
            help="model-check first so coverage is a fraction of the reachable space",
        ),
        check_traces,
    ]),
    "generate": ("MBTCG: enumerate spec behaviours into an executable test corpus", _cmd_generate, [
        _option(
            "--spec", choices=registered_names,
            help="specification to generate from (required unless --smoke)",
        ),
        _param("init_length=2"),
        generate_suite,
        _option(
            "--out", metavar="FILE", default="mbtcg_corpus.jsonl",
            help="JSON-lines corpus output (default: %(default)s)",
        ),
        _option("--pytest-out", metavar="FILE", help="also emit a runnable pytest module"),
        _option(
            "--log-dir", metavar="DIR",
            help="also write cases as per-node logs replayable by `repro trace`",
        ),
        _option(
            "--log-limit", type=int, default=10,
            help="cases written as logs with --log-dir (default: %(default)s)",
        ),
        _option(
            "--replay", action="store_true",
            help="replay the emitted corpus through check_traces (MBTCG -> MBTC)",
        ),
        _option(
            "--smoke", action="store_true",
            help="CI preset: small ot_array suite, corpus written, replay verified",
        ),
    ]),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a refusal is one ``error:`` line and exit code 2.

    A telemetry run starts only when ``--metrics-out``, ``$REPRO_METRICS_OUT``
    or ``--progress-every`` asks for it: by default output is byte-identical.
    """
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command][1]
    metrics_path = args.metrics_out or os.environ.get(ENV_METRICS_OUT)
    progress_every = getattr(args, "progress_every", None)
    run = exit_code = None

    def dispatch() -> int:
        with span(f"command.{args.command}"):
            return command(args)

    try:
        if metrics_path or progress_every is not None:
            run = start_run(
                command=f"repro {args.command}",
                sink_path=metrics_path or None,
                progress_every=progress_every,
            )
        exit_code = run_profiled(dispatch) if args.profile else dispatch()
        sys.stdout.flush()  # a reader that left surfaces here, not at exit
        return exit_code
    except BrokenPipeError:  # say nothing; the exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a writer the signal killed exits
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The conventional 128 + SIGINT exit code; commands that can report
        # partial progress (check) convert the interrupt before it gets here.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if run is not None:
            # A non-zero exit with a code is still a completed run (a found
            # violation exits 1); a refusal or an interrupt marks "error".
            run.close(exit_code=exit_code, status="ok" if exit_code is not None else "error")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
