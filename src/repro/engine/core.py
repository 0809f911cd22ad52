"""The coordinator: validate the options, build the context, run, report.

:class:`ModelChecker` is the public face of the engine package.  It
contains no exploration logic: it is the one validator of the ``check``
options (every bad value or combination is a ``ValueError`` naming the
parameter, raised before anything runs), holds the validated options in
one :class:`~repro.engine.base.CheckContext`, and per run adds the
result, store and expander and calls the engine's function: the one BFS,
:func:`~repro.engine.fingerprint.bfs_levels`, or
:func:`~repro.engine.simulate.run_walks`.  A BFS run keeps the state graph
exactly when ``collect_graph`` is set or the spec's temporal properties
are checked; the graph is then its visited store (reported as
``store=graph``).  :func:`check_spec` forwards its options to it unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Annotated, Any, Optional

from ..obs import current as obs_current, span
from ..resilience.checkpoint import Checkpoint, read_checkpoint
from ..tla.errors import (
    CheckInterrupted,
    LivenessViolation,
    StateSpaceLimitExceeded,
)
from ..tla.graph import StateGraph
from ..tla.spec import Specification
from .base import CheckContext, CheckResult
from .fingerprint import bfs_levels
from .frontier import DEFAULT_SPILL_THRESHOLD
from .simulate import run_walks
from .store import make_store

__all__ = ["ENGINES", "STORES", "ModelChecker", "check_spec"]

#: Engine names accepted by ``ModelChecker(engine=...)`` and the CLI.
ENGINES = ("fingerprint", "simulate")

#: Store names accepted by ``ModelChecker(store=...)`` and the CLI.
STORES = ("fingerprint", "disk")


class ModelChecker:
    """Explicit-state model checker: the one BFS, or seeded random walks.

    The constructor is the one validator of the ``check`` options: a value
    out of range, or one the run would silently ignore, raises
    ``ValueError`` naming the parameter before anything runs (the CLI
    prints it as its one ``error:`` line).
    """

    def __init__(
        self,
        spec: Specification,
        *,
        # A parameter typed ``Annotated[T, {...}]`` is also a ``repro check``
        # flag of that name: the dict is its help and any other flag
        # spelling, metavar or choices (see ``repro.pipeline.cli``).
        engine: Annotated[str, {
            "choices": ENGINES,
            "help": "exploration engine (default: fingerprint, the exhaustive BFS; "
            "simulate runs seeded random walks instead)",
        }] = "fingerprint",
        store: Annotated[str, {
            "choices": STORES,
            "help": "visited-state store (default: fingerprint, in memory; disk keeps the "
            "visited set in a SQLite file for million-state runs; not with --dot or "
            "temporal properties, whose state graph is the store)",
        }] = "fingerprint",
        store_capacity: Annotated[Optional[int], {
            "help": "the disk store's write-back cache size",
        }] = None,
        store_path: Annotated[Optional[str], {
            "metavar": "FILE",
            "help": "database file of --store disk (default: an ephemeral temp file; "
            "required when checkpointing a disk-store run)",
        }] = None,
        spill_threshold: Annotated[Optional[int], {
            "metavar": "N",
            "help": "BFS frontier entries kept in memory before a level spills to "
            "compressed disk chunks (default: on at 100000 with --store disk, "
            "off otherwise)",
        }] = None,
        walks: Annotated[Optional[int], {
            "help": "random walks for --engine simulate (default: 100)",
        }] = None,
        walk_depth: Annotated[Optional[int], {
            "flag": "--depth",
            "metavar": "DEPTH",
            "help": "max steps per random walk for --engine simulate (default: 50)",
        }] = None,
        seed: Annotated[Optional[int], {
            "help": "RNG seed for --engine simulate (default: 0)",
        }] = None,
        max_states: Annotated[Optional[int], {"help": "stop at this many distinct states"}] = None,
        max_depth: Annotated[Optional[int], {"help": "stop this many BFS levels deep"}] = None,
        checkpoint_path: Annotated[Optional[str], {
            "flag": "--checkpoint",
            "metavar": "FILE",
            "help": "write a resumable snapshot of the BFS every --checkpoint-every "
            "levels (not with --dot or temporal properties, which keep the state graph)",
        }] = None,
        checkpoint_every: Annotated[Optional[int], {
            "metavar": "K",
            "help": "levels between checkpoints (default: 1, i.e. every level)",
        }] = None,
        resume_path: Annotated[Optional[str], {
            "flag": "--resume",
            "metavar": "FILE",
            "help": "resume an interrupted run from a --checkpoint snapshot",
        }] = None,
        check_deadlock: Annotated[bool, {
            "flag": "--deadlock",
            "help": "detect deadlocks",
        }] = False,
        check_properties: Annotated[bool, {
            "flag": "--no-properties",
            "help": "skip temporal properties",
        }] = True,
        collect_graph: bool = False,
        stop_on_violation: bool = True,
    ) -> None:
        if engine == "states":
            engine = "fingerprint"  # kept only because benchmarks/ still passes it
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if store not in STORES:
            raise ValueError(f"unknown store {store!r}; expected one of {STORES}")
        for name, value in (
            ("max_states", max_states),
            ("walks", walks),
            ("walk_depth", walk_depth),
            ("store_capacity", store_capacity),
            ("spill_threshold", spill_threshold),
            ("checkpoint_every", checkpoint_every),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1; got {value}")
        if max_depth is not None and max_depth < 0:
            raise ValueError(f"max_depth must be >= 0; got {max_depth}")
        # Temporal properties are checked on the state graph, so requesting
        # them implies keeping it.  Large runs (the paper-scale RaftMongo
        # configuration) can disable property checking to save memory.
        graph = collect_graph or (check_properties and bool(spec.properties))
        if graph:
            if collect_graph:
                asked = "collect_graph (--dot) asks for it"
            else:
                asked = (
                    f"{spec.name}'s temporal properties are checked on it (pass "
                    "check_properties=False, --no-properties, to skip them)"
                )
            for option, passed in (
                ("engine='simulate'", engine == "simulate"),
                ("store='disk'", store == "disk"),
                ("spill_threshold", spill_threshold is not None),
                ("checkpoint_path/resume_path", bool(checkpoint_path or resume_path)),
            ):
                if passed:
                    raise ValueError(
                        f"{option} cannot be combined with the state graph, which "
                        f"a run keeps in memory; {asked}"
                    )
        # Only simulate is bounded by its own budgets (walks of walk_depth
        # from seed) instead of max_states/max_depth; each side's options
        # are refused by the other.
        if engine == "simulate":
            if max_states is not None or max_depth is not None:
                raise ValueError(
                    "the simulate engine is bounded by its own budgets "
                    "(walks/walk_depth) and does not consume max_states/max_depth; "
                    "passing them would be silently ignored"
                )
            if spill_threshold is not None:
                raise ValueError(
                    "spill_threshold applies to the BFS only; the simulate "
                    "engine has no frontier to spill"
                )
            if checkpoint_path or resume_path:
                raise ValueError(
                    "checkpoint_path/resume_path apply to the BFS only; the "
                    "simulate engine cannot snapshot its exploration"
                )
        else:
            for option, value in (
                ("walks", walks),
                ("walk_depth", walk_depth),
                ("seed", seed),
            ):
                if value is not None:
                    raise ValueError(
                        f"{option} applies only to engine='simulate'; the "
                        f"{engine} engine would silently ignore it"
                    )
        if store_capacity is not None and store != "disk":
            raise ValueError(
                "store_capacity only applies to the 'disk' store's write-back "
                "cache; pass store='disk' with it"
            )
        if store_path is not None and store != "disk":
            raise ValueError(
                "store_path only applies to the file-backed 'disk' store; "
                "pass store='disk' with it"
            )
        if spill_threshold is None and store == "disk" and engine == "fingerprint":
            # A disk-store run is by definition the "state space will not fit
            # in memory" regime, and there the frontier is the next-largest
            # resident consumer -- so spilling defaults on with the store.
            spill_threshold = DEFAULT_SPILL_THRESHOLD
        if checkpoint_every is not None and not checkpoint_path:
            raise ValueError("checkpoint_every has no effect without checkpoint_path")
        if (checkpoint_path or resume_path) and store == "disk" and not store_path:
            raise ValueError(
                "checkpoint/resume with the disk store requires store_path: "
                "the checkpoint records only the database's identity and "
                "high-water mark, and an ephemeral temp database disappears "
                "with the process"
            )
        self.engine = engine
        #: The visited store's name, as reported: a graph run's is "graph".
        self.store = StateGraph.name if graph else store
        self.check_properties = check_properties
        self.resume_path = resume_path

        # The validated options, held once; run() adds each run's result,
        # store and expander.
        self._context = CheckContext(
            spec=spec,
            result=None,
            store=None,
            expander=None,
            collect_graph=graph,
            check_deadlock=check_deadlock,
            max_states=max_states,
            max_depth=max_depth,
            stop_on_violation=stop_on_violation,
            # The simulate engine's budgets when left unset.
            walks=100 if walks is None else walks,
            walk_depth=50 if walk_depth is None else walk_depth,
            seed=0 if seed is None else seed,
            checkpoint_path=checkpoint_path,
            # None means "every level"; without a path nothing is written.
            checkpoint_every=checkpoint_every or 1,
            store_capacity=store_capacity,
            store_path=store_path,
            spill_threshold=spill_threshold,
        )

    # ------------------------------------------------------------------------
    def run(self) -> CheckResult:
        """Explore the state space and return a :class:`CheckResult`.

        A ``KeyboardInterrupt`` during exploration is converted into
        :class:`~repro.tla.errors.CheckInterrupted` carrying the partial
        result (statistics of the explored prefix, plus the last checkpoint
        path when the run was checkpointing), so an interrupted run reports
        what it managed instead of vanishing into a traceback.
        """
        options = self._context
        spec = options.spec
        result = CheckResult(
            spec_name=spec.name,
            engine=self.engine,
            store=self.store,
            checkpoint_path=options.checkpoint_path,
        )
        # emit=False: compiling the spec is recorded as a metrics gauge and
        # a run label, not a span event -- event streams stay stable for
        # consumers that pin the per-run event sequence.  Imported here so
        # the engine package carries no load-time dependency on it.
        from ..compile import compile_spec

        compile_timer = span("check.compile", emit=False)
        with compile_timer:
            expander = compile_spec(spec)
        result.compile_seconds = compile_timer.elapsed
        if options.collect_graph:
            store = StateGraph()
        else:
            store = make_store(
                self.store, capacity=options.store_capacity, path=options.store_path
            )
        ctx = replace(options, result=result, store=store, expander=expander)
        if self.resume_path is not None:
            self._restore(ctx, result)
        timer = span("check.run")
        try:
            with timer:
                (run_walks if self.engine == "simulate" else bfs_levels)(ctx)
        except KeyboardInterrupt:
            result.duration_seconds = timer.elapsed
            result.interrupted = True
            result.truncated = True
            result.distinct_states = ctx.store.distinct_count
            self._record_telemetry(result, expander)
            raise CheckInterrupted(
                f"check of {spec.name!r} interrupted after "
                f"{result.distinct_states} distinct states",
                result=result,
            ) from None
        finally:
            self._finalize_store(ctx, result)
        result.duration_seconds = timer.elapsed
        self._record_telemetry(result, expander)

        # Temporal properties ------------------------------------------------
        if (
            result.graph is not None
            and self.check_properties
            and spec.properties
            and result.invariant_violation is None
            and not result.truncated
        ):
            for prop in spec.properties:
                result.property_outcomes.append(result.graph.check_property(prop))
        return result

    @staticmethod
    def _finalize_store(ctx: CheckContext, result: CheckResult) -> None:
        """Fold store statistics into the result and release the store.

        Runs on every exit path (success, interrupt, engine failure): the
        disk store must flush/close so a persistent database is complete on
        disk (and an ephemeral one is deleted).
        """
        store = ctx.store
        result.store_io_seconds = getattr(store, "io_seconds", 0.0)
        close = getattr(store, "close", None)
        if close is not None:
            close()
        run = obs_current()
        if run is not None:
            reg = run.registry
            # The gauge mirrors the reported figure (read before close, like
            # the summary line); the counters are folded after close so the
            # final flush the close performs is counted too.
            reg.set_gauge("store.io_seconds", result.store_io_seconds)
            for attr in ("flushes", "bloom_negatives", "disk_probes"):
                value = getattr(store, attr, 0)
                if value:
                    reg.inc("store." + attr, value)
            negatives = getattr(store, "bloom_negatives", 0)
            probes = getattr(store, "disk_probes", 0)
            if negatives or probes:
                # Fraction of cold membership checks the Bloom filter
                # answered without touching SQLite.
                reg.set_gauge(
                    "store.bloom_hit_rate", negatives / (negatives + probes)
                )

    @staticmethod
    def _record_telemetry(result: CheckResult, expander: Any) -> None:
        """Fold the finished (or interrupted) result into the active run."""
        run = obs_current()
        if run is None:
            return
        run.labels.update(
            {
                "spec": result.spec_name,
                "engine": result.engine,
                "store": result.store,
                "kernel": expander.compile_info["kernel"],
            }
        )
        reg = run.registry
        reg.inc("check.runs")
        reg.set_gauge("check.compile_seconds", result.compile_seconds)
        # The generic kernel's read-set memo, summed over its actions and
        # invariants.  The native kernel has none.
        memo = expander.compile_info.get("memo")
        if memo:
            for field in ("hits", "misses", "entries"):
                reg.inc(
                    f"compile.memo_{field}",
                    sum(stats[field] for stats in memo.values()),
                )
        reg.inc("check.generated_states", result.generated_states)
        reg.inc("check.distinct_states", result.distinct_states)
        reg.set_gauge("check.max_depth", result.max_depth)
        reg.set_gauge("check.peak_frontier", result.peak_frontier)
        reg.set_gauge("check.duration_seconds", result.duration_seconds)
        if result.duration_seconds > 0:
            reg.set_gauge(
                "check.states_per_second",
                result.generated_states / result.duration_seconds,
            )
        if result.walks:
            reg.inc("check.walks", result.walks)
        if result.frontier_spilled_states:
            reg.inc("frontier.spilled_states", result.frontier_spilled_states)
        for flag, metric in (
            (result.truncated, "check.truncated"),
            (result.interrupted, "check.interrupted"),
            (result.invariant_violation is not None, "check.invariant_violations"),
            (result.deadlock is not None, "check.deadlocks"),
        ):
            if flag:
                reg.inc(metric)

    def _restore(self, ctx: CheckContext, result: CheckResult) -> None:
        """Load ``resume_path`` into the context: store and statistics.

        The engine picks the restored frontier and depth up through
        :meth:`CheckContext.start_frontier`; everything below that depth is
        already reflected in the restored store and statistics.
        """
        assert self.resume_path is not None
        checkpoint: Checkpoint = read_checkpoint(self.resume_path)
        checkpoint.validate_for(ctx.spec.name, ctx.spec.registry_ref, self.store)
        ctx.store.restore(checkpoint.store_state)
        stats = checkpoint.stats
        result.generated_states = stats.get("generated_states", 0)
        result.max_depth = stats.get("max_depth", 0)
        result.peak_frontier = stats.get("peak_frontier", 0)
        result.action_counts = dict(stats.get("action_counts", {}))
        result.resumed_from = self.resume_path
        ctx.resume = (checkpoint.depth, checkpoint.frontier)


def check_spec(
    spec: Specification, *, raise_on_violation: bool = False, **options: Any
) -> CheckResult:
    """Convenience wrapper: build a checker, run it, optionally raise.

    ``options`` are :class:`ModelChecker`'s keyword parameters, forwarded
    as given; the checker validates them.  With ``raise_on_violation=True``
    the helper raises the recorded :class:`InvariantViolation`,
    :class:`DeadlockError` or :class:`LivenessViolation`, mimicking how TLC
    aborts with an error trace.
    """
    checker = ModelChecker(spec, **options)
    result = checker.run()
    if raise_on_violation:
        if result.invariant_violation is not None:
            raise result.invariant_violation
        if result.deadlock is not None:
            raise result.deadlock
        for outcome in result.property_outcomes:
            if not outcome.holds:
                raise LivenessViolation(
                    f"temporal property {outcome.property_name!r} violated: "
                    f"{outcome.explanation}",
                    property_name=outcome.property_name,
                )
        if result.truncated and options.get("max_states") is not None:
            raise StateSpaceLimitExceeded(
                f"exploration of {spec.name!r} was truncated at {result.distinct_states} states"
            )
    return result
