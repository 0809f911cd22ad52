"""The coordinator: resolve engine + store, build the context, run, report.

:class:`ModelChecker` is the public face of the engine package.  It
contains no exploration logic: it is the one validator of the ``check``
options (every bad value or combination is a ``ValueError`` naming the
parameter, raised before anything runs) and the one place that knows
which engine accepts what.  It resolves ``engine="auto"`` /
``store="auto"`` to concrete names *eagerly*
(``checker.resolved_engine`` and ``checker.resolved_store`` are set before
``run()`` -- nothing resolves silently mid-run), holds the validated
options in one :class:`~repro.engine.base.CheckContext`, and per run adds
the result, store and expander and calls the engine's function: the one
BFS, :func:`~repro.engine.fingerprint.bfs_levels`, for ``fingerprint`` and
for ``states`` (whose store, the state graph, is the fingerprint store plus
states and edges), or :func:`~repro.engine.simulate.run_walks`.
:func:`check_spec` forwards its options to it unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from ..obs import current as obs_current, span
from ..resilience.checkpoint import Checkpoint, read_checkpoint
from ..tla.errors import (
    CheckInterrupted,
    LivenessViolation,
    StateSpaceLimitExceeded,
)
from ..tla.spec import Specification
from .base import CheckContext, CheckResult
from .fingerprint import bfs_levels
from .frontier import DEFAULT_SPILL_THRESHOLD
from .simulate import run_walks
from .store import make_store

__all__ = ["ENGINES", "STORES", "ModelChecker", "check_spec"]

#: Engine names accepted by ``ModelChecker(engine=...)`` and the CLI.
ENGINES = ("auto", "fingerprint", "states", "simulate")

#: Store names accepted by ``ModelChecker(store=...)`` and the CLI.
STORES = ("auto", "fingerprint", "states", "disk")

#: The function that runs each engine.
_RUN = {"fingerprint": bfs_levels, "states": bfs_levels, "simulate": run_walks}

#: The stores each engine accepts; the first is what ``store="auto"`` picks.
_ENGINE_STORES = {
    "fingerprint": ("fingerprint", "disk"),
    "states": ("states",),
    "simulate": ("fingerprint", "disk"),
}


class ModelChecker:
    """Explicit-state model checker dispatching to one of three engines.

    The constructor is the one validator of the ``check`` options: a value
    out of range, or one the resolved engine or store would silently
    ignore, raises ``ValueError`` naming the parameter before anything runs
    (the CLI prints it as its one ``error:`` line).
    """

    def __init__(
        self,
        spec: Specification,
        *,
        collect_graph: bool = False,
        check_deadlock: bool = False,
        check_properties: bool = True,
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        stop_on_violation: bool = True,
        engine: str = "auto",
        store: str = "auto",
        store_capacity: Optional[int] = None,
        store_path: Optional[str] = None,
        spill_threshold: Optional[int] = None,
        walks: Optional[int] = None,
        walk_depth: Optional[int] = None,
        seed: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        resume_path: Optional[str] = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
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
        # them implies collecting it.  Large runs (the paper-scale RaftMongo
        # configuration) can disable property checking to save memory.
        wants_properties = check_properties and bool(spec.properties)
        graph = collect_graph or wants_properties
        self.engine = engine
        self.check_properties = check_properties
        self.resume_path = resume_path

        # Resolve ``auto`` eagerly: the resolved names are attributes (and
        # later CheckResult fields), never a silent mid-run decision.
        if engine == "auto":
            resolved = "states" if graph else "fingerprint"
        else:
            resolved = engine
        self.resolved_engine = resolved

        # Only simulate is bounded by its own budgets (walks of walk_depth
        # from seed) instead of max_states/max_depth; each side's options
        # are refused by the other.
        if resolved == "simulate":
            if max_states is not None or max_depth is not None:
                raise ValueError(
                    f"the {resolved} engine is bounded by its own "
                    "budgets (walks/walk_depth) and does not consume "
                    "max_states/max_depth; passing them would be silently ignored"
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
                        f"{resolved} engine would silently ignore it"
                    )
        if graph and resolved != "states":
            raise ValueError(
                f"the {resolved} engine cannot collect a state graph; "
                "use engine='states' (or 'auto') when collect_graph or "
                "temporal-property checking is requested"
            )
        if store not in STORES:
            raise ValueError(f"unknown store {store!r}; expected one of {STORES}")
        stores = _ENGINE_STORES[resolved]
        if store == "auto":
            self.resolved_store = stores[0]
        elif store in stores:
            self.resolved_store = store
        else:
            refusal = f"the {resolved} engine supports stores {stores}; got {store!r}"
            if engine == "auto":
                if collect_graph:
                    why = "collect_graph needs the state graph"
                elif wants_properties:
                    why = (
                        "check_properties needs the state graph to check "
                        "the spec's temporal properties"
                    )
                else:
                    why = "no state graph was requested"
                refusal = f"engine='auto' resolved to {resolved!r} because {why}; {refusal}"
            raise ValueError(refusal)
        if store_capacity is not None and self.resolved_store != "disk":
            raise ValueError(
                "store_capacity only applies to the 'disk' store's write-back "
                "cache; pass store='disk' with it"
            )
        if store_path is not None and self.resolved_store != "disk":
            raise ValueError(
                "store_path only applies to the file-backed 'disk' store; "
                "pass store='disk' with it"
            )
        # Spilling and checkpoints are the fingerprint engine's: the states
        # engine runs the same BFS, but its graph holds every state in
        # memory and is not carried by a checkpoint.
        if spill_threshold is not None and resolved != "fingerprint":
            why = (
                "the states engine's graph holds every state, so spilling "
                "its frontier saves nothing"
                if resolved == "states"
                else f"the {resolved} engine has no BFS frontier to spill"
            )
            raise ValueError(
                f"spill_threshold applies to the fingerprint engine only; {why}"
            )
        if spill_threshold is None and self.resolved_store == "disk" and resolved == "fingerprint":
            # A disk-store run is by definition the "state space will not fit
            # in memory" regime, and there the frontier is the next-largest
            # resident consumer -- so spilling defaults on with the store.
            spill_threshold = DEFAULT_SPILL_THRESHOLD

        if checkpoint_every is not None and not checkpoint_path:
            raise ValueError("checkpoint_every has no effect without checkpoint_path")
        if (checkpoint_path or resume_path) and resolved != "fingerprint":
            why = (
                "a checkpoint does not carry the states engine's graph"
                if resolved == "states"
                else f"the {resolved} engine cannot snapshot its exploration"
            )
            raise ValueError(
                "checkpoint_path/resume_path apply to the fingerprint engine "
                f"only; {why}"
            )
        if (
            (checkpoint_path or resume_path)
            and self.resolved_store == "disk"
            and not store_path
        ):
            raise ValueError(
                "checkpoint/resume with the disk store requires store_path: "
                "the checkpoint records only the database's identity and "
                "high-water mark, and an ephemeral temp database disappears "
                "with the process"
            )

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
            engine=self.resolved_engine,
            store=self.resolved_store,
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
        store = make_store(
            self.resolved_store, capacity=options.store_capacity, path=options.store_path
        )
        ctx = replace(options, result=result, store=store, expander=expander)
        if self.resume_path is not None:
            self._restore(ctx, result)
        timer = span("check.run")
        try:
            with timer:
                _RUN[self.resolved_engine](ctx)
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
        checkpoint.validate_for(ctx.spec.name, ctx.spec.registry_ref, self.resolved_store)
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
