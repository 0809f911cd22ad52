"""The coordinator: resolve engine + store, build the context, run, report.

:class:`ModelChecker` is the public face of the engine package.  It
contains no exploration logic: it validates the requested
configuration, resolves ``engine="auto"`` / ``store="auto"`` to concrete
registered names *eagerly* (``checker.resolved_engine`` and
``checker.resolved_store`` are set before ``run()`` -- nothing resolves
silently mid-run), builds the :class:`~repro.engine.base.CheckContext`, and
hands it to the selected :class:`~repro.engine.base.Engine`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs import current as obs_current, span
from ..resilience.checkpoint import Checkpoint, read_checkpoint
from ..resilience.faults import FaultPlan
from ..resilience.supervisor import SupervisionConfig
from ..tla.errors import (
    CheckerError,
    CheckInterrupted,
    LivenessViolation,
    StateSpaceLimitExceeded,
)
from ..tla.spec import Specification
from .base import (
    CheckContext,
    CheckResult,
    InterpretedExpander,
    engine_names,
    get_engine,
    make_expander,
)
from .frontier import DEFAULT_SPILL_THRESHOLD
from .store import make_store, store_names

__all__ = ["ModelChecker", "check_spec"]


class ModelChecker:
    """Explicit-state model checker dispatching to a pluggable engine."""

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
        workers: Optional[int] = None,
        store: str = "auto",
        store_capacity: Optional[int] = None,
        store_path: Optional[str] = None,
        spill_threshold: Optional[int] = None,
        walks: int = 100,
        walk_depth: int = 50,
        seed: int = 0,
        supervision: Optional[SupervisionConfig] = None,
        chaos: Optional[FaultPlan] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        resume_path: Optional[str] = None,
        compile_mode: str = "auto",
    ) -> None:
        known_engines = ("auto",) + engine_names()
        if engine not in known_engines:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {known_engines}"
            )
        if compile_mode not in ("on", "off", "auto"):
            raise ValueError(
                f"unknown compile mode {compile_mode!r}; expected 'on', 'off' "
                "or 'auto'"
            )
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if max_states is not None and max_states < 1:
            raise ValueError(f"max_states must be >= 1; got {max_states}")
        if max_depth is not None and max_depth < 0:
            raise ValueError(f"max_depth must be >= 0; got {max_depth}")
        if walks < 1:
            raise ValueError("walks must be >= 1")
        if walk_depth < 1:
            raise ValueError("walk_depth must be >= 1")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.spec = spec
        self.compile_mode = compile_mode
        self.check_properties = check_properties
        # Temporal properties are checked on the state graph, so requesting
        # them implies collecting it.  Large runs (the paper-scale RaftMongo
        # configuration) can disable property checking to save memory.
        self.collect_graph = collect_graph or (check_properties and bool(spec.properties))
        self.check_deadlock = check_deadlock
        self.max_states = max_states
        self.max_depth = max_depth
        self.stop_on_violation = stop_on_violation
        self.engine = engine
        self.workers = workers
        self.walks = walks
        self.walk_depth = walk_depth
        self.seed = seed
        self.store_capacity = store_capacity
        self.store_path = store_path
        self.supervision = supervision
        self.chaos = chaos
        self.checkpoint_path = checkpoint_path
        # A checkpoint path with no interval means "every level".
        self.checkpoint_every = (
            checkpoint_every if checkpoint_every else (1 if checkpoint_path else 0)
        )
        self.resume_path = resume_path

        # Resolve ``auto`` eagerly: the resolved names are attributes (and
        # later CheckResult fields), never a silent mid-run decision.
        if engine == "auto":
            self.resolved_engine = "states" if self.collect_graph else "fingerprint"
        else:
            self.resolved_engine = engine
        engine_cls = get_engine(self.resolved_engine)

        if engine_cls.bounded_exploration and (
            max_states is not None or max_depth is not None
        ):
            raise ValueError(
                f"the {self.resolved_engine} engine is bounded by its own "
                "budgets (walks/walk_depth) and does not consume "
                "max_states/max_depth; passing them would be silently ignored"
            )
        if self.collect_graph and not engine_cls.supports_graph:
            raise ValueError(
                f"the {self.resolved_engine} engine cannot collect a state graph; "
                "use engine='states' (or 'auto') when collect_graph or "
                "temporal-property checking is requested"
            )
        if engine_cls.requires_registry(workers) and spec.registry_ref is None:
            raise CheckerError(
                f"engine={self.resolved_engine!r} with worker processes requires "
                f"a registered specification, but {spec.name!r} has no "
                "registry_ref; build it via repro.tla.registry.build_spec (or "
                "register its factory with register_spec) so worker processes "
                "can rebuild it by name"
            )

        known_stores = ("auto",) + store_names()
        if store not in known_stores:
            raise ValueError(
                f"unknown store {store!r}; expected one of {known_stores}"
            )
        if store == "auto":
            self.resolved_store = engine_cls.supported_stores[0]
        elif store in engine_cls.supported_stores:
            self.resolved_store = store
        else:
            raise ValueError(
                f"the {self.resolved_engine} engine supports stores "
                f"{engine_cls.supported_stores}; got {store!r}"
            )
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
        if spill_threshold is not None and spill_threshold < 1:
            raise ValueError("spill_threshold must be >= 1")
        if spill_threshold is not None and not engine_cls.supports_checkpoint:
            raise ValueError(
                f"the {self.resolved_engine} engine has no level-synchronous "
                "BFS frontier to spill; spill_threshold applies to the "
                "fingerprint engine"
            )
        if spill_threshold is not None:
            self.spill_threshold: Optional[int] = spill_threshold
        elif self.resolved_store == "disk" and engine_cls.supports_checkpoint:
            # A disk-store run is by definition the "state space will not fit
            # in memory" regime, and there the frontier is the next-largest
            # resident consumer -- so spilling defaults on with the store.
            self.spill_threshold = DEFAULT_SPILL_THRESHOLD
        else:
            self.spill_threshold = None

        # Resilience knobs: validated eagerly so a misconfigured chaos or
        # checkpoint run fails before exploration, not silently no-ops.
        if chaos is not None and not engine_cls.requires_registry(workers):
            raise ValueError(
                "chaos fault injection targets worker pools, but "
                f"engine={self.resolved_engine!r} with workers={workers!r} "
                "runs no pool; use engine='simulate' with workers > 1"
            )
        if (checkpoint_path or resume_path) and not engine_cls.supports_checkpoint:
            raise ValueError(
                f"the {self.resolved_engine} engine does not support "
                "checkpoint/resume; use the fingerprint engine"
            )
        if checkpoint_path and self.resolved_store == "states":
            raise ValueError(
                "the 'states' store cannot be snapshot into a checkpoint; "
                "use the fingerprint or disk store"
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

    # ------------------------------------------------------------------------
    def run(self) -> CheckResult:
        """Explore the state space and return a :class:`CheckResult`.

        A ``KeyboardInterrupt`` during exploration is converted into
        :class:`~repro.tla.errors.CheckInterrupted` carrying the partial
        result (statistics of the explored prefix, plus the last checkpoint
        path when the run was checkpointing), so an interrupted run reports
        what it managed instead of vanishing into a traceback.
        """
        result = CheckResult(
            spec_name=self.spec.name,
            engine=self.resolved_engine,
            store=self.resolved_store,
            checkpoint_path=self.checkpoint_path,
        )
        # emit=False: making the expander (compiling the spec, unless the
        # mode is off) is recorded as a metrics gauge and a run label, not a
        # span event -- event streams stay stable for consumers that pin the
        # per-run event sequence.
        compile_timer = span("check.compile", emit=False)
        with compile_timer:
            expander, result.compile_error = make_expander(
                self.spec, self.compile_mode
            )
        if not isinstance(expander, InterpretedExpander):
            result.compiled = True
            result.compile_seconds = compile_timer.elapsed
        store = make_store(
            self.resolved_store, capacity=self.store_capacity, path=self.store_path
        )
        ctx = CheckContext(
            spec=self.spec,
            result=result,
            store=store,
            expander=expander,
            compile_mode=self.compile_mode,
            collect_graph=self.collect_graph,
            check_deadlock=self.check_deadlock,
            max_states=self.max_states,
            max_depth=self.max_depth,
            stop_on_violation=self.stop_on_violation,
            workers=self.workers,
            walks=self.walks,
            walk_depth=self.walk_depth,
            seed=self.seed,
            supervision=self.supervision,
            chaos=self.chaos,
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            store_capacity=self.store_capacity,
            store_path=self.store_path,
            spill_threshold=self.spill_threshold,
        )
        if self.resume_path is not None:
            self._restore(ctx, result)
        timer = span("check.run")
        try:
            with timer:
                get_engine(self.resolved_engine)().run(ctx)
        except KeyboardInterrupt:
            result.duration_seconds = timer.elapsed
            result.interrupted = True
            result.truncated = True
            result.distinct_states = ctx.store.distinct_count
            self._record_telemetry(result, expander)
            raise CheckInterrupted(
                f"check of {self.spec.name!r} interrupted after "
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
            and self.spec.properties
            and result.invariant_violation is None
            and not result.truncated
        ):
            for prop in self.spec.properties:
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
            for attr, metric in (
                ("flushes", "store.flushes"),
                ("bloom_negatives", "store.bloom_negatives"),
                ("disk_probes", "store.disk_probes"),
                ("hot_hits", "store.hot_hits"),
                ("pending_hits", "store.pending_hits"),
            ):
                value = getattr(store, attr, 0)
                if value:
                    reg.inc(metric, value)
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
        compiled_label = "compiled" if result.compiled else "interpreted"
        if result.compile_error is not None:
            compiled_label += f" ({result.compile_error})"
        run.labels.update(
            {
                "spec": result.spec_name,
                "engine": result.engine,
                "store": result.store,
                "compiled": compiled_label,
            }
        )
        reg = run.registry
        reg.inc("check.runs")
        if result.compiled:
            reg.inc("check.compiled_runs")
            reg.set_gauge("check.compile_seconds", result.compile_seconds)
            # The generic kernel's read-set memo, summed over its actions
            # and invariants (this process's expander; pool workers keep
            # their own).  The native kernel has none.
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
        checkpoint.validate_for(
            self.spec.name, self.spec.registry_ref, self.resolved_store
        )
        ctx.store.restore(checkpoint.store_state)
        stats = checkpoint.stats
        result.generated_states = stats.get("generated_states", 0)
        result.max_depth = stats.get("max_depth", 0)
        result.peak_frontier = stats.get("peak_frontier", 0)
        result.action_counts = dict(stats.get("action_counts", {}))
        result.resumed_from = self.resume_path
        ctx.resume = (checkpoint.depth, checkpoint.frontier)


def check_spec(
    spec: Specification,
    *,
    collect_graph: bool = False,
    check_deadlock: bool = False,
    check_properties: bool = True,
    max_states: Optional[int] = None,
    max_depth: Optional[int] = None,
    raise_on_violation: bool = False,
    engine: str = "auto",
    workers: Optional[int] = None,
    store: str = "auto",
    store_capacity: Optional[int] = None,
    store_path: Optional[str] = None,
    spill_threshold: Optional[int] = None,
    walks: int = 100,
    walk_depth: int = 50,
    seed: int = 0,
    supervision: Optional[SupervisionConfig] = None,
    chaos: Optional[FaultPlan] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    resume_path: Optional[str] = None,
    compile_mode: str = "auto",
) -> CheckResult:
    """Convenience wrapper: build a checker, run it, optionally raise.

    With ``raise_on_violation=True`` the helper raises the recorded
    :class:`InvariantViolation`, :class:`DeadlockError` or
    :class:`LivenessViolation`, mimicking how TLC aborts with an error trace.
    """
    checker = ModelChecker(
        spec,
        collect_graph=collect_graph,
        check_deadlock=check_deadlock,
        check_properties=check_properties,
        max_states=max_states,
        max_depth=max_depth,
        engine=engine,
        workers=workers,
        store=store,
        store_capacity=store_capacity,
        store_path=store_path,
        spill_threshold=spill_threshold,
        walks=walks,
        walk_depth=walk_depth,
        seed=seed,
        supervision=supervision,
        chaos=chaos,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        resume_path=resume_path,
        compile_mode=compile_mode,
    )
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
        if result.truncated and max_states is not None:
            raise StateSpaceLimitExceeded(
                f"exploration of {spec.name!r} was truncated at {result.distinct_states} states"
            )
    return result
