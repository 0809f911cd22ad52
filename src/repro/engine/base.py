"""Engine seam: the protocol, shared check context, result type and registry.

An *engine* is one exploration strategy over a specification's state space
(exhaustive BFS, random simulation, ...).  Every engine receives
a :class:`CheckContext` -- the spec, its *expander*, the run limits, the
visited-state store and the shared bookkeeping helpers -- and fills in the
context's :class:`CheckResult`.  The context owns what engines share:
initial-frontier seeding, checkpointing, and counterexample replay from the
parent fingerprints the store keeps.

The expander is the one way any engine computes successors: an object with
``transitions(values)``, ``verdict_for(values, fp)`` and ``expand(values)``
(the first plus a memoized second) over value tuples.  The BFS engines call
``transitions`` and take one verdict per *new* state; ``simulate``, whose
walks revisit states, calls ``expand``.  The trace fold
(:class:`repro.tla.trace.SuccessorCache`) holds one too and calls only
``transitions``.  There are exactly two -- :class:`InterpretedExpander` here and
:class:`repro.compile.CompiledSpec` -- and :func:`make_expander` is the one
place the ``on|off|auto`` policy picks between them, for the coordinator and
for pool workers alike.

Engines are classes registered by name (:func:`register_engine`); adding an
exploration strategy is one module that defines an ``Engine`` subclass and
registers it -- the coordinator (:class:`repro.engine.core.ModelChecker`)
and the CLI pick it up from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

from ..resilience.checkpoint import Checkpoint, write_checkpoint
from ..resilience.faults import FaultPlan
from ..resilience.supervisor import SupervisionConfig, SupervisionStats
from ..tla.errors import CheckerError, DeadlockError, InvariantViolation
from ..tla.graph import PropertyCheckOutcome, StateGraph
from ..tla.spec import Specification
from ..tla.state import State
from ..tla.values import FingerprintCache
from .frontier import SpillFrontier

__all__ = [
    "CheckContext",
    "CheckResult",
    "Engine",
    "InterpretedExpander",
    "SuccessorInfo",
    "Transition",
    "Verdict",
    "engine_names",
    "get_engine",
    "make_expander",
    "memoized_verdict",
    "register_engine",
]

#: One successor without its verdicts: ``(action name, successor value tuple,
#: successor fingerprint)``.  What the BFS engines and trace checking step on.
Transition = Tuple[str, Tuple[Any, ...], int]

#: One entry of an expansion result: ``(action name, successor value tuple,
#: successor fingerprint, violated invariant name or None, constraint
#: verdict)``.  What the simulation engine's walks step on.
SuccessorInfo = Tuple[str, Tuple[Any, ...], int, Optional[str], bool]

#: ``(violated invariant name or None, constraint verdict)`` of one state.
Verdict = Tuple[Optional[str], bool]

#: One BFS frontier entry: ``(state value tuple, fingerprint)``.
FrontierEntry = Tuple[Tuple[Any, ...], int]

#: Cap on an expander's invariant/constraint verdict memo (see
#: :func:`memoized_verdict`); bounds per-process memory on paper-scale runs.
VERDICT_MEMO_MAX = 500_000


def memoized_verdict(
    verdict_for: Callable[[Tuple[Any, ...], int], Verdict],
    values: Tuple[Any, ...],
    fp: int,
    verdicts: Dict[int, Verdict],
) -> Verdict:
    """``verdict_for(values, fp)``, memoized per fingerprint: ``expand``'s verdicts.

    Only ``expand`` -- the simulation engine's walks -- goes through it:
    walks revisit states, and without the memo they would evaluate
    invariants once per *generated* state instead of once per *distinct*
    one.  The BFS engines never do: they ask ``verdict_for`` once per new
    state, which no memo can improve on.  Verdicts are deterministic per
    state, so memoization cannot change results; the memo is capped (oldest
    half discarded, like ``FingerprintCache``) so it never grows into a
    second per-process copy of a paper-scale visited set.
    """
    cached = verdicts.get(fp)
    if cached is None:
        cached = verdict_for(values, fp)
        if len(verdicts) >= VERDICT_MEMO_MAX:
            for key in list(islice(verdicts, len(verdicts) // 2)):
                del verdicts[key]
        verdicts[fp] = cached
    return cached


class InterpretedExpander:
    """The expander seam over the spec's own action closures.

    ``transitions(values)`` is a state's successors as :data:`Transition`
    entries, ``verdict_for(values, fp)`` one state's ``(violated invariant
    name, constraint verdict)`` from the spec's own predicates, and
    ``expand(values)`` the successors with memoized verdicts, as
    :data:`SuccessorInfo` entries.
    :class:`repro.compile.CompiledSpec` is the other implementation and emits
    the same entries in the same order (``tests/test_compile.py`` compares
    them entry for entry); engines hold one of the two and never ask which.
    The fingerprint cache and ``expand``'s verdict memo live as long as the
    expander: one per run in the coordinator, one per process in a pool
    worker.
    """

    def __init__(self, spec: Specification) -> None:
        self.spec = spec
        self._cache = FingerprintCache()
        self._verdicts: Dict[int, Verdict] = {}

    def transitions(self, values: Tuple[Any, ...]) -> List[Transition]:
        cache = self._cache
        state = State.from_values(self.spec.schema, values)
        return [
            (action_name, nxt.values, nxt.fingerprint(cache))
            for action_name, nxt in self.spec.successors(state)
        ]

    def expand(self, values: Tuple[Any, ...]) -> List[SuccessorInfo]:
        verdict_for, verdicts = self.verdict_for, self._verdicts
        entries: List[SuccessorInfo] = []
        for action_name, nvalues, nfp in self.transitions(values):
            cached = memoized_verdict(verdict_for, nvalues, nfp, verdicts)
            entries.append((action_name, nvalues, nfp, cached[0], cached[1]))
        return entries

    def verdict_for(self, values: Tuple[Any, ...], fp: int) -> Verdict:
        spec = self.spec
        state = State.from_values(spec.schema, values)
        violated = spec.violated_invariant(state)
        return (
            None if violated is None else violated.name,
            spec.within_constraint(state),
        )


def make_expander(spec: Specification, mode: str) -> Tuple[Any, Optional[str]]:
    """``(expander, fallback reason)`` for ``spec`` under compile ``mode``.

    ``off`` interprets; ``on`` and ``auto`` specialize the spec
    (:func:`repro.compile.compile_spec`, imported lazily so the engine
    package carries no load-time dependency on it).  A compile failure is a
    :class:`CheckerError` under ``on``; under ``auto`` it falls back to
    interpretation and the second item says why (``None`` otherwise).  The
    coordinator and every pool worker call this with the same mode, so both
    sides of a pool decide the same way.
    """
    if mode != "off":
        from ..compile import compile_spec

        try:
            return compile_spec(spec), None
        except Exception as exc:  # noqa: BLE001 - the policy decides
            if mode == "on":
                raise CheckerError(
                    f"spec compilation failed for {spec.name!r}: {exc}"
                ) from exc
            return InterpretedExpander(spec), f"{type(exc).__name__}: {exc}"
    return InterpretedExpander(spec), None


@dataclass
class CheckResult:
    """Outcome and statistics of one model-checking run."""

    spec_name: str
    distinct_states: int = 0
    generated_states: int = 0
    max_depth: int = 0
    duration_seconds: float = 0.0
    action_counts: Dict[str, int] = field(default_factory=dict)
    invariant_violation: Optional[InvariantViolation] = None
    deadlock: Optional[DeadlockError] = None
    property_outcomes: List[PropertyCheckOutcome] = field(default_factory=list)
    graph: Optional[StateGraph] = None
    truncated: bool = False
    #: The *resolved* engine name: ``engine="auto"`` never appears here.
    engine: str = "states"
    #: The resolved visited-store name (``store="auto"`` never appears here).
    store: str = "states"
    peak_frontier: int = 0
    workers: int = 1
    #: Random walks completed (``simulate`` engine only; 0 otherwise).
    walks: int = 0
    #: What the supervised worker pool survived (None when no pool ran):
    #: crashes, hangs, corrupt results, retries, degradation.
    supervision: Optional[SupervisionStats] = None
    #: Where periodic checkpoints were written (None when disabled).
    checkpoint_path: Optional[str] = None
    #: The checkpoint file this run resumed from (None for fresh runs).
    resumed_from: Optional[str] = None
    #: True when the run was cut short by KeyboardInterrupt; the statistics
    #: cover only the explored prefix (like a truncated run).
    interrupted: bool = False
    #: Wall-clock seconds the store spent on disk I/O (0 for in-memory
    #: stores): what tells a store-bound run from a CPU-bound one.
    store_io_seconds: float = 0.0
    #: States the BFS frontiers spilled to compressed disk chunks (0 when
    #: spilling never triggered or is disabled).
    frontier_spilled_states: int = 0
    #: True when the run executed the spec's compiled form
    #: (:mod:`repro.compile`) rather than interpreting action closures.
    compiled: bool = False
    #: Wall-clock seconds spent specializing the spec (0 when interpreted).
    compile_seconds: float = 0.0
    #: Why ``compile_mode="auto"`` fell back to interpreting (None when it
    #: did not: the spec compiled, or compilation was off).
    compile_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when no invariant, deadlock or property violation was found."""
        if self.invariant_violation is not None or self.deadlock is not None:
            return False
        return all(outcome.holds for outcome in self.property_outcomes)

    @property
    def fingerprint_collision_probability(self) -> Optional[float]:
        """TLC's "calculated (optimistic)" chance that two states shared a fingerprint.

        ``distinct * (generated - distinct) / 2**64``: every duplicate
        successor was told apart from the distinct states by its 64-bit
        fingerprint alone, and so is every replayed counterexample step.
        None when the store retained whole states (``states``).
        """
        if self.store == "states":
            return None
        distinct = self.distinct_states
        return distinct * (self.generated_states - distinct) / 2.0**64

    def summary(self) -> str:
        """One-line human-readable summary, similar to TLC's final output.

        The resolved engine and store are always reported, so a run started
        with ``engine="auto"`` shows what it actually resolved to.
        """
        status = "OK" if self.ok else "VIOLATION"
        resolved = f"engine={self.engine}"
        if self.engine == "simulate":
            resolved += f"({self.walks} walks)"
        resolved += f" store={self.store}"
        if self.compiled:
            resolved += " compiled"
        return (
            f"{self.spec_name}: {status}; {self.distinct_states} distinct states, "
            f"{self.generated_states} states generated, depth {self.max_depth}, "
            f"{self.duration_seconds:.2f}s [{resolved}]"
        )


@dataclass
class CheckContext:
    """Everything one engine run needs: spec, limits, store and bookkeeping.

    The context is built per run by :class:`repro.engine.core.ModelChecker`
    and handed to the selected engine's :meth:`Engine.run`.
    """

    spec: Specification
    result: CheckResult
    store: Any  # a StateStore (see repro.engine.store)
    #: How successors are computed (see :func:`make_expander`).  Everything
    #: at the boundaries (seeding, replay, checkpoints) stays on the spec's
    #: own interpreted surface, so the two expanders cannot drift there.
    expander: Any
    #: The mode ``expander`` was made under; a pooled run hands it to its
    #: workers so each makes its own expander by the same policy.
    compile_mode: str = "off"
    collect_graph: bool = False
    check_deadlock: bool = False
    max_states: Optional[int] = None
    max_depth: Optional[int] = None
    stop_on_violation: bool = True
    workers: Optional[int] = None
    #: Simulation budgets (``simulate`` engine only).
    walks: int = 100
    walk_depth: int = 50
    seed: int = 0
    #: Supervision knobs for engines that dispatch to worker pools; None
    #: means :meth:`SupervisionConfig.from_env` defaults.
    supervision: Optional[SupervisionConfig] = None
    #: Deterministic fault-injection plan for the supervised pools (chaos
    #: testing); None disables explicit injection (the environment may still
    #: switch it on -- see :meth:`repro.resilience.faults.FaultPlan.from_env`).
    chaos: Optional[FaultPlan] = None
    #: Periodic checkpointing: write a resumable snapshot to this path every
    #: ``checkpoint_every`` completed BFS levels (0 disables).
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 0
    #: The store capacity of this run (recorded into checkpoints): the disk
    #: store's write-back cache size.
    store_capacity: Optional[int] = None
    #: The disk store's database path (recorded for operator messages).
    store_path: Optional[str] = None
    #: Frontier entries kept in memory before a BFS level spills to
    #: compressed disk chunks; None disables spilling (plain lists).
    spill_threshold: Optional[int] = None
    #: Set by the coordinator when resuming: ``(depth, frontier)`` -- the
    #: next level to expand and its pending ``(values, fp)`` entries.
    resume: Optional[Tuple[int, List[FrontierEntry]]] = None

    # Shared fingerprint-BFS helpers -----------------------------------------
    def new_frontier(self):
        """An empty next-level frontier: a plain list, or a spilling buffer.

        Both support ``append((values, fp))``, ``len``, truthiness and
        in-order iteration -- the only operations the level loop performs --
        so it stays oblivious to whether a level lives in memory or
        in compressed chunks on disk.
        """
        if self.spill_threshold is None:
            return []
        return SpillFrontier(threshold=self.spill_threshold)

    def note_frontier(self, frontier: Any) -> None:
        """Fold one consumed level's spill statistics into the result."""
        spilled = getattr(frontier, "spilled_states", 0)
        if spilled:
            self.result.frontier_spilled_states += spilled

    def fp_violation(self, fp: int, inv_name: str) -> InvariantViolation:
        """Build an :class:`InvariantViolation` with a replayed trace."""
        return InvariantViolation(
            f"invariant {inv_name!r} violated by specification {self.spec.name!r}",
            property_name=inv_name,
            trace=self.replay(fp),
        )

    def deadlock_at(self, fp: int) -> DeadlockError:
        """Build a :class:`DeadlockError` with a replayed trace."""
        return DeadlockError(
            f"deadlock reached in specification {self.spec.name!r}",
            trace=self.replay(fp),
        )

    def seed_frontier(self) -> Tuple[List[FrontierEntry], bool]:
        """Enumerate initial states into the depth-0 frontier.

        Always in the coordinator: initial sets are tiny, and forking for
        them would be pure cost.
        """
        spec, result = self.spec, self.result
        frontier: List[FrontierEntry] = []
        stop = False
        for state in spec.initial_states():
            result.generated_states += 1
            fp = state.fingerprint()
            if not self.store.add(fp):
                continue
            violated = spec.violated_invariant(state)
            if violated is not None:
                result.invariant_violation = self.fp_violation(fp, violated.name)
                if self.stop_on_violation:
                    stop = True
                    break
            if spec.within_constraint(state):
                frontier.append((state.values, fp))
        result.peak_frontier = len(frontier)
        return frontier, stop

    def start_frontier(
        self,
    ) -> Tuple[List[FrontierEntry], bool, int, Dict[str, int]]:
        """``(frontier, stop, depth, action_counts)`` for fresh *or* resumed runs.

        A fresh run seeds the depth-0 frontier from the initial states; a
        resumed run continues at the checkpointed depth with the
        checkpointed frontier and action counters -- the store and result
        statistics were already restored by the coordinator.  Engines using
        this single entry point cannot diverge in how the two cases start,
        which is what makes resumed statistics bit-identical.
        """
        action_counts: Dict[str, int] = {act.name: 0 for act in self.spec.actions}
        if self.resume is not None:
            depth, frontier = self.resume
            action_counts.update(self.result.action_counts)
            return frontier, False, depth, action_counts
        frontier, stop = self.seed_frontier()
        return frontier, stop, 0, action_counts

    def maybe_checkpoint(
        self,
        depth: int,
        frontier: Iterable[FrontierEntry],
        action_counts: Dict[str, int],
    ) -> None:
        """Persist a resumable snapshot if this level is a checkpoint level.

        Called by the level loop after each *completed* level, with
        ``depth`` being the next level to expand.  Writes are atomic, so an
        interruption mid-checkpoint leaves the previous snapshot usable.
        The store's snapshot carries the parent pointers (the disk store's
        as a rewind point into its own file).
        """
        if not self.checkpoint_path or self.checkpoint_every <= 0:
            return
        if depth % self.checkpoint_every != 0:
            return
        result = self.result
        checkpoint = Checkpoint(
            spec_name=self.spec.name,
            registry_ref=self.spec.registry_ref,
            store_name=getattr(self.store, "name", "?"),
            store_capacity=self.store_capacity,
            depth=depth,
            frontier=list(frontier),
            store_state=self.store.snapshot(),
            stats={
                "generated_states": result.generated_states,
                "max_depth": result.max_depth,
                "peak_frontier": result.peak_frontier,
                "action_counts": dict(action_counts),
            },
        )
        write_checkpoint(self.checkpoint_path, checkpoint)

    def replay(self, target_fp: int) -> List[State]:
        """Rebuild the behaviour leading to ``target_fp`` by forward replay.

        The fingerprint-interned engines do not retain visited states, so
        the counterexample is reconstructed the way TLC does it: walk the
        store's parent fingerprints back to an initial state, then step
        forward, taking at each step the first of ``spec.successors(state)``
        whose fingerprint is the next one in the chain.  Spec action order
        is the order in which the BFS first reached it, and a fingerprint
        names one state, so the trace is the one the BFS found.
        """
        parent_of = self.store.parent_of
        chain: List[int] = []
        cursor: Optional[int] = target_fp
        while cursor is not None:
            chain.append(cursor)
            cursor = parent_of(cursor)
        chain.reverse()

        spec = self.spec
        trace: List[State] = []
        for fp in chain:
            if trace:
                candidates = [nxt for _name, nxt in spec.successors(trace[-1])]
            else:
                candidates = spec.initial_states()
            for candidate in candidates:
                if candidate.fingerprint() == fp:
                    trace.append(candidate)
                    break
            else:  # pragma: no cover - only reachable via fp collision
                raise CheckerError(
                    f"counterexample replay of {spec.name!r} failed at step "
                    f"{len(trace)}: no candidate state has fingerprint {fp}"
                )
        return trace


class Engine:
    """Base class every exploration engine derives from.

    Subclasses set the class attributes and implement :meth:`run`.  They are
    instantiated fresh per run (engines may keep per-run state on ``self``).
    """

    #: Registry name; also what ``CheckResult.engine`` reports.
    name: str = ""
    #: True when the engine can retain the state graph (temporal properties,
    #: DOT export, MBTCG enumeration all need it).
    supports_graph: bool = False
    #: Store names the engine accepts; the first entry is the default that
    #: ``store="auto"`` resolves to.
    supported_stores: Tuple[str, ...] = ("fingerprint",)
    #: True when the engine is bounded by its own budgets (walks/walk_depth)
    #: and does not consume ``max_states``/``max_depth``.
    bounded_exploration: bool = False
    #: True when the engine honors ``checkpoint_path``/``resume`` on its
    #: context (the level-synchronous BFS engine; exploration state of the
    #: graph-retaining and simulation engines is not snapshot-able yet).
    supports_checkpoint: bool = False

    @classmethod
    def requires_registry(cls, workers: Optional[int]) -> bool:
        """Whether a run with ``workers`` starts pool processes.

        Those rebuild the spec by registry name, so the run needs
        ``spec.registry_ref``.  The coordinator asks the engine rather than
        pattern-matching on names: simulation pools only for ``workers > 1``.
        """
        return False

    def run(self, ctx: CheckContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


_ENGINES: Dict[str, Type[Engine]] = {}


def register_engine(engine_cls: Type[Engine]) -> Type[Engine]:
    """Register an engine class under its ``name``; usable as a decorator."""
    if not engine_cls.name:
        raise ValueError(f"engine class {engine_cls.__name__} declares no name")
    _ENGINES[engine_cls.name] = engine_cls
    return engine_cls


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_ENGINES)


def get_engine(name: str) -> Type[Engine]:
    """Look up an engine class by name."""
    try:
        return _ENGINES[name]
    except KeyError:
        known = ", ".join(engine_names())
        raise ValueError(
            f"unknown engine {name!r}; expected one of: auto, {known}"
        ) from None
