"""Engine seam: the protocol, shared check context, result type and registry.

An *engine* is one exploration strategy over a specification's state space
(exhaustive BFS, random simulation, ...).  Every engine receives
a :class:`CheckContext` -- the spec, its *expander*, the run limits, the
visited-state store and the shared bookkeeping helpers -- and fills in the
context's :class:`CheckResult`.  The context owns what engines share:
initial-frontier seeding, checkpointing, and counterexample replay from the
fingerprint-keyed parent map.

The expander is the one way any engine computes successors: an object with
``transitions(values)``, ``expand(values)`` (the former plus verdicts) and
``verdict_for(values, fp)`` over value tuples.  The trace fold
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
from typing import Any, Dict, List, Optional, Tuple, Type

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
    "engine_names",
    "get_engine",
    "make_expander",
    "memoized_verdict",
    "register_engine",
]

#: One successor without its verdicts: ``(action name, successor value tuple,
#: successor fingerprint)``.  What trace checking steps on.
Transition = Tuple[str, Tuple[Any, ...], int]

#: One entry of an expansion result: ``(action name, successor value tuple,
#: successor fingerprint, violated invariant name or None, constraint
#: verdict)``.  Value tuples rather than ``State`` objects: a ``State`` is
#: built only for a successor that enters a frontier.
SuccessorInfo = Tuple[str, Tuple[Any, ...], int, Optional[str], bool]

#: Cap on an expander's invariant/constraint verdict memo (see
#: :func:`memoized_verdict`); bounds per-process memory on paper-scale runs.
VERDICT_MEMO_MAX = 500_000


def memoized_verdict(
    spec: Specification,
    state: State,
    fp: int,
    verdicts: Dict[int, Tuple[Optional[str], bool]],
) -> Tuple[Optional[str], bool]:
    """``(violated invariant name, constraint verdict)``, memoized per fingerprint.

    Both expanders go through it.  Without this memo, BFS expansion and the
    simulation engine's walks evaluate invariants once per *generated* state
    instead of once per *distinct* state -- a 3-15x multiplier on the
    benchmarked specs.  Verdicts are deterministic per state, so memoization
    cannot change results; the memo is capped (oldest half discarded, like
    ``FingerprintCache``) so it never grows into a second per-process copy
    of a paper-scale visited set.
    """
    cached = verdicts.get(fp)
    if cached is None:
        violated = spec.violated_invariant(state)
        cached = (
            None if violated is None else violated.name,
            spec.within_constraint(state),
        )
        if len(verdicts) >= VERDICT_MEMO_MAX:
            for key in list(islice(verdicts, len(verdicts) // 2)):
                del verdicts[key]
        verdicts[fp] = cached
    return cached


class InterpretedExpander:
    """The expander seam over the spec's own action closures.

    ``transitions(values)`` is a state's successors as :data:`Transition`
    entries, ``expand(values)`` the same with verdicts, as
    :data:`SuccessorInfo` entries, and ``verdict_for(values, fp)`` one
    state's ``(violated invariant name, constraint verdict)``.
    :class:`repro.compile.CompiledSpec` is the other implementation and emits
    the same entries in the same order (``tests/test_compile.py`` compares
    them entry for entry); engines hold one of the two and never ask which.
    The fingerprint cache and the verdict memo live as long as the expander:
    one per run in the coordinator, one per process in a pool worker.
    """

    def __init__(self, spec: Specification) -> None:
        self.spec = spec
        self._cache = FingerprintCache()
        self._verdicts: Dict[int, Tuple[Optional[str], bool]] = {}

    def _successors(self, values: Tuple[Any, ...]) -> List[Tuple[str, State, int]]:
        cache = self._cache
        state = State.from_values(self.spec.schema, values)
        return [
            (action_name, nxt, nxt.fingerprint(cache))
            for action_name, nxt in self.spec.successors(state)
        ]

    def transitions(self, values: Tuple[Any, ...]) -> List[Transition]:
        return [(name, nxt.values, nfp) for name, nxt, nfp in self._successors(values)]

    def expand(self, values: Tuple[Any, ...]) -> List[SuccessorInfo]:
        spec, verdicts = self.spec, self._verdicts
        entries: List[SuccessorInfo] = []
        for action_name, nxt, nfp in self._successors(values):
            cached = memoized_verdict(spec, nxt, nfp, verdicts)
            entries.append((action_name, nxt.values, nfp, cached[0], cached[1]))
        return entries

    def verdict_for(
        self, values: Tuple[Any, ...], fp: int
    ) -> Tuple[Optional[str], bool]:
        state = State.from_values(self.spec.schema, values)
        return memoized_verdict(self.spec, state, fp, self._verdicts)


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
    #: Fingerprint-keyed parent map: ``fp -> (parent fp or None, action)``.
    parents: Dict[int, Tuple[Optional[int], Optional[str]]] = field(
        default_factory=dict
    )
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
    #: Set by the coordinator when resuming: ``(depth, wire frontier)`` --
    #: the next level to expand and its pending frontier as value tuples.
    resume: Optional[Tuple[int, List[Tuple[Tuple[Any, ...], int]]]] = None

    # Shared fingerprint-BFS helpers -----------------------------------------
    def new_frontier(self):
        """An empty next-level frontier: a plain list, or a spilling buffer.

        Both support ``append((state, fp))``, ``len``, truthiness and
        in-order iteration -- the only operations the level loop performs --
        so it stays oblivious to whether a level lives in memory or
        in compressed chunks on disk.
        """
        if self.spill_threshold is None:
            return []
        return SpillFrontier(self.spec.schema, threshold=self.spill_threshold)

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

    def seed_frontier(self) -> Tuple[List[Tuple[State, int]], bool]:
        """Enumerate initial states into the depth-0 frontier.

        Always in the coordinator: initial sets are tiny, and forking for
        them would be pure cost.
        """
        spec, result = self.spec, self.result
        frontier: List[Tuple[State, int]] = []
        stop = False
        for state in spec.initial_states():
            result.generated_states += 1
            fp = state.fingerprint()
            if not self.store.add(fp):
                continue
            self.parents[fp] = (None, None)
            violated = spec.violated_invariant(state)
            if violated is not None:
                result.invariant_violation = self.fp_violation(fp, violated.name)
                if self.stop_on_violation:
                    stop = True
                    break
            if spec.within_constraint(state):
                frontier.append((state, fp))
        result.peak_frontier = len(frontier)
        return frontier, stop

    def start_frontier(
        self,
    ) -> Tuple[List[Tuple[State, int]], bool, int, Dict[str, int]]:
        """``(frontier, stop, depth, action_counts)`` for fresh *or* resumed runs.

        A fresh run seeds the depth-0 frontier from the initial states; a
        resumed run rebuilds the checkpointed frontier (value tuples back to
        ``State`` objects) and continues at the checkpointed depth with the
        checkpointed action counters -- the store, parent map and result
        statistics were already restored by the coordinator.  Engines using
        this single entry point cannot diverge in how the two cases start,
        which is what makes resumed statistics bit-identical.
        """
        action_counts: Dict[str, int] = {act.name: 0 for act in self.spec.actions}
        if self.resume is not None:
            depth, wire_frontier = self.resume
            action_counts.update(self.result.action_counts)
            schema = self.spec.schema
            frontier = [
                (State.from_values(schema, values), fp)
                for values, fp in wire_frontier
            ]
            return frontier, False, depth, action_counts
        frontier, stop = self.seed_frontier()
        return frontier, stop, 0, action_counts

    def maybe_checkpoint(
        self,
        depth: int,
        frontier: List[Tuple[State, int]],
        action_counts: Dict[str, int],
    ) -> None:
        """Persist a resumable snapshot if this level is a checkpoint level.

        Called by the level loop after each *completed* level, with
        ``depth`` being the next level to expand.  Writes are atomic, so an
        interruption mid-checkpoint leaves the previous snapshot usable.
        """
        if not self.checkpoint_path or self.checkpoint_every <= 0:
            return
        if depth % self.checkpoint_every != 0:
            return
        result = self.result
        # A store that owns its parent map on disk (the disk store) snapshots
        # it by sequence number instead of copying millions of entries into
        # the checkpoint pickle.
        if hasattr(self.parents, "checkpoint_payload"):
            parents_payload = self.parents.checkpoint_payload()
        else:
            parents_payload = dict(self.parents)
        checkpoint = Checkpoint(
            spec_name=self.spec.name,
            registry_ref=self.spec.registry_ref,
            store_name=getattr(self.store, "name", "?"),
            store_capacity=self.store_capacity,
            depth=depth,
            frontier=[(state.values, fp) for state, fp in frontier],
            store_state=self.store.snapshot(),
            parents=parents_payload,
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
        parent fingerprints back to an initial state, then re-execute the
        recorded action names forward, selecting at each step the successor
        whose fingerprint matches the recorded one.
        """
        chain: List[Tuple[int, Optional[str]]] = []
        cursor: Optional[int] = target_fp
        while cursor is not None:
            parent, action_name = self.parents[cursor]
            chain.append((cursor, action_name))
            cursor = parent
        chain.reverse()

        first_fp = chain[0][0]
        state: Optional[State] = None
        for candidate in self.spec.initial_states():
            if candidate.fingerprint() == first_fp:
                state = candidate
                break
        if state is None:  # pragma: no cover - only reachable via fp collision
            raise CheckerError(
                f"counterexample replay failed: no initial state of "
                f"{self.spec.name!r} has fingerprint {first_fp}"
            )
        trace = [state]
        for next_fp, action_name in chain[1:]:
            assert action_name is not None
            action = self.spec.action_named(action_name)
            for successor in action.successors(state):
                if successor.fingerprint() == next_fp:
                    state = successor
                    break
            else:  # pragma: no cover - only reachable via fp collision
                raise CheckerError(
                    f"counterexample replay failed at action {action_name!r}: "
                    f"no successor has fingerprint {next_fp}"
                )
            trace.append(state)
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
