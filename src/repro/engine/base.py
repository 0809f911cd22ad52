"""What every engine shares: the check context, the result type and the expander's entries.

An *engine* is one exploration strategy over a specification's state space
-- a function of one argument that :class:`repro.engine.core.ModelChecker`
dispatches to by name.  Every engine receives
a :class:`CheckContext` -- the spec, its *expander*, the run limits, the
visited-state store and the shared bookkeeping helpers -- and fills in the
context's :class:`CheckResult`.  The context owns what engines share:
initial-frontier seeding, checkpointing, and counterexample replay from the
parent fingerprints the store keeps.

The expander -- the run's :class:`repro.compile.CompiledSpec`, which
:meth:`repro.engine.core.ModelChecker.run` builds with
:func:`repro.compile.compile_spec` -- is the one way any engine computes
successors: ``transitions(values)``, ``verdict_for(values, fp)`` and
``expand(values)`` (the first plus a memoized second) over value tuples.  The
BFS engines call ``transitions`` and take one verdict per *new* state;
``simulate``, whose walks revisit states, calls ``expand`` once per state it
walks and keeps the result for the run.  The trace fold
(:class:`repro.tla.trace.SuccessorCache`) holds one too and calls only
``transitions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..resilience.checkpoint import Checkpoint, write_checkpoint
from ..tla.errors import CheckerError, DeadlockError, InvariantViolation
from ..tla.graph import PropertyCheckOutcome, StateGraph
from ..tla.spec import Specification
from ..tla.state import State
from .frontier import SpillFrontier

__all__ = [
    "CheckContext",
    "CheckResult",
    "SuccessorInfo",
    "Transition",
    "Verdict",
    "memoized_verdict",
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
#: :func:`memoized_verdict`) and on the walk engine's expansion memo; bounds
#: memory on paper-scale runs.
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
    second copy of a paper-scale visited set.
    """
    cached = verdicts.get(fp)
    if cached is None:
        cached = verdict_for(values, fp)
        if len(verdicts) >= VERDICT_MEMO_MAX:
            for key in list(islice(verdicts, len(verdicts) // 2)):
                del verdicts[key]
        verdicts[fp] = cached
    return cached


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
    #: Random walks completed (``simulate`` engine only; 0 otherwise).
    walks: int = 0
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
    #: Wall-clock seconds spent specializing the spec (:mod:`repro.compile`).
    compile_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when no invariant, deadlock or property violation was found."""
        if self.invariant_violation is not None or self.deadlock is not None:
            return False
        return all(outcome.holds for outcome in self.property_outcomes)

    @property
    def fingerprint_collision_probability(self) -> float:
        """TLC's "calculated (optimistic)" chance that two states shared a fingerprint.

        ``distinct * (generated - distinct) / 2**64``: every duplicate
        successor was told apart from the distinct states by its 64-bit
        fingerprint alone, and so is every replayed counterexample step.
        """
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
        return (
            f"{self.spec_name}: {status}; {self.distinct_states} distinct states, "
            f"{self.generated_states} states generated, depth {self.max_depth}, "
            f"{self.duration_seconds:.2f}s [{resolved}]"
        )


@dataclass
class CheckContext:
    """Everything one engine run needs: spec, limits, store and bookkeeping.

    :class:`repro.engine.core.ModelChecker` builds the options once and
    adds ``result``, ``store`` and ``expander`` per run, then hands the
    context to the selected engine function.
    """

    spec: Specification
    result: CheckResult
    store: Any  # a StateStore (see repro.engine.store)
    #: How successors are computed: the run's
    #: :class:`~repro.compile.CompiledSpec`.  Everything at the boundaries
    #: (seeding, replay, checkpoints) stays on the spec's own surface, so
    #: the kernels cannot drift from the spec there.
    expander: Any
    collect_graph: bool = False
    check_deadlock: bool = False
    max_states: Optional[int] = None
    max_depth: Optional[int] = None
    stop_on_violation: bool = True
    #: Simulation budgets (``simulate`` engine only).
    walks: int = 100
    walk_depth: int = 50
    seed: int = 0
    #: Periodic checkpointing: write a resumable snapshot to this path every
    #: ``checkpoint_every`` completed BFS levels.
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
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

    # Shared BFS helpers ------------------------------------------------------
    @property
    def graph(self) -> Optional[StateGraph]:
        """The store when it is the state graph (``store="states"``), else None."""
        store = self.store
        return store if isinstance(store, StateGraph) else None

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
        """Fold the spill statistics of the level just filled -- the next
        one to expand -- into the result."""
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
        """Enumerate initial states into the depth-0 frontier (and the graph)."""
        spec, result, graph = self.spec, self.result, self.graph
        frontier: List[FrontierEntry] = []
        stop = False
        for state in spec.initial_states():
            result.generated_states += 1
            fp = state.fingerprint()
            if not self.store.add(fp):
                continue
            if graph is not None:
                graph.place(state)
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
        if not self.checkpoint_path or depth % self.checkpoint_every:
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

        The stores keep parent fingerprints, not visited states, so the
        counterexample is reconstructed the way TLC does it: walk the
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
