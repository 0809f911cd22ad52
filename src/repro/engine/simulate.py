"""Random-walk simulation engine (``engine="simulate"``), :func:`run_walks`: TLC's second mode.

TLC is not only an exhaustive checker -- its *simulation* mode samples random
behaviours when the state space is too large to enumerate, and the paper's
workflow relies on that reach.  This engine reproduces it: ``walks`` seeded
random walks of at most ``walk_depth`` steps each, every *generated*
successor checked against the invariants (the BFS engines judge each state
when they first reach it; a walk keeps no visited set, so it judges what it
generates), with the walk itself as the counterexample trace when one trips.
Every violation it reports is therefore a *real* reachable violation: the
trace starts in an initial state and takes one enabled action per step.

Walks run one after another in this process, and they revisit the same few
states over and over (20,000 raftmongo walks generate 907,137 states from
6,455 distinct ones), so each walked state's ``transitions`` are kept for
the run as the record the trace fold keeps
(:class:`~repro.compile.expansion.Expansion`) in a
:class:`~repro.compile.expansion.Memo` keyed by the state's fingerprint, as
the visited store is (a value tuple would not do: ``(True, 0) == (1, 0)``
though the two are different states), and each generated state is judged
by ``verdict_for`` once, through a second fingerprint-keyed memo.  Neither
takes a lock: walks run in one thread.

Determinism: walk *i* is driven by ``random.Random(f"{seed}:{i}")``, so the
behaviour of each walk is a pure function of ``(spec, seed, i, walk_depth)``.
The reported counterexample is the one from the lowest-numbered walk that
found one.

Statistics: ``generated_states`` counts every successor enumerated while
walking (plus the initial-state set, once per walk), ``distinct_states``
counts the distinct states visited across all walks (through the run's
``fingerprint`` or ``disk`` store), and ``max_depth`` is the longest walk
in steps.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..compile.expansion import MEMO_MAX, Expansion, Memo
from ..obs import current as obs_current
from ..tla.errors import DeadlockError, InvariantViolation
from ..tla.spec import Specification
from ..tla.state import State
from .base import CheckContext, Transition, Verdict

__all__ = ["run_walks"]

#: An initial state as a walk starts in it: (values, fingerprint, verdict).
_Initial = Tuple[Tuple[Any, ...], int, Verdict]

#: One finished walk: (steps taken, states generated, visited fingerprints in
#: order, violated invariant name or None, deadlocked flag, trace of value
#: tuples, chosen action names).
_WalkOutcome = Tuple[
    int, int, List[int], Optional[str], bool, List[Tuple[Any, ...]], List[str]
]


class _Verdicts(Memo):
    """Generated states' ``(violated invariant, constraint verdict)`` by
    fingerprint, for the walks of one run: ``verdict_for`` runs once per
    fingerprint while it is held, not once per time the walks generate it
    (verdicts are deterministic per state, so the memo cannot change an
    answer), and each value is one of the few distinct verdict tuples,
    shared, not one per entry.  Only the walks read it."""

    __slots__ = ("verdict_for", "_shared")

    def __init__(self, verdict_for: Callable[[Tuple[Any, ...], int], Verdict]) -> None:
        super().__init__(MEMO_MAX)
        self.verdict_for = verdict_for
        self._shared: Dict[Verdict, Verdict] = {}

    def judge(self, values: Tuple[Any, ...], fp: int) -> Verdict:
        verdict = self.get(fp)
        if verdict is None:
            verdict = self.verdict_for(values, fp)
            verdict = self.keep(fp, self._shared.setdefault(verdict, verdict))
        return verdict


class _Walked(Expansion):
    """A walked state's expansion and what a step reads of its successors'
    verdicts: ``hit``, the first successor violating an invariant as
    ``(position, name)``, and ``walkable``, the positions of those within the
    state constraint -- None when that is all of them."""

    __slots__ = ("hit", "walkable")

    def __init__(self, transitions: List[Transition], verdicts: _Verdicts) -> None:
        super().__init__(transitions)
        self.hit: Optional[Tuple[int, str]] = None
        walkable: List[int] = []
        known, judge = verdicts.get, verdicts.judge
        for at, (_name, values, successor_fp) in enumerate(transitions):
            violated, within = known(successor_fp) or judge(values, successor_fp)
            if violated is not None and self.hit is None:
                self.hit = at, violated
            if within:
                walkable.append(at)
        self.walkable = None if len(walkable) == len(transitions) else tuple(walkable)


def _judged_initial(spec: Specification, verdicts: _Verdicts) -> List[_Initial]:
    """The spec's initial states, each judged once for every walk of a run."""
    rows = []
    for state in spec.initial_states():
        fp = state.fingerprint()
        rows.append((state.values, fp, verdicts.judge(state.values, fp)))
    return rows


def _run_walk(
    expander: Any,
    memo: Memo,
    verdicts: _Verdicts,
    initial: List[_Initial],
    walk_index: int,
    seed: int,
    walk_depth: int,
) -> _WalkOutcome:
    """Run one seeded random walk; pure function of its arguments but the memos.

    The walk starts in a uniformly chosen initial state and repeatedly takes
    a uniformly chosen enabled action whose successor satisfies the state
    constraint.  Invariants are evaluated on *every generated* successor, in
    generation order, as a BFS judges each state it first reaches -- so a
    violating state one step off the walk (even one outside the constraint,
    which is generated but never entered) still surfaces as a violation,
    with the walk prefix plus that successor as the counterexample.  The
    walk ends at the depth budget, at an invariant violation, at a deadlock,
    or when the constraint fences every successor off.

    ``memo`` holds walked states' expansions by fingerprint and ``verdicts``
    generated states' verdicts; they only save work, because both are
    deterministic per state.  The walk
    carries value tuples, not ``State`` objects.  Walk *i* is the same under
    either expander because ``random.Random.choice`` depends only on the
    sequence *length* and both enumerate successors in the same order -- so
    it draws the same initial state and the same successor indices either
    way.
    """
    rng = random.Random(f"{seed}:{walk_index}")
    generated = len(initial)
    values, fp, (violated_name, within) = rng.choice(initial)
    fps = [fp]
    trace: List[Tuple[Any, ...]] = [values]
    actions: List[str] = []
    deadlocked = False
    steps = 0
    if violated_name is None and within:
        while steps < walk_depth:
            here = memo.get(fp)
            if here is None:
                here = memo.keep(fp, _Walked(expander.transitions(values), verdicts))
            count = len(here.actions)
            generated += count
            if not count:
                deadlocked = True
                break
            hit, walkable = here.hit, here.walkable
            if hit is not None:
                k, violated_name = hit
            elif walkable is None:
                k = rng.choice(range(count))
            elif walkable:
                k = rng.choice(walkable)
            else:
                break
            action_name, fp, values = here.actions[k], here.fps[k], here.successor(k)
            steps += 1
            fps.append(fp)
            trace.append(values)
            actions.append(action_name)
            if hit is not None:
                break
    return steps, generated, fps, violated_name, deadlocked, trace, actions


def run_walks(ctx: CheckContext) -> None:
    """Seeded random-walk exploration with walk and depth budgets."""
    spec, result, store = ctx.spec, ctx.result, ctx.store
    # The initial states are made and judged once per run and shared by every
    # walk: the expander's interner keeps the first copy of each value it
    # sees as canonical and binds that copy with one identity probe, where an
    # equal fresh one would be re-interned on every walk.
    verdicts = _Verdicts(ctx.expander.verdict_for)
    initial = _judged_initial(spec, verdicts)
    memo = Memo(MEMO_MAX)
    obs_run = obs_current()
    ticker = obs_run.progress if obs_run is not None else None
    action_counts: Dict[str, int] = {act.name: 0 for act in spec.actions}
    violation: Optional[Tuple[str, List[Tuple[Any, ...]]]] = None
    deadlock: Optional[List[Tuple[Any, ...]]] = None
    for walk_index in range(ctx.walks):
        steps, generated, fps, inv_name, deadlocked, trace, actions = _run_walk(
            ctx.expander, memo, verdicts, initial, walk_index, ctx.seed, ctx.walk_depth
        )
        result.walks += 1
        result.generated_states += generated
        result.max_depth = max(result.max_depth, steps)
        for fp in fps:
            store.add(fp)
        if ticker is not None and ticker.due():
            ticker.emit(
                walks=result.walks,
                distinct=store.distinct_count,
                generated=result.generated_states,
            )
        for name in actions:
            action_counts[name] += 1
        # A walk ends at its first event, but different walks can surface
        # both kinds.  Without stop_on_violation every walk runs and the
        # first walk of each kind is reported, as the BFS engines record both.
        if inv_name is not None and violation is None:
            violation = (inv_name, trace)
            if ctx.stop_on_violation:
                break
        if deadlocked and ctx.check_deadlock and deadlock is None:
            deadlock = trace
            if ctx.stop_on_violation:
                break
    if violation is not None:
        inv_name, trace = violation
        result.invariant_violation = InvariantViolation(
            f"invariant {inv_name!r} violated by specification {spec.name!r}",
            property_name=inv_name,
            trace=_states(spec, trace),
        )
    if deadlock is not None:
        result.deadlock = DeadlockError(
            f"deadlock reached in specification {spec.name!r}",
            trace=_states(spec, deadlock),
        )
    result.distinct_states = store.distinct_count
    result.peak_frontier = 1  # a walk holds exactly one live state
    result.action_counts = action_counts


def _states(spec: Specification, trace: List[Tuple[Any, ...]]) -> List[State]:
    return [State.from_values(spec.schema, values) for values in trace]
