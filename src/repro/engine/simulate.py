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

Walks run one after another in this process.  Walks revisit the same few
states over and over (20,000 raftmongo walks generate 907,137 states from
6,455 distinct ones), so each walked state's expansion -- ``expander.expand``
digested into what a step needs -- is memoized for the run, keyed by the
state's fingerprint as the visited store and the verdict memo are (a value
tuple would not do: ``(True, 0) == (1, 0)`` though the two are different
states), and capped like every memo here at
:data:`~repro.engine.base.VERDICT_MEMO_MAX`, counted in successors held
(oldest half dropped).  A state is expanded once per run unless the cap
dropped it.

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
from array import array
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from ..obs import current as obs_current
from ..tla.errors import DeadlockError, InvariantViolation
from ..tla.spec import Specification
from ..tla.state import State
from .base import VERDICT_MEMO_MAX, CheckContext, SuccessorInfo

__all__ = ["run_walks"]

#: One enabled step a walk may take: (action name, successor values,
#: successor fingerprint).
_Step = Tuple[str, Tuple[Any, ...], int]

#: What a walk needs from one state's expansion: (successors generated, the
#: first successor violating an invariant as (step, invariant name) or None,
#: then the successors within the state constraint as three columns: their
#: action names, their fingerprints as an ``array('Q')``, and their value
#: tuples laid end to end in one flat tuple).  Columns keep no per-successor
#: tuple or int alive: an entry is what a step reads and no more.
_Digest = Tuple[
    int, Optional[Tuple[_Step, str]], Tuple[str, ...], "array[int]", Tuple[Any, ...]
]

#: One finished walk: (steps taken, states generated, visited fingerprints in
#: order, violated invariant name or None, deadlocked flag, trace of value
#: tuples, chosen action names).
_WalkOutcome = Tuple[
    int, int, List[int], Optional[str], bool, List[Tuple[Any, ...]], List[str]
]


def _digest(entries: List[SuccessorInfo]) -> _Digest:
    """One state's ``expand`` entries, reduced to what a walk step reads."""
    names: List[str] = []
    fps = array("Q")
    slots: List[Any] = []
    for action_name, nvalues, nfp, inv_name, within in entries:
        if inv_name is not None:
            return len(entries), ((action_name, nvalues, nfp), inv_name), (), fps, ()
        if within:
            names.append(action_name)
            fps.append(nfp)
            slots.extend(nvalues)
    return len(entries), None, tuple(names), fps, tuple(slots)


class _Expansions(dict):
    """Walked states' digests (:func:`_digest`) for one run, by fingerprint.

    Capped like every memo here at :data:`~repro.engine.base.VERDICT_MEMO_MAX`
    -- counted in successors held, not states, because an entry's memory
    grows with its successors: a digest weighs one plus its in-constraint
    successors.  When the next digest would cross the cap, the oldest half
    of the entries is dropped.
    """

    def __init__(self) -> None:
        super().__init__()
        self.weight = 0

    def digest(self, expander: Any, values: Tuple[Any, ...], fp: int) -> _Digest:
        found = self.get(fp)
        if found is not None:
            return found
        digest = _digest(expander.expand(values))
        weight = 1 + len(digest[2])
        while self and self.weight + weight > VERDICT_MEMO_MAX:
            for key in list(islice(self, (len(self) + 1) // 2)):
                self.weight -= 1 + len(self.pop(key)[2])
        self[fp] = digest
        self.weight += weight
        return digest


def _run_walk(
    expander: Any,
    memo: _Expansions,
    initial: List[State],
    walk_index: int,
    seed: int,
    walk_depth: int,
) -> _WalkOutcome:
    """Run one seeded random walk; pure function of its arguments but ``memo``.

    The walk starts in a uniformly chosen initial state and repeatedly takes
    a uniformly chosen enabled action whose successor satisfies the state
    constraint.  Invariants are evaluated on *every generated* successor, in
    generation order, as a BFS judges each state it first reaches -- so a
    violating state one step off the walk (even one outside the constraint,
    which is generated but never entered) still surfaces as a violation,
    with the walk prefix plus that successor as the counterexample.  The
    walk ends at the depth budget, at an invariant violation, at a deadlock,
    or when the constraint fences every successor off.

    ``memo`` holds walked states' expansions by fingerprint; it only saves
    work, because a state's expansion is deterministic.  The walk
    carries value tuples, not ``State`` objects.  Walk *i* is the same under
    either expander because ``random.Random.choice`` depends only on the
    sequence *length* and both enumerate successors in the same order -- so
    it draws the same initial state and the same successor indices either
    way.
    """
    rng = random.Random(f"{seed}:{walk_index}")
    generated = len(initial)
    state = rng.choice(initial)
    fp = state.fingerprint()
    values = state.values
    width = len(values)
    fps = [fp]
    trace: List[Tuple[Any, ...]] = [values]
    actions: List[str] = []
    violated_name, within = expander.verdict_for(values, fp)
    deadlocked = False
    steps = 0
    if violated_name is None and within:
        while steps < walk_depth:
            count, hit, names, successor_fps, slots = memo.digest(expander, values, fp)
            generated += count
            if not count:
                deadlocked = True
                break
            if hit is not None:
                (action_name, values, fp), violated_name = hit
            elif names:
                k = rng.choice(range(len(names)))
                action_name, fp = names[k], successor_fps[k]
                values = slots[k * width : (k + 1) * width]
            else:
                break
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
    # The initial states are made once per run and shared by every walk: the
    # expander's interner keeps the first copy of each value it sees as
    # canonical and binds that copy with one identity probe, where an equal
    # fresh one would be re-interned on every walk.
    initial = spec.initial_states()
    memo = _Expansions()
    obs_run = obs_current()
    ticker = obs_run.progress if obs_run is not None else None
    action_counts: Dict[str, int] = {act.name: 0 for act in spec.actions}
    violation: Optional[Tuple[str, List[Tuple[Any, ...]]]] = None
    deadlock: Optional[List[Tuple[Any, ...]]] = None
    for walk_index in range(ctx.walks):
        steps, generated, fps, inv_name, deadlocked, trace, actions = _run_walk(
            ctx.expander, memo, initial, walk_index, ctx.seed, ctx.walk_depth
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
