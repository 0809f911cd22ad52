"""CompiledSpec and the generic kernel: a read-set memo over the spec's closures.

A :class:`CompiledSpec` is what the engines and the trace fold run instead
of interpreting the spec per state.  Its core surface is three functions over
*value tuples* (the fixed-slot, schema-indexed state representation):

``transitions(values)``
    A state's successors as :data:`~repro.engine.base.Transition` entries --
    ``(action, values, fingerprint)`` -- in the spec's action order, every
    duplicate kept, and no invariant or constraint looked at: what the BFS
    engines and trace checking (:class:`repro.tla.trace.SuccessorCache`)
    step on.

``verdict_for(values, fp)``
    One state's ``(violated invariant, constraint verdict)``, computed on
    every call: the BFS engines ask it once per *new* state, so there is
    nothing to keep per fingerprint.  The native kernel runs its generated
    evaluator; the generic one answers from the read-set tries below.

``expand(values)``
    The transitions with each successor's verdicts added, as
    :data:`~repro.engine.base.SuccessorInfo` entries -- ``(action, values,
    fingerprint, violated invariant, constraint verdict)`` -- the exact
    shape the interpreted :class:`~repro.engine.base.InterpretedExpander`
    produces.  The simulation engine's walks revisit states, so here the
    verdicts go through the capped per-fingerprint memo
    :func:`~repro.engine.base.memoized_verdict` (the interpreted expander's
    cap and eviction policy).

Two kernel generators exist: the *native* backend
(:mod:`repro.compile.native_locking`, exec-generated straight-line code for
the locking spec) and the *generic* one here, :func:`build_generic_kernels`,
which works for any specification.

The generic kernel
------------------
An action effect, an invariant or the constraint is a function of the state
it is handed -- and almost never of *all* of it: RaftMongo's ``AppendOplog``
and ``LogMatching`` read only ``oplog``, ``Stepdown`` only ``role``.  So the
kernel runs each of them **once per distinct binding of the variables it
reads**, not once per state:

* evaluation happens against a :class:`_BoundState`, a ``State`` subclass
  that records, in first-read order, which slots ``state[...]`` (and ``get``
  / ``in``, which go through it) touched;
* the result -- an action's yielded updates, already interned to ``(slot,
  canonical value, packed slot fingerprint)`` triples, or a predicate's
  boolean -- is stored in a per-action *decision trie*: the root names the
  first slot read, its children are keyed on that slot's value and name the
  next slot read under that value, and so on down to the result.  The next
  slot to look at is a function of the values read so far, so the trie is
  exact for value-dependent read orders (``AdvanceCommitPoint`` reads only
  ``role`` when there is no leader and three more variables when there is
  one);
* ``transitions`` is then, per action, one dict lookup per slot read down
  to a leaf, and per stored update a slot splice and one fingerprint join
  -- no closure call, no ``freeze``, no ``intern``; ``verdict_for`` is the
  same walk down each invariant's and the constraint's trie.

**The purity contract.**  Memoizing is sound when an effect, invariant or
constraint is a function of what it reads through the ``State`` surface (and
of constants): the same contract fingerprint-memoized verdicts and
counterexample replay already rely on.  What the tracker cannot attribute to
single slots it treats as *reading every slot*: ``.values``, iteration,
``hash``/``==``, ``with_updates``, ``fingerprint`` -- anything but
``__getitem__`` -- and yielding a ready-made ``State``.  A result that read
every slot is never stored (it could only hit on the very same state, which
the BFS engines never expand or judge twice).

**Exactness.**  Trie keys are the interner's canonical objects (``id``; a
``(type, value)`` pair for primitives, so ``True``/``1``/``1.0`` stay
apart), never 64-bit fingerprints, so the memo adds no collision surface.
An id is only meaningful while the interner retains the object: every bound
state remembers the interner's eviction count, the tries are dropped when it
moves, and nothing is stored under keys bound before an eviction.
Exceptions are never cached and surface with the wrapping they always had.

**When an action goes opaque.**  It is called directly from then on, with
no lookup and no bookkeeping, (a) after :data:`OPAQUE_AFTER` evaluations
that all read every slot -- single-variable specs such as ``locking``, where
the memo cannot hit -- or (b) the moment it reads slots in a different order
for the same values, i.e. shows itself not to be a function of what it
reads.  The decision comes from the observed read-sets, not from a flag.

The tries share one entry cap (:data:`MEMO_MAX` leaves, oldest half
discarded, like ``VERDICT_MEMO_MAX``).  Per action/invariant ``hits``,
``misses``, ``entries`` and ``opaque`` are live in
``compile_info["memo"]``.

Boundary fidelity: the adapter also satisfies the interpreted
``initial_states`` / ``successors`` / ``violated_invariant`` /
``within_constraint`` surface, converting losslessly to real
:class:`~repro.tla.state.State` objects, and delegates every other
attribute to the wrapped spec -- counterexample replay, StateGraph
retention, checkpoints and store snapshots flow through unchanged code and
stay bit-identical.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..engine.base import SuccessorInfo, Transition, Verdict, memoized_verdict
from ..tla.errors import EvaluationError
from ..tla.spec import Action, Invariant, Specification
from ..tla.state import State, VariableSchema
from ..tla.values import _FP_PACK
from .interner import _PRIMITIVE_TYPES, ValueInterner, packed_state_fingerprint

__all__ = ["CompiledSpec", "build_generic_kernels"]

#: Cap on stored results (trie leaves) across all of a spec's tries; bounds
#: per-process memory the way ``VERDICT_MEMO_MAX`` does.
MEMO_MAX = 500_000

#: Evaluations, all reading every slot, after which an action, invariant or
#: constraint that never produced a storable result is called directly.
OPAQUE_AFTER = 32


class _BoundState(State):
    """One state as the generic kernel sees it, and as an effect reads it.

    Holds the canonical value tuple with its per-slot memo keys and
    fingerprints, and records which slots are read through ``state[...]``.
    Every other way at the values goes through :attr:`values` (the base
    class's own methods included) and counts as reading all of them.
    """

    __slots__ = ("_vals", "_keys", "_fps", "_epoch", "_reads", "_all")

    __setattr__ = object.__setattr__

    def __init__(
        self,
        schema: VariableSchema,
        vals: Tuple[Any, ...],
        keys: List[Any],
        fps: List[bytes],
        epoch: int,
    ) -> None:
        self.schema = schema
        self._vals = vals
        self._keys = keys
        self._fps = fps
        #: The interner's eviction count when the keys were taken.
        self._epoch = epoch
        self._fp = None
        self._reads: Dict[int, None] = {}
        self._all = False

    def __getitem__(self, name: str) -> Any:
        slot = self.schema.index_of(name)
        self._reads[slot] = None
        return self._vals[slot]

    @property
    def values(self) -> Tuple[Any, ...]:  # type: ignore[override]
        self._all = True
        return self._vals

    def __iter__(self) -> Iterator[str]:
        self._all = True
        return iter(self.schema.names)

    def __hash__(self) -> int:
        return hash((self.schema.names, self.values))


class _Branch:
    """An inner trie node: which slot to look at next, and where each value leads."""

    __slots__ = ("slot", "children")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.children: Dict[Any, Any] = {}


class _Memoized:
    """One memoized function of the state: an action, an invariant or the constraint."""

    __slots__ = ("name", "evaluate", "top", "stats")

    def __init__(self, name: str, evaluate: Callable[[_BoundState], Any]) -> None:
        self.name = name
        self.evaluate = evaluate
        #: ``top[None]`` is the trie's root: a pseudo-parent, so that the
        #: root is evicted like any other node.
        self.top: Dict[Any, Any] = {}
        self.stats = {"hits": 0, "misses": 0, "entries": 0, "opaque": False}


class _ReadSetMemo:
    """The tries of one compiled spec: lookup, store, shared cap, eviction."""

    def __init__(self, schema: VariableSchema, interner: ValueInterner) -> None:
        self.schema = schema
        self.interner = interner
        self.max_entries = MEMO_MAX
        self.functions: List[_Memoized] = []
        #: One ``(stats, path)`` per stored leaf, oldest first; a path is
        #: the ``(children dict, key)`` pairs from ``top`` down to the leaf.
        self.log: Deque[Tuple[Dict[str, Any], List[Tuple[dict, Any]]]] = deque()
        #: The interner eviction count the stored keys are valid for.
        self.epoch = interner.evictions

    def memoize(self, name: str, evaluate: Callable[[_BoundState], Any]) -> _Memoized:
        taken = {function.name for function in self.functions}
        while name in taken:  # an invariant named like an action
            name += "'"
        function = _Memoized(name, evaluate)
        self.functions.append(function)
        return function

    def bind(self, values: Tuple[Any, ...]) -> _BoundState:
        """Canonicalize ``values`` and take their memo keys and fingerprints."""
        interner = self.interner
        intern = interner.intern
        vals, keys, fps = [], [], []
        for value in values:
            canonical, fp = intern(value)
            tp = type(canonical)
            vals.append(canonical)
            keys.append((tp, canonical) if tp in _PRIMITIVE_TYPES else id(canonical))
            fps.append(_FP_PACK(fp))
        epoch = interner.evictions
        if epoch != self.epoch:
            # The interner let go of objects the tries are keyed on.
            for function in self.functions:
                function.top.clear()
                function.stats["entries"] = 0
            self.log.clear()
            self.epoch = epoch
        return _BoundState(self.schema, tuple(vals), keys, fps, epoch)

    def recall(self, function: _Memoized, state: _BoundState) -> Any:
        """``function.evaluate(state)``, from the trie when its reads are known."""
        stats, keys = function.stats, state._keys
        if stats["opaque"]:
            return function.evaluate(state)
        node = function.top.get(None)
        while type(node) is _Branch:
            node = node.children.get(keys[node.slot])
        if node is not None:
            stats["hits"] += 1
            return node
        stats["misses"] += 1
        state._reads = {}
        state._all = False
        result = function.evaluate(state)
        self._store(function, state, result)
        return result

    def _store(self, function: _Memoized, state: _BoundState, result: Any) -> None:
        stats, reads = function.stats, state._reads
        if state._all or len(reads) == len(state._vals):
            if not stats["entries"] and not stats["hits"]:
                stats["opaque"] = stats["misses"] >= OPAQUE_AFTER
            return
        if state._epoch != self.interner.evictions:
            return  # the keys may name objects the interner no longer retains
        # Walk the reads down from the root, growing branches as needed.  A
        # node that disagrees -- same values, another slot read next, or a
        # result where this evaluation read on -- shows the function is not
        # one of what it reads: never look it up again.
        keys = state._keys
        children, key = function.top, None
        path = []
        for slot in reads:
            node = children.get(key)
            if node is None:
                node = children[key] = _Branch(slot)
            elif type(node) is not _Branch or node.slot != slot:
                stats["opaque"] = True
                return
            path.append((children, key))
            children, key = node.children, keys[slot]
        if key in children:
            stats["opaque"] = True
            return
        children[key] = result
        path.append((children, key))
        stats["entries"] += 1
        self.log.append((stats, path))
        if len(self.log) > self.max_entries:
            self._evict_oldest_half()

    def _evict_oldest_half(self) -> None:
        log = self.log
        for _ in range(len(log) // 2):
            stats, path = log.popleft()
            stats["entries"] -= 1
            for children, key in reversed(path):
                children.pop(key, None)
                if children:
                    break  # the branch above still leads somewhere


def _action_evaluator(
    act: Action, schema: VariableSchema, interner: ValueInterner
) -> Callable[[_BoundState], Tuple[Tuple[Tuple[int, Any, bytes], ...], ...]]:
    """``evaluate(state)``: the action's updates as ``(slot, canonical, packed fp)`` triples.

    Parity with :class:`~repro.tla.spec.Action` is structural: the effect
    call *and its iteration* are wrapped in :class:`EvaluationError` (effects
    are generators, so the body runs while iterating), items are classified
    State-before-Mapping, and unknown update variables raise the schema's
    own ``SpecError``.
    """
    name, effect = act.name, act.effect
    index_of, intern = schema.index_of, interner.intern

    def evaluate(state: _BoundState) -> Tuple[Tuple[Tuple[int, Any, bytes], ...], ...]:
        try:
            produced = effect(state)
            items = () if produced is None else list(produced)
        except Exception as exc:  # noqa: BLE001 - mirror Action.successors
            raise EvaluationError(
                f"action {name!r} raised {type(exc).__name__}: {exc}",
                action=name,
            ) from exc
        updates = []
        for item in items:
            tp = type(item)
            if tp is dict or (
                not isinstance(item, State) and isinstance(item, Mapping)
            ):
                update = []
                for var, val in item.items():
                    canonical, vfp = intern(val)
                    update.append((index_of(var), canonical, _FP_PACK(vfp)))
            elif isinstance(item, State):
                state._all = True  # a ready-made State stands for every slot
                update = []
                for slot, val in enumerate(item.values):
                    canonical, vfp = intern(val)
                    update.append((slot, canonical, _FP_PACK(vfp)))
            else:
                raise EvaluationError(
                    f"action {name!r} produced {tp.__name__}; "
                    "expected State or mapping of variable updates",
                    action=name,
                )
            updates.append(tuple(update))
        return tuple(updates)

    return evaluate


class _MemoizedPredicates:
    """``violated_invariant`` / ``within_constraint`` over bound states.

    The spec's two predicates, answered from the tries.
    """

    def __init__(self, spec: Specification, memo: _ReadSetMemo) -> None:
        self._recall = memo.recall
        self._invariants = [
            (inv, memo.memoize(inv.name, inv.holds)) for inv in spec.invariants
        ]
        constraint = spec.constraint
        self._constraint = (
            None
            if constraint is None
            else memo.memoize("constraint", lambda state: bool(constraint(state)))
        )

    def violated_invariant(self, state: _BoundState) -> Optional[Invariant]:
        recall = self._recall
        for inv, function in self._invariants:
            if not recall(function, state):
                return inv
        return None

    def within_constraint(self, state: _BoundState) -> bool:
        return self._constraint is None or self._recall(self._constraint, state)


def build_generic_kernels(
    spec: Specification, interner: ValueInterner
) -> Tuple[Callable, Callable, Callable, Dict[str, Any]]:
    """``(transitions, expand, verdict_for, info)``: the read-set memo over ``spec``'s closures.

    Works for any specification; see the module docstring for what is
    memoized and why that is exact.
    """
    schema = spec.schema
    memo = _ReadSetMemo(schema, interner)
    bind, recall = memo.bind, memo.recall
    actions = [
        memo.memoize(act.name, _action_evaluator(act, schema, interner))
        for act in spec.actions
    ]
    predicates = _MemoizedPredicates(spec, memo)
    violated_invariant = predicates.violated_invariant
    within_constraint = predicates.within_constraint
    verdicts: Dict[int, Verdict] = {}  # expand's memo; see memoized_verdict

    def verdict_for(values: Tuple[Any, ...], fp: int) -> Verdict:
        state = bind(values)
        violated = violated_invariant(state)
        return (
            None if violated is None else violated.name,
            within_constraint(state),
        )

    def transitions(values: Tuple[Any, ...]) -> List[Transition]:
        state = bind(values)
        vals, fps = state._vals, state._fps
        found: List[Transition] = []
        append = found.append
        for function in actions:
            name = function.name
            for update in recall(function, state):
                new_values = list(vals)
                new_fps = list(fps)
                for slot, canonical, vfp in update:
                    new_values[slot] = canonical
                    new_fps[slot] = vfp
                append((name, tuple(new_values), packed_state_fingerprint(new_fps)))
        return found

    def expand(values: Tuple[Any, ...]) -> List[SuccessorInfo]:
        entries: List[SuccessorInfo] = []
        append = entries.append
        for name, nvals, nfp in transitions(values):
            verdict = memoized_verdict(verdict_for, nvals, nfp, verdicts)
            append((name, nvals, nfp, verdict[0], verdict[1]))
        return entries

    info = {
        "native": False,
        "kernel": "generic",
        "memo": {function.name: function.stats for function in memo.functions},
    }
    return transitions, expand, verdict_for, info


class CompiledSpec:
    """A specification specialized into flat compiled form.

    Engines use :attr:`transitions` / :attr:`verdict_for` (``simulate``:
    :attr:`expand`) on value tuples and the trace fold :attr:`transitions`;
    code
    written against the interpreted surface (replay, coverage, graph
    retention, tests) can use this object wherever a ``Specification`` goes
    -- the adapter methods convert at the boundary and every unlisted
    attribute delegates to the wrapped spec.
    """

    def __init__(
        self,
        spec: Specification,
        transitions: Callable[[Tuple[Any, ...]], List[Transition]],
        expand: Callable[[Tuple[Any, ...]], List[SuccessorInfo]],
        verdict_for: Callable[[Tuple[Any, ...], int], Tuple[Optional[str], bool]],
        info: Dict[str, Any],
        interner: Optional[ValueInterner] = None,
    ) -> None:
        self.spec = spec
        self.schema = spec.schema
        self.transitions = transitions
        self.expand = expand
        self.verdict_for = verdict_for
        #: ``kernel`` / ``native``, and for the generic kernel ``memo``: per
        #: action, invariant and constraint the live ``hits`` / ``misses`` /
        #: ``entries`` / ``opaque`` of its read-set memo.
        self.compile_info = dict(info)
        self.interner = interner
        self._invariants_by_name = {inv.name: inv for inv in spec.invariants}

    def __repr__(self) -> str:
        kernel = self.compile_info.get("kernel", "?")
        return f"CompiledSpec({self.spec.name!r}, kernel={kernel!r})"

    @property
    def native(self) -> bool:
        """True when the spec compiled to exec-generated native kernels."""
        return bool(self.compile_info.get("native"))

    # Interpreted-surface adapter --------------------------------------------
    def initial_states(self) -> List[State]:
        return self.spec.initial_states()

    def successors(self, state: State) -> List[Tuple[str, State]]:
        """``Specification.successors`` computed through the compiled kernel."""
        schema = self.schema
        return [
            (name, State.from_values(schema, values))
            for name, values, _fp in self.transitions(state.values)
        ]

    def violated_invariant(self, state: State) -> Optional[Invariant]:
        name, _within = self.verdict_for(state.values, state.fingerprint())
        if name is None:
            return None
        return self._invariants_by_name[name]

    def within_constraint(self, state: State) -> bool:
        _name, within = self.verdict_for(state.values, state.fingerprint())
        return within

    def __getattr__(self, name: str) -> Any:
        return getattr(self.spec, name)
