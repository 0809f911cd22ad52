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
* binding a state is one identity probe per slot: the interner's entry for
  a canonical object already carries its trie key and packed fingerprint;
* ``transitions`` is then, per action, one dict lookup per slot read down
  to a leaf, walked inline, and per stored update a slot splice and one
  fingerprint join and digest -- no closure call, no ``freeze``, no
  ``intern``, no bound state; ``verdict_for`` is the same walk down each
  invariant's and the constraint's trie.  A :class:`_BoundState` is built
  only for a function the walk found no leaf for.

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
state remembers the interner's eviction count from before its first slot,
the tries are dropped when it moves -- including in the middle of a bind --
and nothing is stored for a state bound before or across an eviction.
Exceptions are never cached and surface with the wrapping they always had.

**When an action goes opaque.**  It is called directly from then on, with
no lookup and no bookkeeping, (a) after :data:`OPAQUE_AFTER` evaluations
that all read every slot -- single-variable specs such as ``locking``, where
the memo cannot hit -- or (b) the moment it reads slots in a different order
for the same values, i.e. shows itself not to be a function of what it
reads.  The decision comes from the observed read-sets, not from a flag.

The tries share one entry cap (:data:`MEMO_MAX` leaves, oldest half
discarded, like ``VERDICT_MEMO_MAX``).  Each stored leaf has one flat record
in a log, oldest first: its function's stats, the children dict that holds
it and its key there -- nothing per branch on the way down.  Eviction pops
the oldest half of the records and deletes those leaves, then one sweep of
every trie drops the branches left leading to no leaf.  Per action/invariant
``hits``, ``misses``, ``entries`` and ``opaque`` are live in
``compile_info["memo"]``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple
from zlib import adler32, crc32

from ..engine.base import SuccessorInfo, Transition, Verdict, memoized_verdict
from ..tla.errors import EvaluationError
from ..tla.spec import Action, Specification
from ..tla.state import State, VariableSchema
from .interner import Entry, ValueInterner

__all__ = ["CompiledSpec", "build_generic_kernels"]

#: Cap on stored results (trie leaves) across all of a spec's tries; bounds
#: per-process memory the way ``VERDICT_MEMO_MAX`` does.
MEMO_MAX = 500_000

#: Evaluations, all reading every slot, after which an action, invariant or
#: constraint that never produced a storable result is called directly.
OPAQUE_AFTER = 32


class _BoundState(State):
    """One state as the generic kernel sees it, and as an effect reads it.

    Built only when a function has to be evaluated -- a trie miss, an opaque
    function -- from the slots' interner entries (:meth:`_ReadSetMemo.bind`):
    the canonical values and their memo keys, kept as columns.  Records which
    slots are read through ``state[...]``, looked up in the schema's name ->
    slot dict.  Every other way at the values goes through :attr:`values`
    (the base class's own methods included) and counts as reading all of
    them.
    """

    __slots__ = ("_vals", "_keys", "_epoch", "_reads", "_all")

    __setattr__ = object.__setattr__

    def __init__(self, schema: VariableSchema, entries: List[Entry], epoch: int) -> None:
        self.schema = schema
        self._vals, _fps, self._keys, _packed = zip(*entries)
        #: The interner's eviction count before the first slot was bound.
        self._epoch = epoch
        self._fp = None
        self._reads: Dict[int, None] = {}
        self._all = False

    def __getitem__(self, name: str) -> Any:
        try:
            slot = self.schema._index[name]
        except KeyError:
            slot = self.schema.index_of(name)  # raises the schema's SpecError
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
    """The tries of one compiled spec: binding, the miss path, shared cap,
    eviction.  The kernels walk the tries themselves.

    :attr:`log` holds one ``(stats, children, key)`` record per stored leaf,
    oldest first.  Past :data:`MEMO_MAX` records the oldest half of the
    leaves is deleted through them, and a sweep of the tries then drops each
    branch that no longer leads to a leaf.
    """

    def __init__(self, schema: VariableSchema, interner: ValueInterner) -> None:
        self.schema = schema
        self.interner = interner
        self.max_entries = MEMO_MAX
        self.functions: List[_Memoized] = []
        #: One ``(stats, children, key)`` record per stored leaf, oldest
        #: first: the leaf is ``children[key]``, counted in ``stats``.
        self.log: Deque[Tuple[Dict[str, Any], Dict[Any, Any], Any]] = deque()
        #: The interner eviction count the stored keys are valid for.
        self.epoch = interner.evictions

    def memoize(self, name: str, evaluate: Callable[[_BoundState], Any]) -> _Memoized:
        taken = {function.name for function in self.functions}
        while name in taken:  # an invariant named like an action
            name += "'"
        function = _Memoized(name, evaluate)
        self.functions.append(function)
        return function

    def bind(self, values: Tuple[Any, ...]) -> Tuple[List[Entry], int]:
        """``(entries, epoch)``: each slot's interner entry -- one identity
        probe for a slot already canonical, ``intern`` else -- and the
        interner's eviction count from *before* the first slot.

        A state bound across an eviction may hold objects the interner has
        just let go of, so its :class:`_BoundState` carries that earlier
        count and nothing is stored for it; the tries are dropped here.
        """
        interner = self.interner
        epoch = interner.evictions
        get, intern = interner._by_id.get, interner.intern
        entries = [get(id(value)) or intern(value) for value in values]
        if interner.evictions != self.epoch:
            # The interner let go of objects the tries are keyed on.
            for function in self.functions:
                function.top.clear()
                function.stats["entries"] = 0
            self.log.clear()
            self.epoch = interner.evictions
        return entries, epoch

    def recall(self, function: _Memoized, state: _BoundState) -> Any:
        """``function.evaluate(state)`` where its trie has no leaf for ``state``.

        The kernels walk the tries themselves and come here on a miss -- the
        result is stored if its reads allow -- or for an opaque function,
        which is called directly.
        """
        stats = function.stats
        if stats["opaque"]:
            return function.evaluate(state)
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
        for slot in reads:
            node = children.get(key)
            if node is None:
                node = children[key] = _Branch(slot)
            elif type(node) is not _Branch or node.slot != slot:
                stats["opaque"] = True
                return
            children, key = node.children, keys[slot]
        if key in children:
            stats["opaque"] = True
            return
        children[key] = result
        stats["entries"] += 1
        self.log.append((stats, children, key))
        if len(self.log) > self.max_entries:
            self._evict_oldest_half()

    def _evict_oldest_half(self) -> None:
        popleft = self.log.popleft
        for _ in range(len(self.log) // 2):
            stats, children, key = popleft()
            stats["entries"] -= 1
            del children[key]
        for function in self.functions:
            _prune(function.top)


def _prune(children: Dict[Any, Any]) -> bool:
    """Drop the branches under ``children`` that lead to no leaf; True when
    ``children`` is left empty."""
    for key, node in list(children.items()):
        if type(node) is _Branch and _prune(node.children):
            del children[key]
    return not children


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
                    canonical, _fp, _key, packed = intern(val)
                    update.append((index_of(var), canonical, packed))
            elif isinstance(item, State):
                state._all = True  # a ready-made State stands for every slot
                update = []
                for slot, val in enumerate(item.values):
                    canonical, _fp, _key, packed = intern(val)
                    update.append((slot, canonical, packed))
            else:
                raise EvaluationError(
                    f"action {name!r} produced {tp.__name__}; "
                    "expected State or mapping of variable updates",
                    action=name,
                )
            updates.append(tuple(update))
        return tuple(updates)

    return evaluate


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
    # ``(function, invariant name)`` per invariant, then the constraint's
    # with None for a name.
    predicates = [(memo.memoize(inv.name, inv.holds), inv.name) for inv in spec.invariants]
    constraint = spec.constraint
    if constraint is not None:
        predicates.append(
            (memo.memoize("constraint", lambda state: bool(constraint(state))), None)
        )
    verdicts: Dict[int, Verdict] = {}  # expand's memo; see memoized_verdict

    def verdict_for(values: Tuple[Any, ...], fp: int) -> Verdict:
        """The first violated invariant, then the constraint: each walked
        down its trie, and :meth:`_ReadSetMemo.recall` only without a leaf."""
        entries, epoch = bind(values)
        state = None  # built for the first function without a leaf
        violated, within = None, True
        for function, invariant in predicates:
            if invariant is not None and violated is not None:
                continue  # one violated invariant is the answer
            stats = function.stats
            node = None if stats["opaque"] else function.top.get(None)
            while type(node) is _Branch:
                node = node.children.get(entries[node.slot][2])
            if node is None:
                if state is None:
                    state = _BoundState(schema, entries, epoch)
                node = recall(function, state)
            else:
                stats["hits"] += 1
            if invariant is None:
                within = node
            elif not node:
                violated = invariant
        return violated, within

    def transitions(values: Tuple[Any, ...]) -> List[Transition]:
        """Per action, a walk down its trie -- one dict probe per slot read,
        :meth:`_ReadSetMemo.recall` only without a leaf -- then per stored
        update a splice and the state fingerprint's join and digest."""
        entries, epoch = bind(values)
        vals, _fps, keys, fps = zip(*entries)
        state = None  # built for the first action without a leaf
        found: List[Transition] = []
        append = found.append
        for function in actions:
            stats = function.stats
            node = None if stats["opaque"] else function.top.get(None)
            while type(node) is _Branch:
                node = node.children.get(keys[node.slot])
            if node is None:
                if state is None:
                    state = _BoundState(schema, entries, epoch)
                node = recall(function, state)
            else:
                stats["hits"] += 1
            name = function.name
            for update in node:
                new_values = list(vals)
                new_fps = list(fps)
                for slot, canonical, vfp in update:
                    new_values[slot] = canonical
                    new_fps[slot] = vfp
                # packed_state_fingerprint(new_fps), without its two frames.
                data = b"T" + b"".join(new_fps)
                append((name, tuple(new_values), (adler32(data) << 32) | crc32(data)))
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
    :attr:`expand`) on value tuples and the trace fold :attr:`transitions`.
    It is an expander, not a spec: seeding, replay and everything else on
    ``State`` objects goes to the wrapped :attr:`spec` itself.
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
        self.transitions = transitions
        self.expand = expand
        self.verdict_for = verdict_for
        #: ``kernel`` / ``native``, and for the generic kernel ``memo``: per
        #: action, invariant and constraint the live ``hits`` / ``misses`` /
        #: ``entries`` / ``opaque`` of its read-set memo.
        self.compile_info = dict(info)
        self.interner = interner

    def __repr__(self) -> str:
        kernel = self.compile_info.get("kernel", "?")
        return f"CompiledSpec({self.spec.name!r}, kernel={kernel!r})"

    @property
    def native(self) -> bool:
        """True when the spec compiled to exec-generated native kernels."""
        return bool(self.compile_info.get("native"))
