"""Trace checking: verify that a recorded behaviour is permitted by a spec.

This is the heart of MBTC (paper Section 4).  Given a sequence of states
observed from the running implementation, we check that the sequence is a
behaviour of the specification, following the method Ron Pressler proposed
for TLA+/TLC [34]: every step must be a specification action or a stutter.

* Full observations (every variable, as the MongoDB team logged
  ``RaftMongo.tla``'s) are one fold: :class:`TraceFold`, which
  :func:`check_trace`, the batch runner and the streaming checker drive.
* Partial observations (variables too costly to snapshot under the
  Server's hierarchical locking hidden, paper Section 4.2.3) are one trace
  spec: :func:`trace_spec`, which :func:`check_partial_trace` has the
  model checker's one BFS search; an accepted trace has a ``witness``.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from .coverage import CoverageReport
from .errors import TraceInitialStateMismatch, TraceMismatch
from .spec import Action, Invariant, Specification
from .state import State
from .values import decode_value, freeze, slot_term, state_fingerprint_of_terms

if TYPE_CHECKING:
    from ..compile.expansion import StateExpansion

__all__ = [
    "STUTTER",
    "BoundTrace",
    "SuccessorCache",
    "TraceCheckResult",
    "TraceFold",
    "check_partial_trace",
    "check_trace",
    "explain_failure",
    "trace_spec",
]

#: What :meth:`TraceFold.step` reports for a step that changes nothing.
STUTTER = "<stutter>"

#: Stands in every slot of the state an unanchored binding starts from; no
#: value is this object, so every slot gets bound.
_UNBOUND = object()

#: A state bound in a :class:`SuccessorCache`: ``(values as observed, canonical
#: values, exact key, slot terms)``; a state the cache decoded itself has no
#: other values.  Its fingerprint is the sum of the last
#: (:func:`~repro.tla.values.state_fingerprint_of_terms`).
Binding = Tuple[Tuple[Any, ...], Tuple[Any, ...], Tuple[Any, ...], Tuple[int, ...]]

_FOR_SPEC_LOCK = threading.Lock()


class SuccessorCache:
    """Memoized successor lookup shared across many trace checks: the one
    place trace checking meets the compiled substrate.

    Batch trace checking (paper Section 4.2.4: running MBTC over every CI
    execution) asks for the successors of the same states over and over --
    different traces of one workload wander through the same region of the
    state space.  The cache owns the spec's *expander*
    (:func:`repro.compile.compile_spec`: the native or the generic kernel)
    and one :class:`~repro.compile.ValueInterner` (the compiled spec's when
    it has one), and memoizes each state's ``transitions`` -- no invariant, no
    constraint -- as a :class:`~repro.compile.expansion.StateExpansion`: the
    record the simulation engine's walks keep too, three columns with one
    copy of each successor, plus the state itself.  Every memo here is a
    :class:`~repro.compile.expansion.Memo` capped at :attr:`max_entries`
    entries: a state counts once, however many successors it holds.
    :meth:`for_spec` is the one everything handed the same
    ``Specification`` object shares.

    **Keys are exact; a fingerprint selects, equality decides.**  A state is
    bound slot by slot to the value's interner entry: the canonical object,
    its key (its identity; a ``(type, value)`` pair for a primitive -- the
    interner's one rule, which the read-set tries of
    :mod:`repro.compile.kernels` key on too) and its slot term (the slot's
    share of the state fingerprint), worked out from the entry's fingerprint.  The memo is keyed on those keys -- never on a 64-bit
    fingerprint -- an entry retains the objects its key names, and every memo
    is dropped when the interner's eviction count moves.  A state's
    *successors* are kept as the expander handed them back, none of them
    bound, and found in the fingerprint column: that probe only picks a
    candidate, see :meth:`TraceFold.step` for what decides a match and a
    violation.

    **The decode plan.**  Observations arrive as JSON and repeat massively,
    so :meth:`splice` builds no value twice: a payload is found by its
    ``repr`` (exact, types included) and decoded into canonical objects
    once, a node's slot is spliced into a whole variable once per ``(whole,
    node, part)``, and the binding of each distinct state is built once and
    handed to every trace that passes through it.  :meth:`bind`, by
    equality, remains the one way in for anything else: hand-built states,
    unpickled states, a trace bound in another cache.

    **One instance may be shared between threads**: that is a contract,
    pinned by ``tests/test_ingest.py``'s eight-thread decode-and-check test.
    The library folds from one thread, but a caller may share one cache
    between threads of its own: a hit is one dict probe, and everything
    that edits the interner, the expander's memos or these memos -- binding
    a state, a miss, an eviction -- runs under one lock, because none of them
    is safe to enter twice (and none re-enters: the lock is a plain one);
    :meth:`for_spec` builds the per-spec instance under another.  The
    hit/miss counters are unsynchronized, so approximate under concurrency
    (they inform a summary line, nothing more).
    """

    __slots__ = (
        "spec", "expander", "interner", "_record",
        "_cache", "_decoded", "_spliced", "_bindings", "_initials",
        "_epoch", "_lock",
        "hits", "misses", "decode_hits", "decode_misses", "splice_hits", "splice_misses",
    )

    def __init__(self, spec: Specification, *, max_entries: int = 250_000) -> None:
        # Imported here, as the engines do: ``repro.tla`` must not need the
        # compile package at import time.
        from ..compile import compile_spec
        from ..compile.expansion import Memo, StateExpansion
        from ..compile.interner import ValueInterner

        self.spec = spec
        self.expander = compile_spec(spec)
        interner = self.expander.interner
        self.interner = interner if interner is not None else ValueInterner()
        #: The record class, bound once: an import on every miss costs more
        #: than the miss's bookkeeping.
        self._record = StateExpansion
        #: key -> the state's StateExpansion; capped in states, not successors
        #: (the other memos' entries weigh one each anyway).
        self._cache = Memo(max_entries, weighed=False)
        #: repr(payload) -> ((slot, canonical value, key part, slot term), ...).
        self._decoded = Memo(max_entries)
        #: (slot, id(whole), node, key part) -> (whole, spliced whole, its key
        #: part and slot term): retaining ``whole`` keeps its id from being reused.
        self._spliced = Memo(max_entries)
        #: key -> the one binding :meth:`splice` hands out for that state.
        self._bindings = Memo(max_entries)
        self._initials: Tuple[int, List[Binding]] = (-1, [])
        self._epoch = self.interner.evictions
        self._lock = threading.Lock()
        self.hits = self.misses = 0
        self.decode_hits = self.decode_misses = 0
        self.splice_hits = self.splice_misses = 0

    @classmethod
    def for_spec(cls, spec: Specification) -> "SuccessorCache":
        """The cache that lives on ``spec`` and goes with it, built when first
        asked for; an explicit ``successor_cache=`` always wins over it."""
        with _FOR_SPEC_LOCK:
            if spec._successor_cache is None:
                spec._successor_cache = cls(spec)
            return spec._successor_cache

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def max_entries(self) -> int:
        """The cap of every memo here, in entries."""
        return self._cache.cap

    @max_entries.setter
    def max_entries(self, cap: int) -> None:
        for memo in (self._cache, self._decoded, self._spliced, self._bindings):
            memo.cap = cap

    @property
    def kernel(self) -> str:
        """What computes successors: ``native`` or ``generic``."""
        return self.expander.compile_info["kernel"]

    def stats(self) -> Dict[str, Any]:
        """The kernel kind and the counters of everything the cache runs on.

        ``hits`` / ``misses`` / ``cache_entries``: the successor memo, and
        ``successors`` the successors its expansions hold; ``decode_*`` /
        ``splice_*``: the decode plan (all misses when every payload is
        distinct), and ``binding_entries`` the distinct states it has bound;
        ``interner_*``: the value interner; ``memo_*``: the generic kernel's
        read-set memo summed over its actions.
        """
        interner = self.interner.stats()
        memo = self.expander.compile_info.get("memo") or {}
        stats = {
            "kernel": self.kernel,
            "hits": self.hits,
            "misses": self.misses,
            "cache_entries": len(self._cache),
            "successors": self._cache.weight - len(self._cache),
            "binding_entries": len(self._bindings),
            "decode_hits": self.decode_hits,
            "decode_misses": self.decode_misses,
            "decode_entries": len(self._decoded),
            "splice_hits": self.splice_hits,
            "splice_misses": self.splice_misses,
            "splice_entries": len(self._spliced),
        }
        for name in ("hits", "misses", "evictions", "entries"):
            stats[f"interner_{name}"] = interner[name]
        for name in ("hits", "misses", "entries"):
            stats[f"memo_{name}"] = sum(function[name] for function in memo.values())
        return stats

    def _canonical(self, value: Any, slot: int) -> Tuple[Any, Any, int]:
        """``(canonical object, key part, slot term)`` of ``value`` held in ``slot``."""
        canonical, fp, key, _cube = self.interner.intern(value)
        return canonical, key, slot_term(slot, fp)

    def _file(self, memo: str, key: Any, entry: Any) -> None:
        """Under the lock: keep a miss's ``entry`` in the memo named ``memo``."""
        if self.interner.evictions != self._epoch:
            # The interner let go of objects the memos are keyed on: equal
            # values are canonical under new identities from here on.
            for each in (self._cache, self._decoded, self._spliced, self._bindings):
                each.clear()
            self._epoch = self.interner.evictions
        getattr(self, memo).keep(key, entry)

    # -- binding: observed values -> canonical values + exact key --------------
    def bind(self, values: Tuple[Any, ...], near: Optional[Binding] = None) -> Binding:
        """``(values, canonical values, key, slot terms)``: a state's
        value tuple, bound.

        ``near`` is the binding of a state ``values`` was derived from
        (``with_updates``, a transition, the previous state of a trace): a
        slot still holding that state's object keeps its binding and is not
        looked at again.
        """
        if near is None:
            base = new_values = new_key = new_terms = [_UNBOUND] * len(values)
        else:
            base, new_values, new_key, new_terms = near
        new_values, new_key, new_terms = list(new_values), list(new_key), list(new_terms)
        with self._lock:
            for slot, value in enumerate(values):
                if value is not base[slot]:
                    new_values[slot], new_key[slot], new_terms[slot] = self._canonical(
                        value, slot
                    )
        return values, tuple(new_values), tuple(new_key), tuple(new_terms)

    def initial_bindings(self) -> List[Binding]:
        """The spec's initial states, bound once per interner epoch."""
        epoch, rows = self._initials
        if epoch != self.interner.evictions:
            epoch = self.interner.evictions
            rows = [self.bind(state.values) for state in self.spec.initial_states()]
            self._initials = epoch, rows
        return rows

    def splice(
        self,
        binding: Binding,
        node: Optional[int],
        payload: Mapping[str, Any],
        per_node_slots: Any = (),
    ) -> Binding:
        """The state ``payload`` reports after ``binding``: variable names to
        JSON-encoded values -- whole values, or with ``node``, for the
        variables in ``per_node_slots``, that node's slot of each.  A state
        spliced before in this interner epoch gets the binding it got then.
        Raises ``KeyError(name)`` for an undeclared variable,
        ``IndexError(slot, size)`` for a node the variable has no slot for."""
        text = repr(payload)
        live = self.interner.evictions == self._epoch
        parts = self._decoded.get(text) if live else None
        if parts is None:
            parts = self._decode(text, payload)
        else:
            self.decode_hits += 1
        _seen, values, key, terms = binding
        new_values, new_key, new_terms = list(values), list(key), list(terms)
        for slot, value, part, term in parts:
            if node is not None and slot in per_node_slots:
                whole = new_values[slot]
                found = self._spliced.get((slot, id(whole), node, part)) if live else None
                if found is None:
                    found = self._splice(slot, whole, node, value, part)
                else:
                    self.splice_hits += 1
                _whole, value, part, term = found
            new_values[slot] = value
            new_key[slot] = part
            new_terms[slot] = term
        key = tuple(new_key)
        found = self._bindings.get(key) if live else None
        if found is None:
            values = tuple(new_values)
            found = values, values, key, tuple(new_terms)
            with self._lock:
                self._file("_bindings", key, found)
        return found

    def _decode(
        self, text: str, payload: Mapping[str, Any]
    ) -> Tuple[Tuple[int, Any, Any, int], ...]:
        self.decode_misses += 1
        schema = self.spec.schema
        for name in payload:
            if name not in schema:
                raise KeyError(name)
        with self._lock:
            slots = [(schema.index_of(name), raw) for name, raw in payload.items()]
            parts = tuple(
                (slot, *self._canonical(decode_value(raw), slot)) for slot, raw in slots
            )
            self._file("_decoded", text, parts)
        return parts

    def _splice(
        self, slot: int, whole: Any, node: int, value: Any, part: Any
    ) -> Tuple[Any, Any, Any, int]:
        self.splice_misses += 1
        size = len(whole) if type(whole) is tuple else 0
        if not 0 <= node < size:
            raise IndexError(slot, size)
        with self._lock:
            spliced = whole[:node] + (value,) + whole[node + 1 :]
            found = (whole, *self._canonical(spliced, slot))
            self._file("_spliced", (slot, id(whole), node, part), found)
        return found

    # -- lookup -----------------------------------------------------------------
    def expansion(self, binding: Binding) -> StateExpansion:
        """The memoized expansion of the state bound as ``binding``.

        A miss runs the expander on the canonical values and keeps what it
        hands back in columns -- no successor is bound to find one of them.
        """
        _seen, values, key, terms = binding
        if self.interner.evictions == self._epoch:
            found = self._cache.get(key)
            if found is not None:
                self.hits += 1
                return found
        self.misses += 1
        with self._lock:
            transitions = self.expander.transitions(values)
            found = self._record(values, state_fingerprint_of_terms(terms), transitions)
            self._file("_cache", key, found)
        return found


@dataclass
class TraceCheckResult:
    """Outcome of checking one trace against one specification."""

    spec_name: str
    trace_length: int
    ok: bool
    checked_steps: int
    failure_index: Optional[int] = None
    failure: Optional[Exception] = None
    matched_actions: List[Optional[str]] = field(default_factory=list)
    stuttering_steps: int = 0
    #: An accepted partial trace's behaviour: one full state per observation.
    witness: List[State] = field(default_factory=list)

    def validated_prefix(self, states: Sequence[State]) -> List[State]:
        """The states this check actually witnessed as a behaviour prefix.

        Coverage accounting must only count these: states past the failing
        transition were never checked and may not even be reachable, and a
        trace rejected at its first state witnessed nothing.
        """
        if self.ok:
            return list(states)
        if isinstance(self.failure, TraceInitialStateMismatch):
            return []
        return list(states[: (self.failure_index or 0) + 1])

    def summary(self) -> str:
        """One-line verdict, analogous to the MBTC pass/fail of paper Figure 1."""
        verdict = "PASS" if self.ok else "FAIL"
        detail = ""
        if not self.ok and self.failure_index is not None:
            detail = f" at step {self.failure_index}"
        return (
            f"MBTC {verdict}: spec={self.spec_name} trace length={self.trace_length}"
            f" checked={self.checked_steps}{detail}"
        )


def _as_state(spec: Specification, item: Any) -> State:
    if isinstance(item, State):
        return item
    if isinstance(item, Mapping):
        return spec.make_state(**item)
    raise TypeError(f"trace items must be State or mapping, got {type(item).__name__}")


class BoundTrace(Sequence):
    """What decoding logs or a corpus against a spec yields: to a fold on the
    same cache and interner epoch, bindings it steps on as they are; to
    everyone else a sequence of :class:`State` objects, built when indexed,
    equal to a list of equal states and pickled as one.  Traces decoded into
    one cache share the binding of every state they have in common."""

    __slots__ = ("cache", "bindings", "epoch")

    def __init__(self, cache: SuccessorCache) -> None:
        self.cache = cache
        self.bindings: List[Binding] = []  # appended to by whoever decodes the trace
        self.epoch = cache.interner.evictions  # ... from this interner epoch on

    def __len__(self) -> int:
        return len(self.bindings)

    def __getitem__(self, index: Any) -> Any:
        schema = self.cache.spec.schema
        if isinstance(index, slice):
            return [State.from_values(schema, row[1]) for row in self.bindings[index]]
        return State.from_values(schema, self.bindings[index][1])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (list, (list(self),))


class TraceFold:
    """The one trace-step core: is ``current -> next`` an action, a stutter
    or a violation?

    :meth:`begin` anchors the fold on a first state, :meth:`step` judges each
    next state and keeps the books: ``steps`` (stutters included),
    ``stutters``, ``action_counts`` and the ``failure`` record.  Handed a
    :class:`~repro.tla.coverage.CoverageReport` it also fills that with
    exactly the states it validated (``action_counts`` then *is* the
    report's), so coverage takes no second walk.  :func:`check_trace`, the
    batch runner and the streaming ``IncrementalChecker`` are its drivers.

    The fold's position is the current state's *binding* in the
    :class:`SuccessorCache` -- canonical values, exact key, slot terms --
    so a step is one sum of the terms, one probe of a fingerprint column and
    one comparison, a :class:`BoundTrace` of the same
    cache is stepped on as it is, and the coverage fingerprint is the one the
    step was found by.
    ``state`` is built for whoever asks: a checkpoint, a pool task.
    """

    def __init__(
        self,
        spec: Specification,
        successor_cache: Optional[SuccessorCache] = None,
        *,
        allow_stuttering: bool = True,
        coverage: Optional[CoverageReport] = None,
    ) -> None:
        self.spec = spec
        self.cache = (
            successor_cache if successor_cache is not None else SuccessorCache.for_spec(spec)
        )
        self.allow_stuttering = allow_stuttering
        self.coverage = coverage
        self._reset()

    def _reset(self) -> None:
        self.steps = 0
        self.stutters = 0
        self.action_counts: Dict[str, int] = (
            self.coverage.action_counts if self.coverage is not None else {}
        )
        self.failure: Optional[Exception] = None
        self._place(None)

    def _place(self, binding: Optional[Binding], fp: Optional[int] = None) -> None:
        # The fingerprint and the expansion are looked up once per state,
        # however many of step / coverage / failure ask.
        self._binding, self._fp = binding, fp
        self._expansion: Optional[StateExpansion] = None

    @property
    def state(self) -> Optional[State]:
        """The current state (None before :meth:`begin`)."""
        if self._binding is None:
            return None
        return State.from_values(self.spec.schema, self._binding[1])

    @state.setter
    def state(self, state: Optional[State]) -> None:
        # The streaming driver moves the fold: absorbing a pool task, restoring.
        self._place(None if state is None else self.cache.bind(state.values))

    def begin(self, binding: Binding, require_initial: bool = True) -> bool:
        """Start a trace at the state bound as ``binding`` (``cache.bind``);
        False, with ``failure`` set, if it had to be initial."""
        self._reset()
        if require_initial:
            _seen, values, key, _terms = binding
            # By key, else by equality: what defines a stutter in ``step``.
            if not any(
                key == k or values == v for _seen, v, k, _terms in self.cache.initial_bindings()
            ):
                self.failure = TraceInitialStateMismatch(
                    f"trace state 0 is not an initial state of {self.spec.name!r}"
                )
                return False
        self._place(binding)
        if self.coverage is not None:
            self._cover()
        return True

    def step(self, binding: Binding, what: Optional[str] = None) -> Optional[str]:
        """Judge ``current -> binding``: the matched action's name, ``"<stutter>"``,
        or None for a violation (the fold then holds ``failure`` and stays put).

        What *defines* the verdict is equality of the values.  A step that
        is the current key again, or equals the current state whatever its
        key, is a stutter.  Otherwise the observation's fingerprint -- the
        sum of the slot terms its binding carries --
        *selects* the first successor with that fingerprint in the
        expansion's fingerprint column, and the step matches it only if its
        values equal the observed ones; no match is ever reported on
        fingerprint equality alone.  When the probe finds nothing or the
        candidate differs -- a log that reports ``1`` where the spec holds
        ``True``, two successors sharing a fingerprint -- the observation is
        compared with every successor, and only when that fails too is the
        step a violation.  (A spec whose own successors are equal but
        differently typed is matched by the identically typed one: their
        fingerprints differ.)  The fold then stands on the binding *as
        observed*, with its own fingerprint.

        ``what`` names the observation in the failure message (the streaming
        driver says which log event it was); the default is the step's index.
        """
        _seen, values, key, terms = binding
        _seen, here_values, here_key, _terms = self._binding
        if self.allow_stuttering and (key == here_key or values == here_values):
            # Equality with the current state is asked before the successors
            # are: a ``1`` logged for a ``True`` slot is a stutter even when
            # the state has a self-loop that produces that very ``1``.
            matched = STUTTER
        else:
            here = self._successors()
            fp = state_fingerprint_of_terms(terms)
            at = here.find(fp)
            if at is None or here.successor(at) != values:
                for at, successor in enumerate(here.successors):
                    if successor == values:
                        break
                else:
                    index = self.steps
                    self.failure = TraceMismatch(
                        f"{what or f'step {index} -> {index + 1} of the trace'} is not "
                        f"permitted by any action of {self.spec.name!r} "
                        f"(enabled: {self.enabled()})",
                        step_index=index,
                        observed=State.from_values(self.spec.schema, values).to_dict(),
                    )
                    return None
            matched = here.actions[at]
        if matched is STUTTER:
            self.stutters += 1
        else:
            self.action_counts[matched] = self.action_counts.get(matched, 0) + 1
            self._place(binding, fp)
        self.steps += 1
        if self.coverage is not None:
            self._cover()
        return matched

    def _bound(self, trace: Sequence) -> Iterator[Binding]:
        """Each state of ``trace``, bound: a :class:`BoundTrace` of this cache
        and interner epoch as it is, anything else -- hand-built states,
        mappings, a trace of another cache or from before an eviction -- slot
        by slot."""
        cache = self.cache
        if isinstance(trace, BoundTrace):
            if trace.cache is cache and trace.epoch == cache.interner.evictions:
                yield from trace.bindings
                return
            observed = [row[1] for row in trace.bindings]
        else:
            observed = [_as_state(self.spec, item).values for item in trace]
        binding = None
        for values in observed:
            binding = cache.bind(values, binding)
            yield binding

    def check(self, trace: Sequence[Any], require_initial: bool = True) -> TraceCheckResult:
        """Fold a whole trace on a fresh fold: begin, then step to the first failure."""
        bound = self._bound(trace)
        matched_actions: List[Optional[str]] = []
        first = next(bound, None)
        if first is not None and self.begin(first, require_initial):
            matched_actions.append(None)
            for binding in bound:
                matched = self.step(binding)
                if matched is None:
                    break
                matched_actions.append(matched)
        return TraceCheckResult(
            spec_name=self.spec.name,
            trace_length=len(trace),
            ok=self.failure is None,
            checked_steps=self.steps,
            failure_index=None if self.failure is None else self.steps,
            failure=self.failure,
            matched_actions=matched_actions,
            stuttering_steps=self.stutters,
        )

    def enabled(self) -> List[str]:
        """Actions enabled in the current state, read off its successor list."""
        return list(self._successors().enabled)

    def fingerprint(self) -> int:
        """The current state's fingerprint: ``self.state.fingerprint()``, not re-walked."""
        if self._fp is None:
            self._fp = state_fingerprint_of_terms(self._binding[3])
        return self._fp

    def _successors(self) -> StateExpansion:
        """The current state's expansion, looked up once per state."""
        here = self._expansion
        if here is None:
            here = self._expansion = self.cache.expansion(self._binding)
            self._fp = here.fp
        return here

    def _cover(self) -> None:
        """Count the (just validated) current state into the coverage report."""
        here = self._successors()
        self.coverage.visited_fingerprints.add(here.fp)
        counts = self.coverage.enabled_action_counts
        for name in here.enabled:
            counts[name] = counts.get(name, 0) + 1


def check_trace(
    spec: Specification,
    trace: Sequence[Any],
    *,
    allow_stuttering: bool = True,
    require_initial: bool = True,
    successor_cache: Optional[SuccessorCache] = None,
) -> TraceCheckResult:
    """Check that ``trace`` (fully-observed states) is a behaviour of ``spec``.

    The check mirrors Pressler's Trace.tla technique: state 0 must satisfy the
    init predicate (unless ``require_initial`` is disabled, which the MongoDB
    pipeline uses when a trace starts mid-test), and every subsequent step
    must be produced by one of the specification's actions, or be a
    stuttering step when ``allow_stuttering`` is true.
    """
    fold = TraceFold(spec, successor_cache, allow_stuttering=allow_stuttering)
    return fold.check(trace, require_initial)


def _observed(spec: Specification, observation: Mapping[str, Any]) -> Tuple[Tuple[int, Any], ...]:
    """An observation frozen once: ``(slot, value)`` per observed variable."""
    return tuple((spec.schema.index_of(name), freeze(v)) for name, v in observation.items())


def _matches(values: Tuple[Any, ...], observed: Tuple[Tuple[int, Any], ...]) -> bool:
    return all(values[slot] == value for slot, value in observed)


def trace_spec(
    spec: Specification,
    observations: Sequence[Mapping[str, Any]],
    *,
    allow_stuttering: bool = True,
) -> Specification:
    """The spec whose behaviours are ``spec``'s that match ``observations``.

    Its state is ``spec``'s variables plus a step index ``i``, starting at
    0 in the initial states that match observation 0.  Each of ``spec``'s
    actions, under its own name, keeps the successors that match
    observation ``i + 1`` and sets ``i`` to it; with ``allow_stuttering``,
    :data:`STUTTER` advances ``i`` alone.  Its one invariant, ``i < n - 1``,
    fails once the whole trace is explained: the counterexample is the
    behaviour.  ``spec``'s invariants, constraint and properties are not
    carried.
    """
    observed = [_observed(spec, observation) for observation in observations]
    width, last = len(spec.schema), len(observed) - 1

    def init() -> Iterator[State]:
        for state in spec.initial_states():
            if _matches(state.values, observed[0]):
                yield State.from_values(product.schema, (*state.values, 0))

    def lift(act: Action) -> Action:
        def effect(state: State) -> Iterator[State]:
            i = state["i"] + 1
            if i > last:
                return
            for successor in act.successors(state):
                values = successor.values[:width]
                if _matches(values, observed[i]):
                    yield State.from_values(product.schema, (*values, i))

        return Action(act.name, effect)

    def stutter(state: State) -> Iterator[Dict[str, int]]:
        i = state["i"] + 1
        if i <= last and _matches(state.values, observed[i]):
            yield {"i": i}

    actions = [lift(act) for act in spec.actions]
    if allow_stuttering:
        actions.append(Action(STUTTER, stutter))
    product = Specification(
        f"{spec.name}.trace",
        variables=(*spec.schema.names, "i"),
        init=init,
        actions=actions,
        invariants=[Invariant("Unexplained", lambda state: state["i"] < last)],
    )
    return product


def check_partial_trace(
    spec: Specification,
    observations: Sequence[Mapping[str, Any]],
    *,
    allow_stuttering: bool = True,
) -> TraceCheckResult:
    """Check a trace that observes only a subset of the spec's variables.

    The model checker's BFS searches :func:`trace_spec`, whose level ``i``
    is every full state consistent with observations 0..``i``: the
    hidden-variable search that paper Section 4.2.4 finds "impractically
    slow" on long traces.  An accepted trace carries its ``witness``; a
    rejected one fails at the deepest level reached.
    """
    # Imported here, as SuccessorCache imports compile_spec: ``repro.tla``
    # must not need the engine package at import time.
    from ..engine.core import check_spec

    n = len(observations)
    result = TraceCheckResult(spec.name, n, ok=True, checked_steps=max(n - 1, 0))
    if not n:
        return result
    first = _observed(spec, observations[0])
    if not any(_matches(state.values, first) for state in spec.initial_states()):
        result.ok, result.checked_steps, result.failure_index = False, 0, 0
        result.failure = TraceInitialStateMismatch(
            f"no initial state of {spec.name!r} matches the first observation"
        )
        return result
    product = trace_spec(spec, observations, allow_stuttering=allow_stuttering)
    found = check_spec(product, engine="fingerprint", check_properties=False)
    if found.invariant_violation is not None:
        behaviour = found.invariant_violation.trace
        result.witness = [State.from_values(spec.schema, s.values[:-1]) for s in behaviour]
        return result
    index = result.checked_steps = result.failure_index = found.max_depth
    result.ok = False
    result.failure = TraceMismatch(
        f"observation {index + 1} cannot be explained by any action of "
        f"{spec.name!r} from the states consistent with the trace so far",
        step_index=index,
        observed=dict(observations[index + 1]),
    )
    return result


def explain_failure(result: TraceCheckResult) -> str:
    """Render a short diagnostic for a failed trace check.

    The MongoDB team manually diagnosed each violation by comparing the
    offending trace step with the spec's enabled actions (Section 4.2.2); this
    helper performs the same comparison textually.
    """
    if result.ok:
        return f"trace of length {result.trace_length} conforms to {result.spec_name}"
    location = (
        f"step {result.failure_index}" if result.failure_index is not None else "start"
    )
    reason = str(result.failure) if result.failure is not None else "unknown reason"
    return f"trace violates {result.spec_name} at {location}: {reason}"
