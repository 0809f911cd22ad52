"""Immutable value helpers mirroring the TLA+ value universe.

TLA+ specifications manipulate a small universe of values: model constants,
integers, strings, sets, sequences (tuples) and functions/records.  The model
checker stores millions of states, so every value must be hashable and cheap
to compare.  This module provides:

* :func:`freeze` / :func:`thaw` -- convert arbitrary nested Python data into a
  canonical hashable form and back,
* :class:`Record` -- an immutable mapping with attribute access and an
  ``EXCEPT``-style update helper (``rec.except_(ndx=3)``), mirroring TLA+
  records and the ``[op EXCEPT !.ndx = @ - 1]`` idiom used throughout the
  Realm Sync specification (paper Figure 7),
* :func:`encode_value` / :func:`decode_value` -- the library's one JSON
  convention for frozen values (logs, corpora, generated test modules),
* sequence helpers (:func:`append`, :func:`sub_seq`, :func:`seq_index`)
  mirroring the ``Sequences`` standard module, and
* :func:`fingerprint` -- a stable 64-bit fingerprint used by the checker,
  and :func:`state_fingerprint` -- a state's, from its slots' fingerprints.

Fingerprints are one algebra mod the prime ``FP_PRIME = 2**64 - 59``, in the
spirit of TLC's 64-bit fingerprints and of incremental (Zobrist-style)
hashing: a leaf is a 64-bit blake2b digest of its type-tagged ``repr``; a
container is its tag plus a sum over its children of a position or field
multiplier times the cube of the child's fingerprint; a state is
``Z + sum(L_s * fp(slot s))``.  The state rule is linear, so a successor's
fingerprint is its parent's plus, per rewritten slot, the new slot term less
the old -- one add and one ``% FP_PRIME``, no walk and no digest.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Mapping
from hashlib import blake2b
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

from .errors import SpecError

__all__ = [
    "FINGERPRINT_FORMAT",
    "FP_PRIME",
    "NULL",
    "Record",
    "append",
    "decode_value",
    "encode_value",
    "fingerprint",
    "freeze",
    "last",
    "seq_index",
    "slot_term",
    "state_fingerprint",
    "state_fingerprint_of_terms",
    "sub_seq",
    "thaw",
]


class _Null:
    """Singleton standing in for the ``NULL`` model constant used by the paper.

    ``RaftMongo.tla`` uses ``NULL`` for "no commit point known yet" (see the
    Trace module in paper Figure 4).
    """

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __hash__(self) -> int:
        return hash("repro.tla.NULL")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Null)

    def __reduce__(self):  # pragma: no cover - pickling support
        return (_Null, ())


NULL = _Null()

#: Types fingerprinted through the ``P`` (primitive) digest without any
#: structural walk, and keyed as ``(type, value)`` wherever a memo is keyed on
#: object identities.  Exact-type membership, so ``bool`` (a subclass of
#: ``int``) gets its own entry and subclasses fall through to the general
#: path instead of being mistaken for their base type.
_PRIMITIVE_TYPES = frozenset((str, int, float, bool, bytes, type(None), _Null))


class Record(Mapping[str, Any]):
    """An immutable record (TLA+ function with string domain).

    Records compare and hash by value, support attribute access for
    readability (``op.ndx`` rather than ``op["ndx"]``) and provide
    :meth:`except_` for the TLA+ ``EXCEPT`` update idiom.
    """

    __slots__ = ("_items", "_hash", "_lookup", "_fp")

    def __init__(self, *args: Mapping[str, Any], **fields: Any) -> None:
        merged: dict[str, Any] = {}
        for mapping in args:
            merged.update(mapping)
        merged.update(fields)
        frozen = {key: freeze(value) for key, value in merged.items()}
        object.__setattr__(self, "_items", tuple(sorted(frozen.items())))
        object.__setattr__(self, "_hash", hash(self._items))
        object.__setattr__(self, "_lookup", dict(self._items))
        object.__setattr__(self, "_fp", None)

    # Mapping interface -----------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        try:
            return self._lookup[key]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    # Value semantics ---------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in self._items)
        return f"Record({inner})"

    # Convenience -------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError as exc:  # pragma: no cover - defensive
            raise AttributeError(name) from exc

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Record instances are immutable")

    @classmethod
    def _from_items(cls, items: Tuple[Tuple[str, Any], ...]) -> "Record":
        """Rebuild a record from an already-frozen, already-sorted items tuple.

        This is the successor-generation hot path: ``except_`` and
        ``with_fields`` replace one or two fields of a record whose remaining
        values are frozen by construction, so re-freezing and re-sorting the
        whole mapping (what ``__init__`` does) would walk every sequence value
        on every BFS step.
        """
        record = object.__new__(cls)
        object.__setattr__(record, "_items", items)
        object.__setattr__(record, "_hash", hash(items))
        object.__setattr__(record, "_lookup", dict(items))
        object.__setattr__(record, "_fp", None)
        return record

    def __reduce__(self):
        return (Record._from_items, (self._items,))

    def _replace_fields(
        self, updates: "dict[str, Any]"
    ) -> "tuple[list[Tuple[str, Any]], dict[str, Any]]":
        """Freeze ``updates`` and replace existing fields positionally.

        Returns the new items list (key order untouched, unchanged values not
        re-frozen) and whatever update keys named no existing field -- the
        one point where ``except_`` and ``with_fields`` differ.
        """
        new_items = list(self._items)
        pending = {key: freeze(value) for key, value in updates.items()}
        for position, (name, _old) in enumerate(new_items):
            if name in pending:
                new_items[position] = (name, pending.pop(name))
        return new_items, pending

    def except_(self, **updates: Any) -> "Record":
        """Return a copy with the given fields replaced (TLA+ ``EXCEPT``)."""
        if not updates:
            return self
        new_items, pending = self._replace_fields(updates)
        if pending:
            raise KeyError(f"Record has no field {next(iter(pending))!r}")
        return Record._from_items(tuple(new_items))

    def with_fields(self, **updates: Any) -> "Record":
        """Return a copy with fields replaced or added."""
        if not updates:
            return self
        new_items, pending = self._replace_fields(updates)
        if pending:
            # New field names: only now does the key order need rebuilding.
            merged = dict(new_items)
            merged.update(pending)
            return Record._from_items(tuple(sorted(merged.items())))
        return Record._from_items(tuple(new_items))

    def to_dict(self) -> dict[str, Any]:
        """Return a plain mutable ``dict`` copy (values are thawed)."""
        return {name: thaw(value) for name, value in self._items}


def freeze(value: Any) -> Any:
    """Return a canonical hashable version of ``value``.

    Lists become tuples, sets become ``frozenset``, dicts become
    :class:`Record` when all keys are strings (and sorted key/value tuples
    otherwise).  Already-hashable values are returned unchanged.
    """
    tp = type(value)
    if tp in _PRIMITIVE_TYPES or tp is Record:
        return value
    if tp is tuple:
        # The common case by far -- a value built from frozen parts -- is
        # settled in one loop per tuple, without a call per leaf.
        for item in value:
            kind = type(item)
            if kind in _PRIMITIVE_TYPES or kind is Record:
                continue
            if kind is not tuple or freeze(item) is not item:
                break
        else:
            return value
    if isinstance(value, (str, int, float, bool, bytes, _Null)) or value is None:
        return value
    if isinstance(value, Record):
        return value
    if isinstance(value, Mapping):
        if all(isinstance(key, str) for key in value):
            return Record(value)
        return tuple(sorted((freeze(k), freeze(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        frozen_items = [freeze(item) for item in value]
        if type(value) is frozenset and all(
            new is old for new, old in zip(frozen_items, value)
        ):
            return value
        return frozenset(frozen_items)
    if isinstance(value, (list, tuple)):
        frozen_items = [freeze(item) for item in value]
        if type(value) is tuple and all(
            new is old for new, old in zip(frozen_items, value)
        ):
            # Already-frozen fast path: returning the original tuple keeps
            # object identity, so interner entries and Record._fp caches
            # attached to the shared value stay shared across states.
            return value
        return tuple(frozen_items)
    if hasattr(value, "__hash__") and value.__hash__ is not None:
        return value
    raise TypeError(f"cannot freeze value of type {type(value).__name__}")


def thaw(value: Any) -> Any:
    """Inverse-ish of :func:`freeze`: produce plain mutable Python data.

    Tuples become lists, ``frozenset`` becomes ``set`` and :class:`Record`
    becomes ``dict``.  This is used when rendering states as JSON trace events
    and when emitting generated test cases.
    """
    if isinstance(value, Record):
        return {name: thaw(item) for name, item in value.items()}
    if isinstance(value, tuple):
        return [thaw(item) for item in value]
    if isinstance(value, frozenset):
        return {thaw(item) for item in value}
    return value


def encode_value(value: Any) -> Any:
    """Render a frozen value as JSON data; ``NULL`` becomes ``{"__null__": true}``
    (JSON ``null`` is ``None``), data that is JSON already passes through."""
    tp = type(value)
    if tp in _PRIMITIVE_TYPES:  # exact types first: a corpus encodes every leaf of every state
        return {"__null__": True} if tp is _Null else value
    if tp is Record:
        return {name: encode_value(item) for name, item in value._items}
    if isinstance(value, (tuple, list)):
        return [encode_value(item) for item in value]
    if isinstance(value, Mapping):
        return {name: encode_value(item) for name, item in value.items()}
    if isinstance(value, (set, frozenset)):
        raise SpecError("sets cannot be encoded as JSON values")
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`; dicts become Records, lists tuples."""
    if isinstance(value, dict):
        if value.get("__null__") is True:
            return NULL
        # Children come back frozen, so the record is built from them as they
        # are: ``Record(...)`` would re-freeze each one, once per nesting level.
        return Record._from_items(
            tuple(sorted((name, decode_value(item)) for name, item in value.items()))
        )
    if isinstance(value, list):
        return tuple(decode_value(item) for item in value)
    return value


def append(sequence: Tuple[Any, ...], item: Any) -> Tuple[Any, ...]:
    """``Append(seq, item)`` from the TLA+ ``Sequences`` module."""
    return tuple(sequence) + (freeze(item),)


def sub_seq(sequence: Tuple[Any, ...], start: int, end: int) -> Tuple[Any, ...]:
    """``SubSeq(seq, start, end)`` with TLA+'s 1-based, inclusive indexing."""
    if start < 1:
        raise ValueError("SubSeq start index is 1-based and must be >= 1")
    return tuple(sequence[start - 1 : end])


def seq_index(sequence: Tuple[Any, ...], index: int) -> Any:
    """1-based sequence indexing, ``seq[i]`` in TLA+."""
    if index < 1 or index > len(sequence):
        raise IndexError(f"sequence index {index} out of range 1..{len(sequence)}")
    return sequence[index - 1]


def last(sequence: Tuple[Any, ...]) -> Any:
    """``Last(seq)``: the final element of a non-empty sequence."""
    if not sequence:
        raise IndexError("Last() of empty sequence")
    return sequence[-1]


#: The fingerprint modulus, the largest prime below ``2**64``: every
#: fingerprint is an int in ``[0, FP_PRIME)``.
FP_PRIME = (1 << 64) - 59

#: Names the fingerprint rule below in files that keep fingerprints without a
#: version of their own (coverage reports), so one of another rule is refused.
FINGERPRINT_FORMAT = "blake2b-cube-mod-2^64-59"


def _leaf(data: bytes) -> int:
    """A leaf fingerprint: the 64-bit blake2b digest of ``data``, mod :data:`FP_PRIME`."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little") % FP_PRIME


def _cube(fp: int) -> int:
    """``fp**3 mod FP_PRIME``: how a container sees a child's fingerprint.

    A bijection (``gcd(3, FP_PRIME - 1) == 1``), and not linear, so nested
    transpositions such as ``((a, b), (c, d))`` and ``((a, c), (b, d))``
    do not cancel out as they would in a plain weighted sum.
    """
    return fp * fp % FP_PRIME * fp % FP_PRIME


#: The multipliers a container weighs its children's cubes by, and the state
#: rule's constants; each one a leaf digest of a label, so stable everywhere.
_POSITIONS: List[int] = []
_SLOTS: List[int] = []
_FIELDS: Dict[str, int] = {}
_STATE_TAG = _leaf(b"Z")
_GROW = threading.Lock()


def _grown(multipliers: List[int], label: bytes, n: int) -> List[int]:
    """``multipliers`` (``_leaf(label + b"<i>")`` at index ``i``), at least ``n`` long."""
    if len(multipliers) < n:
        with _GROW:
            multipliers.extend(
                _leaf(label + str(i).encode()) for i in range(len(multipliers), n)
            )
    return multipliers


_grown(_POSITIONS, b"I", 64)
_grown(_SLOTS, b"L", 16)


def _field(name: str) -> int:
    """The multiplier of a record field."""
    weight = _FIELDS.get(name)
    if weight is None:
        weight = _FIELDS[name] = _leaf(b"F" + name.encode("utf-8"))
    return weight


def _position_term(position: int, fp: int) -> int:
    """A tuple's child at ``position`` with fingerprint ``fp``: its share of
    the tuple's fingerprint, which is ``fingerprint(())`` plus these."""
    return _grown(_POSITIONS, b"I", position + 1)[position] * _cube(fp) % FP_PRIME


def _slot_multipliers(n: int) -> Tuple[int, ...]:
    """``L_0 .. L_(n-1)``: the state rule's multipliers for ``n`` slots."""
    return tuple(_grown(_SLOTS, b"L", n)[:n])


def slot_term(slot: int, fp: int) -> int:
    """Slot ``slot``'s share of a state fingerprint, holding a value whose
    fingerprint is ``fp``: ``L_slot * fp mod FP_PRIME``."""
    return _grown(_SLOTS, b"L", slot + 1)[slot] * fp % FP_PRIME


def state_fingerprint_of_terms(terms: Iterable[int]) -> int:
    """A state's fingerprint from its slots' :func:`slot_term`\\ s.

    The state rule is linear -- ``Z + sum(L_s * fp(slot s)) mod FP_PRIME`` --
    so a successor's fingerprint is its parent's, less the terms of the slots
    an action rewrote, plus their new terms: the kernels and the trace fold
    keep terms, not values, to take that shortcut.
    """
    return (_STATE_TAG + sum(terms)) % FP_PRIME


def state_fingerprint(values: Tuple[Any, ...]) -> int:
    """The fingerprint of a state holding the frozen ``values``, one per slot."""
    slots = _grown(_SLOTS, b"L", len(values))
    return (_STATE_TAG + sum(map(operator.mul, slots, map(_fp_of, values)))) % FP_PRIME


_ITEM_VALUE = operator.itemgetter(1)


def _same_types(a: Any, b: Any) -> bool:
    """True when the equal frozen values ``a == b`` also agree in every type.

    ``True == 1 == 1.0`` and ``hash`` agrees, so an equality-keyed memo hands
    ``(False, True)`` the entry of an earlier ``(0, 1)`` -- whose fingerprint
    differs, because primitives are fingerprinted through their ``repr``.
    Every such memo checks its hits through this.  Shared children (the
    common case: values are built from parts of earlier ones) are settled by
    identity, so the walk is usually one level deep.
    """
    if a is b:
        return True
    tp = type(a)
    if tp is not type(b):
        return False
    if tp is tuple:
        pairs = zip(a, b)
    elif tp is Record:
        pairs = zip(map(_ITEM_VALUE, a._items), map(_ITEM_VALUE, b._items))
    elif tp is frozenset:
        mine = {item: item for item in a}
        pairs = ((mine[item], item) for item in b)
    else:
        return True
    for x, y in pairs:
        if x is not y:
            kind = type(x)
            if kind is not type(y) or (
                kind not in _PRIMITIVE_TYPES and not _same_types(x, y)
            ):
                return False
    return True


#: Leaf fingerprints of ``str`` and ``int`` values, which repeat across
#: values (action names, counters, state fingerprints in behaviour ids):
#: a digest costs more than the probe.  Emptied when it reaches the cap.
_LEAVES: Dict[Any, int] = {}
_LEAVES_CAP = 1 << 16

#: The structural kinds and the tag each one's fingerprint starts from.
_FP_TAGS = {tuple: _leaf(b"T"), Record: _leaf(b"R"), frozenset: _leaf(b"S")}


def _image(value: Any) -> int:
    """``_cube(_fp_of(value))``: a child's share before its container's multiplier."""
    fp = _fp_of(value)
    return fp * fp % FP_PRIME * fp % FP_PRIME


def _fp_of(value: Any, image: Callable[[Any], int] = _image) -> int:
    """The one fingerprint rule, walking ``value``.

    A primitive is the :func:`_leaf` of ``P`` and its ``repr`` (which keeps
    ``True``, ``1``, ``1.0`` and ``"1"`` apart, and is stable across
    processes).  A container is its kind's tag plus, mod :data:`FP_PRIME`,
    each child's ``image`` -- the cube of its fingerprint -- times the
    child's position (tuple) or field name (record) multiplier; a frozenset
    adds its elements' images unweighted.  ``image`` lets the interner
    answer children it already knows; the default walks them.

    Records cache their fingerprint on the instance (they are immutable and
    shared across the BFS frontier); tuples and frozensets are walked each
    time they are asked for.  Dispatch is on the exact type first:
    ``isinstance`` against :class:`Record`, an ABC, costs more than a leaf.
    """
    tp = type(value)
    tag = _FP_TAGS.get(tp)
    if tag is None and tp not in _PRIMITIVE_TYPES:
        # A subclass is fingerprinted as the kind it extends, anything else
        # as a primitive.
        tp = next((kind for kind in _FP_TAGS if isinstance(value, kind)), None)
        tag = _FP_TAGS.get(tp)
    if tag is None:
        if tp is str or tp is int:  # no two equal values of these differ in repr
            fp = _LEAVES.get(value)
            if fp is None:
                if len(_LEAVES) >= _LEAVES_CAP:
                    _LEAVES.clear()
                fp = _LEAVES[value] = _leaf(b"P" + repr(value).encode("utf-8"))
            return fp
        return _leaf(b"P" + repr(value).encode("utf-8"))
    if tp is tuple:
        positions = _POSITIONS if len(value) <= len(_POSITIONS) else (
            _grown(_POSITIONS, b"I", len(value))
        )
        return (tag + sum(map(operator.mul, positions, map(image, value)))) % FP_PRIME
    if tp is frozenset:
        return (tag + sum(map(image, value))) % FP_PRIME
    cached = value._fp
    if cached is None:
        cached = (
            tag + sum(_field(name) * image(item) for name, item in value._items)
        ) % FP_PRIME
        object.__setattr__(value, "_fp", cached)
    return cached


def fingerprint(value: Any, *, frozen: bool = False) -> int:
    """Return a stable 64-bit fingerprint of a frozen value.

    Python's built-in ``hash`` is randomized per process for strings, which
    would make fingerprints unusable for cross-run coverage merging (one of
    the TLC gaps the paper calls out in Section 4.2.4).  Leaves are blake2b
    digests of their ``repr`` and containers combine their children's
    fingerprints arithmetically mod the prime :data:`FP_PRIME` (see
    :func:`_fp_of`), which is stable across processes and runs.

    ``frozen=True`` skips the defensive :func:`freeze` walk; callers such as
    :meth:`repro.tla.state.State.fingerprint` whose values are frozen by
    construction use it to avoid rebuilding the value tree on every call.
    """
    if not frozen:
        value = freeze(value)
    return _fp_of(value)
