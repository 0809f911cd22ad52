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
* :func:`fingerprint` -- a stable 64-bit fingerprint used by the checker.
"""

from __future__ import annotations

import operator
import struct
import zlib
from collections.abc import Mapping
from typing import Any, Iterable, Iterator, Tuple

from .errors import SpecError

__all__ = [
    "NULL",
    "Record",
    "append",
    "decode_value",
    "encode_value",
    "fingerprint",
    "freeze",
    "last",
    "seq_index",
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


_FP_PACK = struct.Struct("<Q").pack


def _digest(data: bytes) -> int:
    """Fold a byte string into 64 bits, stable across processes and runs."""
    return (zlib.adler32(data) << 32) | zlib.crc32(data)


def packed_state_fingerprint(packed_slot_fps: Iterable[bytes]) -> int:
    """Fold packed per-slot fingerprints into a state fingerprint.

    Equal to ``fingerprint(values, frozen=True)``: the ``T`` digest over the
    slots' fingerprints, each packed to 8 bytes.  The generic kernel keeps
    slot fingerprints packed, in bound states and in memoized updates alike,
    so a successor's fingerprint is one splice, one join and one digest.
    """
    return _digest(b"T" + b"".join(packed_slot_fps))


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


#: The structural kinds and the tag each one's digest starts with.
_FP_TAGS = {tuple: b"T", Record: b"R", frozenset: b"S"}


def _fp_of(value: Any) -> int:
    """Structural fingerprint: combine child fingerprints, no string building.

    The one fingerprint walk.  Records cache their fingerprint on the
    instance (they are immutable and shared across the BFS frontier);
    tuples and frozensets are walked each time they are asked for.
    Dispatch is on the exact type first: ``isinstance`` against
    :class:`Record`, an ABC, costs more than a leaf's digest.
    """
    tp = type(value)
    tag = _FP_TAGS.get(tp)
    if tag is None and tp not in _PRIMITIVE_TYPES:
        # A subclass is fingerprinted as the kind it extends, anything else
        # as a primitive.
        tag = next((t for kind, t in _FP_TAGS.items() if isinstance(value, kind)), None)
    if tag is None:
        # Primitives: repr disambiguates types (True vs 1 vs "1" vs 1.0 all
        # render differently) and is stable across processes.
        return _digest(b"P" + repr(value).encode("utf-8"))
    if tag == b"R":
        cached = value._fp
        if cached is None:
            data = b"R" + b"".join(
                key.encode("utf-8") + b"\0" + _FP_PACK(_fp_of(item))
                for key, item in value._items
            )
            cached = _digest(data)
            object.__setattr__(value, "_fp", cached)
        return cached
    packed = [_FP_PACK(_fp_of(item)) for item in value]
    if tag == b"S":
        packed.sort()
    return _digest(tag + b"".join(packed))


def fingerprint(value: Any, *, frozen: bool = False) -> int:
    """Return a stable 64-bit fingerprint of a frozen value.

    Python's built-in ``hash`` is randomized per process for strings, which
    would make fingerprints unusable for cross-run coverage merging (one of
    the TLC gaps the paper calls out in Section 4.2.4).  We therefore combine
    CRC-based digests over the value structure, which is stable across
    processes and runs.

    ``frozen=True`` skips the defensive :func:`freeze` walk; callers such as
    :meth:`repro.tla.state.State.fingerprint` whose values are frozen by
    construction use it to avoid rebuilding the value tree on every call.
    """
    if not frozen:
        value = freeze(value)
    return _fp_of(value)
