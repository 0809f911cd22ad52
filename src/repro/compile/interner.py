"""Combined freeze + fingerprint value interning for compiled specs.

The interpreted hot path pays three separate walks per successor value: a
defensive :func:`~repro.tla.values.freeze`, a structural hash for the
``State`` object, and a fingerprint walk through the
:class:`~repro.tla.values.FingerprintCache`.  The compiled path collapses
them into one :class:`ValueInterner` pass that returns an *entry*: everything
a caller binding a state slot needs, worked out once per canonical value.

``(canonical, fp, key, packed)``
    the canonical object, its 64-bit fingerprint, its exact memo key, and the
    fingerprint packed to the 8 bytes a state fingerprint joins.

The key rule lives here and nowhere else: a container's key is
``id(canonical)``, a primitive's is ``(type, value)`` -- *not* the value
alone, because ``True == 1 == 1.0`` would otherwise alias three different
fingerprints onto one key.  Keys are exact, never a fingerprint, so whatever
is keyed on them (the read-set tries of :mod:`repro.compile.kernels`, the
trace cache of :mod:`repro.tla.trace`) adds no collision surface.

* an **identity memo** ``id(canonical) -> entry`` answers repeat lookups in
  one dict probe -- successor states share almost all of their slots with
  their parents, and because the frontier is built from the canonical
  objects the interner handed out, the ``id()`` of an unchanged slot hits on
  the very next expansion;
* an **equality memo** canonicalizes newly built but structurally known
  values (the ``held[:t] + (row,) + held[t+1:]`` idiom produces a fresh
  tuple every time), so distinct-but-equal objects collapse to one retained
  instance and downstream identity lookups keep hitting.  A hit is checked
  for type agreement (``(False, True) == (0, 1)``), and the later comer of
  such a pair is filed under a key that spells out its types;
* a **primitive memo** keyed by ``(type, value)``, whose first comer is the
  canonical object of every equal primitive of its type.

Fingerprints are computed by the same :func:`repro.tla.values._fp_of`
walk the interpreter uses, so a compiled fingerprint is equal to the
interpreted one *by construction*, not by parallel reimplementation.

Identity-memo safety: only canonical objects (retained by the entry tuples of
the equality and primitive memos) are keyed by ``id()``.  A retained
object's address cannot be reused while its entry lives, and eviction purges
the identity memo with the other two, so a stale-id hit is impossible.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Tuple

from ..tla.values import (
    _FP_PACK,
    _PRIMITIVE_TYPES,
    _digest,
    _fp_of,
    _same_types,
    FingerprintCache,
    Record,
    freeze,
    packed_state_fingerprint,
    state_fingerprint,
)

__all__ = ["Entry", "ValueInterner", "packed_state_fingerprint", "state_fingerprint"]

#: What :meth:`ValueInterner.intern` returns: ``(canonical, fp, key, packed fp)``.
Entry = Tuple[Any, int, Any, bytes]

#: Leads the equality-memo key of a value that is equal to, but typed
#: differently from, a value already canonical; no spec value can equal it.
_TYPED = object()


def _type_signature(value: Any) -> Any:
    """The types of a frozen value, nested as it is: apart for ``True`` and ``1``."""
    tp = type(value)
    if tp is tuple:
        return (tp, *map(_type_signature, value))
    if tp is Record:
        return (tp, *(_type_signature(item) for _name, item in value._items))
    if tp is frozenset:
        return (tp, frozenset((item, _type_signature(item)) for item in value))
    return tp


class ValueInterner:
    """Single-pass freeze + canonicalize + fingerprint for one run.

    Bounded like :class:`~repro.tla.values.FingerprintCache`: when a memo
    fills up, its oldest half (dict insertion order) is discarded, so the
    interner never grows into a second copy of a paper-scale state space.

    Not thread-safe: a miss walks and edits the memos over many bytecodes.
    Threads sharing one interner serialize on the lock of whoever shares it
    out (:class:`~repro.tla.trace.SuccessorCache` holds its own around every
    call).
    """

    MAX_ENTRIES = 1_000_000

    __slots__ = ("_by_id", "_canon", "_prim", "max_entries", "cache", "hits", "misses", "evictions")

    def __init__(self, *, max_entries: int = MAX_ENTRIES) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        #: id(canonical) -> entry, for every canonical object.  The entry
        #: tuple retains the object, which is what makes keying by id safe;
        #: binding a slot that already holds a canonical object is one probe.
        self._by_id: dict[int, Entry] = {}
        #: frozen container -> entry, keyed by equality.
        self._canon: dict[Any, Entry] = {}
        #: (type, value) -> entry for primitives.
        self._prim: dict[Tuple[type, Any], Entry] = {}
        self.max_entries = max_entries
        #: Sub-value memo for the structural fingerprint walk on misses.
        self.cache = FingerprintCache(max_entries=max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._canon)

    def intern(self, value: Any) -> Entry:
        """``(canonical, fp, key, packed fp)`` for an arbitrary spec value.

        The canonical value is frozen, equal to ``value`` *with the same
        types throughout* (never ``(0, 1)`` for ``(False, True)``), and
        stable: two such inputs intern to the *same* object, so later lookups
        hit the identity memo.  The fingerprint equals
        ``fingerprint(freeze(value))`` from :mod:`repro.tla.values`; the key
        and the packed fingerprint are the module docstring's.
        """
        entry = self._by_id.get(id(value))
        if entry is not None:
            self.hits += 1
            return entry
        tp = type(value)
        if tp in _PRIMITIVE_TYPES:
            key = (tp, value)
            entry = self._prim.get(key)
            if entry is None:
                fp = _digest(b"P" + repr(value).encode("utf-8"))
                entry = (value, fp, key, _FP_PACK(fp))
                self._file(self._prim, key, entry)
            return entry
        self.misses += 1
        key = value = freeze(value)
        entry = self._canon.get(key)
        if entry is not None and not _same_types(entry[0], value):
            key = (_TYPED, _type_signature(value), value)
            entry = self._canon.get(key)
        if entry is None:
            fp = _fp_of(value, self.cache)
            entry = (value, fp, id(value), _FP_PACK(fp))
            self._file(self._canon, key, entry)
        # The caller's fresh-but-equal object is NOT id-mapped: it is about
        # to be dropped in favour of the canonical one, and memoizing a dead
        # object's address would invite id-reuse aliasing.
        return entry

    def slot_fingerprints(self, values: Tuple[Any, ...]) -> list:
        """Per-slot fingerprints of a state's values tuple."""
        intern = self.intern
        return [intern(value)[1] for value in values]

    def _file(self, memo: dict, key: Any, entry: Entry) -> None:
        """Keep a new canonical ``entry`` in ``memo`` and the identity memo,
        first discarding the oldest half of ``memo`` if it is full."""
        by_id = self._by_id
        if len(memo) >= self.max_entries:
            for stale in list(islice(memo, len(memo) // 2)):
                by_id.pop(id(memo.pop(stale)[0]), None)
            self.evictions += 1
        memo[key] = entry
        by_id[id(entry[0])] = entry

    def stats(self) -> dict:
        """Hit/miss/eviction counters and the current entry counts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._canon),
            "primitive_entries": len(self._prim),
        }
