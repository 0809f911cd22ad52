"""Pluggable visited-state stores for the exploration engines.

TLC scales past toy models because its fingerprint set is swappable (an
in-memory set, a disk-backed set, ...).  This module is that seam for the
reproduction: an exploration engine asks its store "have I seen this state?"
and never cares how the answer is represented.  Every store is exact --
``add`` returns True exactly once per state and ``distinct_count`` is the
true distinct-state count.  The fingerprint stores also keep, per state, the
one thing counterexample replay needs, as TLC's fingerprint set does: the
fingerprint of the state it was first reached from (``add(fp, parent)``,
read back with ``parent_of(fp)``).  Three ship, the third loaded only when
one is made (it brings ``sqlite3`` with it):

* ``"fingerprint"`` -- :class:`FingerprintSetStore`: one in-memory dict
  ``fp -> parent fp``, whose keys are the visited set; the default for the
  fingerprint-interned engines.
* ``"states"`` -- :class:`StateRetainingStore`: every distinct ``State``
  object is retained and assigned a dense integer id.  Required by the
  serial ``states`` engine, whose retained graph nodes must resolve back to
  states.
* ``"disk"`` -- :class:`repro.engine.diskstore.DiskFingerprintStore`: the
  same ``fp -> parent fp`` pairs in a SQLite file behind a write-back cache
  and a Bloom filter, so million-state runs keep a flat memory profile.  Takes a
  ``path`` (the CLI's ``--store-path``); ``capacity`` sizes its write-back
  cache.

Stores are registered by name (:func:`register_store`) so a new backend --
an mmap'd hash file, say -- is a one-file addition; engines declare which
stores they accept (:attr:`repro.engine.base.Engine.supported_stores`) and
:func:`repro.engine.core.ModelChecker` resolves ``store="auto"`` to the
engine's default.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..tla.state import State

__all__ = [
    "FingerprintSetStore",
    "StateRetainingStore",
    "StateStore",
    "make_store",
    "register_store",
    "store_names",
]


class StateStore(Protocol):
    """What every visited-state store exposes to the engines.

    ``add`` returns True when the fingerprint was not present (the state is
    new and should be explored) and then records ``parent`` -- the
    fingerprint of the state it was reached from, None for an initial state
    -- for :meth:`parent_of`; ``distinct_count`` is the number of distinct
    states the store has seen.
    """

    name: str
    retains_states: bool

    def add(self, fp: int, parent: Optional[int] = None) -> bool: ...

    def parent_of(self, fp: int) -> Optional[int]: ...

    def __contains__(self, fp: int) -> bool: ...

    def __len__(self) -> int: ...

    @property
    def distinct_count(self) -> int: ...

    #: Whether the store can round-trip through ``snapshot``/``restore``
    #: (the checkpoint/resume seam; see :mod:`repro.resilience.checkpoint`).
    supports_snapshot: bool


class FingerprintSetStore:
    """In-memory 64-bit state fingerprints, each mapped to its parent's (the default).

    One dict entry per distinct state: the keys are the visited set, the
    values the replay pointers.  A parent's fingerprint is the very int
    object that keys the parent's own entry, so a pointer costs no
    allocation.
    """

    name = "fingerprint"
    retains_states = False
    supports_snapshot = True

    def __init__(self) -> None:
        self._parents: Dict[int, Optional[int]] = {}

    def add(self, fp: int, parent: Optional[int] = None) -> bool:
        parents = self._parents
        if fp in parents:
            return False
        parents[fp] = parent
        return True

    def parent_of(self, fp: int) -> Optional[int]:
        return self._parents[fp]

    def __contains__(self, fp: int) -> bool:
        return fp in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    @property
    def distinct_count(self) -> int:
        return len(self._parents)

    def snapshot(self) -> Dict[str, Any]:
        """Picklable ``(fp, parent fp)`` pairs for checkpointing."""
        return {"pairs": list(self._parents.items())}

    def restore(self, data: Dict[str, Any]) -> None:
        """Rebuild the store from a :meth:`snapshot` payload."""
        self._parents = dict(data["pairs"])


class StateRetainingStore:
    """Every distinct state retained, keyed by value and assigned a dense id.

    The serial ``states`` engine needs states back (graph nodes, trace
    reconstruction), so this store interns whole ``State`` objects rather
    than fingerprints.  ``intern`` is its primary interface; the
    fingerprint-flavoured ``add`` is not supported.
    """

    name = "states"
    retains_states = True
    #: Retained State objects and the graph referencing them make this store
    #: much heavier to snapshot than the fingerprint stores; the serial
    #: ``states`` engine is therefore outside the checkpoint seam for now.
    supports_snapshot = False

    def __init__(self) -> None:
        self._ids: Dict[State, int] = {}
        self._by_id: List[State] = []

    def intern(self, state: State) -> Tuple[int, bool]:
        """Register a state; return ``(dense id, is_new)``."""
        existing = self._ids.get(state)
        if existing is not None:
            return existing, False
        new_id = len(self._by_id)
        self._ids[state] = new_id
        self._by_id.append(state)
        return new_id, True

    def id_of(self, state: State) -> int:
        return self._ids[state]

    def state_of(self, state_id: int) -> State:
        return self._by_id[state_id]

    def add(self, fp: int, parent: Optional[int] = None) -> bool:
        raise TypeError(
            "StateRetainingStore interns State objects; use intern(state)"
        )

    def __contains__(self, state: object) -> bool:
        return state in self._ids

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def distinct_count(self) -> int:
        return len(self._by_id)


_STORES: Dict[str, Callable[[Optional[int], Optional[str]], object]] = {}


def register_store(
    name: str, factory: Callable[[Optional[int], Optional[str]], object]
) -> None:
    """Register a store backend; ``factory(capacity, path)`` builds one.

    ``path`` is the on-disk location for file-backed stores (the CLI's
    ``--store-path``); purely in-memory backends ignore it.
    """
    _STORES[name] = factory


def store_names() -> Tuple[str, ...]:
    """Registered store names, in registration order."""
    return tuple(_STORES)


def make_store(
    name: str, *, capacity: Optional[int] = None, path: Optional[str] = None
):
    """Instantiate a registered store by name."""
    try:
        factory = _STORES[name]
    except KeyError:
        known = ", ".join(store_names())
        raise ValueError(f"unknown store {name!r}; expected one of: {known}") from None
    return factory(capacity, path)


def _disk_store(capacity: Optional[int], path: Optional[str]):
    from .diskstore import DiskFingerprintStore

    return DiskFingerprintStore(capacity, path)


register_store("fingerprint", lambda capacity, path: FingerprintSetStore())
register_store("states", lambda capacity, path: StateRetainingStore())
register_store("disk", _disk_store)
