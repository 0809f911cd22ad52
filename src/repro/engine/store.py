"""Visited-state stores for the exploration engines.

TLC scales past toy models because its fingerprint set can live in memory
or on disk.  This module is that seam for the reproduction: the one BFS
(:func:`repro.engine.fingerprint.bfs_levels`) asks its store "have I seen
this fingerprint?" and never cares how the answer is represented.  Every
store keys a state by its 64-bit fingerprint, reports each fingerprint new
exactly once, and keeps, per state, the one thing counterexample replay
needs, as TLC's fingerprint set does: the fingerprint of the state it was
first reached from (``add(fp, parent)``, read back with ``parent_of(fp)``).
Three ship, the third loaded only when one is made (it brings ``sqlite3``
with it):

* ``"fingerprint"`` -- :class:`FingerprintSetStore`: one in-memory dict
  ``fp -> parent fp``, whose keys are the visited set; the default for the
  ``fingerprint`` and ``simulate`` engines.
* ``"states"`` -- :class:`~repro.tla.graph.StateGraph`: the fingerprint
  store plus states and edges -- each fingerprint numbered as a dense node
  id in insertion order, its ``State`` attached by the loop.  The
  ``states`` engine's store, and, when the graph is collected, its
  ``result.graph``.
* ``"disk"`` -- :class:`repro.engine.diskstore.DiskFingerprintStore`: the
  same ``fp -> parent fp`` pairs in a SQLite file behind a write-back cache
  and a Bloom filter, so million-state runs keep a flat memory profile.  Takes a
  ``path`` (the CLI's ``--store-path``); ``capacity`` sizes its write-back
  cache.

:func:`make_store` builds one by name;
:class:`repro.engine.core.ModelChecker` knows which stores each engine
accepts and resolves ``store="auto"`` to the engine's default.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol

from ..tla.graph import StateGraph

__all__ = ["FingerprintSetStore", "StateStore", "make_store"]


class StateStore(Protocol):
    """What the fingerprint stores expose to the engines.

    ``add`` returns True when the fingerprint was not present (the state is
    new and should be explored) and then records ``parent`` -- the
    fingerprint of the state it was reached from, None for an initial state
    -- for :meth:`parent_of`; ``distinct_count`` is the number of distinct
    states the store has seen.  The ``states`` store, a
    :class:`~repro.tla.graph.StateGraph`, has all of it but ``__contains__``,
    which there asks about a ``State``.
    """

    name: str

    def add(self, fp: int, parent: Optional[int] = None) -> bool: ...

    def parent_of(self, fp: int) -> Optional[int]: ...

    def __contains__(self, fp: int) -> bool: ...

    def __len__(self) -> int: ...

    @property
    def distinct_count(self) -> int: ...


class FingerprintSetStore:
    """In-memory 64-bit state fingerprints, each mapped to its parent's (the default).

    One dict entry per distinct state: the keys are the visited set, the
    values the replay pointers.  A parent's fingerprint is the very int
    object that keys the parent's own entry, so a pointer costs no
    allocation.
    """

    name = "fingerprint"

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


def make_store(
    name: str, *, capacity: Optional[int] = None, path: Optional[str] = None
):
    """Build the store called ``name``.

    ``capacity`` and ``path`` are the ``disk`` store's write-back cache size
    and database file (the CLI's ``--store-capacity`` / ``--store-path``);
    the in-memory stores take neither.
    """
    if name == "fingerprint":
        return FingerprintSetStore()
    if name == "states":
        return StateGraph()
    if name == "disk":
        from .diskstore import DiskFingerprintStore

        return DiskFingerprintStore(capacity, path)
    raise ValueError(
        f"unknown store {name!r}; expected one of: fingerprint, states, disk"
    )
